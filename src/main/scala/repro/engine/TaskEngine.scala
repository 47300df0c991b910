package repro.engine

import java.util.concurrent.atomic.{AtomicBoolean, AtomicLong, AtomicLongArray, AtomicReference}
import java.util.concurrent.locks.{LockSupport, ReentrantLock}
import scala.collection.mutable.ArrayBuffer
import scala.util.Random
import repro.core._

/** Configuration of the parallel engine (Section VI).
  *
  * @param threads  thread-pool size p
  * @param stealing dynamic work stealing on (HGMatch) or off (the static
  *                 "assign by firstly matched hyperedge" comparison point,
  *                 HGMatch-NOSTL in Exp-6)
  */
final case class TaskEngineConfig(threads: Int, stealing: Boolean = true)

/** Outcome of one matching run. `completed = false` means the deadline
  * expired; `embeddings` is then a partial count (the paper counts timed-out
  * queries at the full time limit).
  */
final case class RunOutcome(
    embeddings: Long,
    completed: Boolean,
    elapsedNanos: Long,
    counters: (Long, Long, Long), // (candidates, filtered, validated)
)

/** Per-worker accounting for the load-balancing experiment (Exp-6). */
final case class WorkerStat(id: Int, busyNanos: Long, tasks: Long, steals: Long, stolenTasks: Long)

/** [[RunOutcome]] plus scheduler-level metrics: the observed peak of live
  * task-queue bytes (the Theorem VI.1 bound; summed per-worker peaks, a
  * slight over-estimate) and per-worker stats.
  */
final case class TaskRunOutcome(
    outcome: RunOutcome,
    peakQueueBytes: Long,
    workers: Seq[WorkerStat],
)

/** The task-based scheduler of Section VI-B with the dynamic work stealing
  * of Section VI-C.
  *
  * A task is one partial embedding (Definition VI.1): executing it either
  * sinks it (complete) or expands it, spawning one child task per valid
  * extension. With a count-only sink, a task one hyperedge short of
  * complete counts its valid extensions straight into the sink and spawns
  * nothing (the fused SINK of [[Operator]]). Each worker owns a deque; new
  * tasks go to the head and the worker pops from the head (LIFO — the
  * bounded-memory order of Theorem VI.1). An idle worker picks a random
  * victim and steals half of the victim's tasks from the *tail*, i.e. the
  * oldest/shallowest embeddings carrying the most remaining work. With one
  * worker there is nothing to steal and no pool: the worker's loop runs on
  * the calling thread (this is [[SequentialEngine]]).
  *
  * The paper uses a Chase–Lev non-blocking deque; here each deque is an
  * `ArrayDeque` under a light `ReentrantLock` (tryLock on the thief side) —
  * same scheduling semantics (see DESIGN.md substitutions). Shared-state
  * traffic is kept off the per-task fast path: task creations are counted
  * with one atomic add per expansion, completions are flushed in batches
  * (lag only delays the termination check, never causes early exit), and
  * queue-byte accounting lives in padded per-worker slots.
  */
object TaskEngine {

  private def taskBytes(emb: Array[Int]): Long = 24L + 4L * emb.length

  private final val Stride = 8 // slots per worker in AtomicLongArray (false-sharing pad)

  private final class WorkerDeque {
    private val dq = new java.util.ArrayDeque[Array[Int]]()
    private val lock = new ReentrantLock()

    def push(t: Array[Int]): Unit = { lock.lock(); try dq.addFirst(t) finally lock.unlock() }

    def pop(): Array[Int] = { lock.lock(); try dq.pollFirst() finally lock.unlock() }

    def size: Int = dq.size() // racy read, used only as a stealing hint

    /** Steal ⌊size/2⌋ from the tail; non-blocking on contention. Returns
      * the stolen tasks' total bytes (for the accounting hand-off).
      */
    def stealHalf(into: ArrayBuffer[Array[Int]]): Long = {
      if (!lock.tryLock()) return 0L
      try {
        val n = dq.size()
        val k = n / 2
        var bytes = 0L
        var i = 0
        while (i < k) {
          val t = dq.pollLast()
          bytes += taskBytes(t)
          into += t
          i += 1
        }
        bytes
      } finally lock.unlock()
    }
  }

  /** Run `plan` on `config.threads` workers: a fresh pool, or the calling
    * thread alone when there is one worker. `seeds` replaces the SCAN with
    * the given hyperedge ids of the scan partition (the Spark tier passes
    * each task its share of them). If a sink or the expander throws, the
    * run aborts and rethrows the first failure.
    */
  def run(
      tables: HyperedgeTables,
      plan: Plan,
      config: TaskEngineConfig,
      sink: Sink = new CountingSink,
      timeoutNanos: Long = Long.MaxValue,
      seeds: Option[Array[Int]] = None,
  ): TaskRunOutcome = {
    require(config.threads >= 1, "need at least one thread")
    val t0 = System.nanoTime()
    val deadline = if (timeoutNanos == Long.MaxValue) Long.MaxValue else t0 + timeoutNanos

    val counters = new MatchCounters
    val expander = new Expander(tables, plan, counters)
    val total = plan.numEdges
    val countLast = sink.countOnly
    val p = config.threads

    val deques = Array.fill(p)(new WorkerDeque)
    // Monotonic counters: a task is counted in `created` BEFORE it becomes
    // stealable, so created == completed implies nothing is queued or in
    // flight. Workers flush their completion batches before idling.
    val created = new AtomicLong(0)
    val completed = new AtomicLong(0)
    val qbytes = new AtomicLongArray(p * Stride)
    val abort = new AtomicBoolean(false)
    val failure = new AtomicReference[Throwable]()

    // T_SCAN: seed one task per hyperedge of the scan partition. Each
    // worker receives an equal contiguous share of the firstly matched
    // hyperedges — the static coarse-grained distribution of Section VI-C
    // whose skew the work stealing then corrects.
    val scanEdges = seeds.getOrElse(tables.edgesOf(plan.scanSignature))
    created.addAndGet(scanEdges.length.toLong)
    var si = 0
    while (si < scanEdges.length) {
      val w = math.min(p - 1, si * p / math.max(1, scanEdges.length))
      val t = Array(scanEdges(si))
      qbytes.getAndAdd(w * Stride, taskBytes(t))
      deques(w).push(t)
      si += 1
    }

    val busy = new Array[Long](p)
    val tasksRun = new Array[Long](p)
    val steals = new Array[Long](p)
    val stolen = new Array[Long](p)
    val peakPerWorker = new Array[Long](p)

    def work(id: Int): Unit = {
      val rnd = new Random(0x5eed + id)
      val stealBuf = ArrayBuffer.empty[Array[Int]]
      val slot = id * Stride
      var localCompleted = 0L
      var localPeak = 0L

      def flush(): Unit =
        if (localCompleted > 0) { completed.addAndGet(localCompleted); localCompleted = 0 }

      val childBuf = ArrayBuffer.empty[Array[Int]]

      def runTask(t: Array[Int]): Unit = {
        qbytes.getAndAdd(slot, -taskBytes(t))
        if (!abort.get()) {
          val s = System.nanoTime()
          try {
            if (t.length == total) sink.consume(t) // T_SINK
            else if (countLast && t.length == total - 1) sink.add(expander.countExtensions(t))
            else { // T_EXPAND
              childBuf.clear()
              expander.expand(t)(childBuf += _)
              if (childBuf.nonEmpty) {
                var spawnedBytes = 0L
                childBuf.foreach(c => spawnedBytes += taskBytes(c))
                created.addAndGet(childBuf.length.toLong) // before push
                val nowBytes = qbytes.addAndGet(slot, spawnedBytes)
                if (nowBytes > localPeak) localPeak = nowBytes
                childBuf.foreach(deques(id).push)
              }
            }
          } catch {
            // The task still counts as completed below, so every worker
            // drains the remaining (now skipped) tasks and terminates.
            case e: Throwable => failure.compareAndSet(null, e); abort.set(true)
          }
          val now = System.nanoTime()
          busy(id) += now - s
          tasksRun(id) += 1
          if (now > deadline) abort.set(true)
        }
        localCompleted += 1
        if (localCompleted >= 64) flush()
      }

      var done = false
      while (!done) {
        val t = deques(id).pop()
        if (t != null) runTask(t)
        else {
          flush()
          // Read `completed` BEFORE `created`: both are monotonic and a
          // task is counted created before it is queued, so equality in
          // this order proves nothing is queued or in flight.
          val doneCount = completed.get()
          if (created.get() == doneCount) done = true
          else {
            var got = false
            if (config.stealing && p > 1) {
              // Random victim with a non-empty queue (Section VI-C).
              var attempt = 0
              while (!got && attempt < p) {
                val victim = rnd.nextInt(p)
                if (victim != id && deques(victim).size > 0) {
                  stealBuf.clear()
                  val movedBytes = deques(victim).stealHalf(stealBuf)
                  if (stealBuf.nonEmpty) {
                    steals(id) += 1; stolen(id) += stealBuf.length
                    qbytes.getAndAdd(victim * Stride, -movedBytes)
                    qbytes.getAndAdd(slot, movedBytes)
                    stealBuf.foreach(deques(id).push)
                    got = true
                  }
                }
                attempt += 1
              }
            }
            if (!got) LockSupport.parkNanos(10_000)
          }
        }
      }
      flush()
      peakPerWorker(id) = localPeak
    }

    if (p == 1) work(0)
    else {
      val threads = (0 until p).map(id => new Thread(() => work(id), s"hgmatch-worker-$id"))
      threads.foreach(_.start())
      threads.foreach(_.join())
    }
    if (failure.get() != null) throw failure.get()

    val stats = (0 until p).map(id => WorkerStat(id, busy(id), tasksRun(id), steals(id), stolen(id)))
    TaskRunOutcome(
      RunOutcome(sink.count, !abort.get(), System.nanoTime() - t0, counters.snapshot),
      math.max(peakPerWorker.sum, taskBytes(Array(0)) * scanEdges.length), // seeds count too
      stats,
    )
  }
}
