package repro.engine

import java.util.concurrent.atomic.{AtomicBoolean, AtomicLong, AtomicReference}
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

/** Per-worker accounting for the load-balancing experiment (Exp-6).
  * `busyNanos` is the worker's wall time outside its idle loop (looking
  * for work, stealing, waiting for termination).
  */
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
  * complete counts its valid extensions and spawns nothing (the fused SINK
  * of [[Operator]]). Each worker owns a deque; new tasks go to the head and
  * the worker pops from the head (LIFO — the bounded-memory order of
  * Theorem VI.1). An idle worker picks a random victim and steals half of
  * the victim's tasks from the *tail*, i.e. the oldest/shallowest
  * embeddings carrying the most remaining work. With one worker there is
  * nothing to steal and no pool: the worker's loop runs on the calling
  * thread (this is [[SequentialEngine]]).
  *
  * The paper uses a Chase–Lev non-blocking deque; here each deque is an
  * `ArrayDeque` under a light `ReentrantLock` (tryLock on the thief side) —
  * same scheduling semantics (see DESIGN.md substitutions). Bookkeeping
  * stays with its writer: each deque counts its own queue bytes under the
  * lock it already takes, once per pushed batch; each worker has its own
  * [[Expander]], [[MatchCounters]] and fused count, merged after the join;
  * the deadline is read every 64 tasks and the busy clock only when a
  * worker goes idle. The one shared counter is `pending` (tasks created
  * but not yet completed), raised before each batch is pushed and lowered
  * in batches of completions, so a lagging decrement can only delay exit.
  */
object TaskEngine {

  private def taskBytes(emb: Array[Int]): Long = 24L + 4L * emb.length

  private final class WorkerDeque {
    private val dq = new java.util.ArrayDeque[Array[Int]]()
    private val lock = new ReentrantLock()
    private var bytes = 0L // live task bytes in `dq`, under `lock`
    var peak = 0L // the largest `bytes` seen; read after the join

    /** Push `ts` to the head in order, so the last one is popped first. */
    def pushAll(ts: ArrayBuffer[Array[Int]]): Unit = {
      lock.lock()
      try {
        var i = 0
        while (i < ts.length) { dq.addFirst(ts(i)); bytes += taskBytes(ts(i)); i += 1 }
        if (bytes > peak) peak = bytes
      } finally lock.unlock()
    }

    def pop(): Array[Int] = {
      lock.lock()
      try {
        val t = dq.pollFirst()
        if (t != null) bytes -= taskBytes(t)
        t
      } finally lock.unlock()
    }

    def size: Int = dq.size() // racy read, used only as a stealing hint

    /** Steal ⌊size/2⌋ from the tail; non-blocking on contention. */
    def stealHalf(into: ArrayBuffer[Array[Int]]): Unit = {
      if (!lock.tryLock()) return
      try {
        var k = dq.size() / 2
        while (k > 0) {
          val t = dq.pollLast()
          bytes -= taskBytes(t)
          into += t
          k -= 1
        }
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

    val total = plan.numEdges
    val countLast = sink.countOnly
    val p = config.threads

    val deques = Array.fill(p)(new WorkerDeque)
    val abort = new AtomicBoolean(false)
    val failure = new AtomicReference[Throwable]()

    // T_SCAN: seed one task per hyperedge of the scan partition. Each
    // worker receives an equal contiguous share of the firstly matched
    // hyperedges — the static coarse-grained distribution of Section VI-C
    // whose skew the work stealing then corrects.
    val scanEdges = seeds.getOrElse(tables.edgesOf(plan.scanSignature))
    val shares = Array.fill(p)(ArrayBuffer.empty[Array[Int]])
    for (si <- scanEdges.indices) shares(si * p / scanEdges.length) += Array(scanEdges(si))
    for (w <- 0 until p) deques(w).pushAll(shares(w))
    // Tasks created and not yet completed. Children are added before they
    // are pushed, so pending == 0 proves nothing is queued or in flight.
    val pending = new AtomicLong(scanEdges.length.toLong)

    val counters = Array.fill(p)(new MatchCounters)
    val counted = new Array[Long](p) // fused last-step counts
    val stats = new Array[WorkerStat](p)

    def work(id: Int): Unit = {
      val start = System.nanoTime()
      val expander = new Expander(tables, plan, counters(id))
      val rnd = new Random(0x5eed + id)
      val stealBuf = ArrayBuffer.empty[Array[Int]]
      val childBuf = ArrayBuffer.empty[Array[Int]]
      var localCompleted = 0L
      var localCounted = 0L
      var tasks, steals, stolen = 0L
      var idle = 0L

      /** Reports the batched completions; returns what is still pending. */
      def flush(): Long = {
        val left = pending.addAndGet(-localCompleted)
        localCompleted = 0
        left
      }

      def runTask(t: Array[Int]): Unit = {
        if (!abort.get()) {
          // The deadline is read on the first task and then every 64th.
          if ((tasks & 63) == 0 && System.nanoTime() > deadline) abort.set(true)
          else {
            tasks += 1
            try {
              if (t.length == total) sink.consume(t) // T_SINK
              else if (countLast && t.length == total - 1) localCounted += expander.countExtensions(t)
              else { // T_EXPAND
                childBuf.clear()
                expander.expand(t)(childBuf += _)
                if (childBuf.nonEmpty) {
                  pending.addAndGet(childBuf.length.toLong) // before push
                  deques(id).pushAll(childBuf)
                }
              }
            } catch {
              // The task still counts as completed below, so every worker
              // drains the remaining (now skipped) tasks and terminates.
              case e: Throwable => failure.compareAndSet(null, e); abort.set(true)
            }
          }
        }
        localCompleted += 1
        if (localCompleted == 64) flush()
      }

      var done = false
      while (!done) {
        val t = deques(id).pop()
        if (t != null) runTask(t)
        else {
          val idleStart = System.nanoTime()
          if (flush() == 0) done = true
          else {
            var got = false
            if (config.stealing && p > 1) {
              // Random victim with a non-empty queue (Section VI-C).
              var attempt = 0
              while (!got && attempt < p) {
                val victim = rnd.nextInt(p)
                if (victim != id && deques(victim).size > 0) {
                  stealBuf.clear()
                  deques(victim).stealHalf(stealBuf)
                  if (stealBuf.nonEmpty) {
                    steals += 1; stolen += stealBuf.length
                    deques(id).pushAll(stealBuf)
                    got = true
                  }
                }
                attempt += 1
              }
            }
            if (!got) LockSupport.parkNanos(10_000)
          }
          idle += System.nanoTime() - idleStart
        }
      }
      counted(id) = localCounted
      stats(id) = WorkerStat(id, System.nanoTime() - start - idle, tasks, steals, stolen)
    }

    if (p == 1) work(0)
    else {
      val threads = (0 until p).map(id => new Thread(() => work(id), s"hgmatch-worker-$id"))
      threads.foreach(_.start())
      threads.foreach(_.join())
    }
    if (failure.get() != null) throw failure.get()
    if (countLast) sink.add(counted.sum)

    TaskRunOutcome(
      RunOutcome(sink.count, !abort.get(), System.nanoTime() - t0, MatchCounters.sum(counters)),
      deques.map(_.peak).sum,
      stats.toSeq,
    )
  }
}
