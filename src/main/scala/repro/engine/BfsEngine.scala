package repro.engine

import java.util.concurrent.atomic.{AtomicInteger, AtomicReference}
import scala.collection.mutable.ArrayBuffer
import repro.core._

/** BFS-style scheduling — the comparison point of Exp-5 (Fig 11): every
  * EXPAND level materialises *all* intermediate embeddings before the next
  * level starts (as in PGX.ISO-style parallel matching). Peak memory grows
  * with the largest intermediate result, which is what the paper's
  * task-based scheduler avoids.
  */
final case class BfsRunOutcome(
    outcome: RunOutcome,
    peakLevelBytes: Long,
    /** True if `maxBytes` was hit — the stand-in for the out-of-memory
      * errors the paper reports for BFS scheduling on small machines.
      */
    memoryExceeded: Boolean,
)

object BfsEngine {

  private def embBytes(len: Int): Long = 24L + 4L * len

  /** Run with `threads` workers per level; abort (like an OOM) if the live
    * intermediate results exceed `maxBytes`. If a level thread throws, the
    * level stops and the run rethrows the first failure.
    */
  def run(
      tables: HyperedgeTables,
      plan: Plan,
      threads: Int = 1,
      maxBytes: Long = Long.MaxValue,
      timeoutNanos: Long = Long.MaxValue,
  ): BfsRunOutcome = {
    val t0 = System.nanoTime()
    val deadline = if (timeoutNanos == Long.MaxValue) Long.MaxValue else t0 + timeoutNanos
    val counters = ArrayBuffer.empty[MatchCounters] // one per level thread, merged at the end

    var level: ArrayBuffer[Array[Int]] = ArrayBuffer.from(tables.edgesOf(plan.scanSignature).map(Array(_)))
    var peak = embBytes(1) * level.length
    var exceeded = false
    val timedOutFlag = new java.util.concurrent.atomic.AtomicBoolean(false)
    val failure = new AtomicReference[Throwable]() // the first level thread's, rethrown after the join
    def timedOut = timedOutFlag.get()
    var pos = 1

    while (pos < plan.numEdges && !exceeded && !timedOut && level.nonEmpty) {
      val next = new ArrayBuffer[Array[Int]]()
      // Dynamic work-list partitioning within the level; results merged
      // under a lock — mirrors BFS engines' shared global storage. With
      // one thread the loop runs on the caller's thread.
      val cursor = new AtomicInteger(0)
      val expandLevel: Runnable = () =>
        try {
          val c = new MatchCounters
          val expander = new Expander(tables, plan, c)
          val local = new ArrayBuffer[Array[Int]]()
          var n = 0
          var i = cursor.getAndIncrement()
          while (i < level.length && !timedOut && failure.get() == null) {
            expander.expand(level(i))(local += _)
            if ((n & 0xff) == 0 && System.nanoTime() > deadline) timedOutFlag.set(true)
            n += 1
            i = cursor.getAndIncrement()
          }
          next.synchronized { next ++= local; counters += c }
        } catch { case e: Throwable => failure.compareAndSet(null, e) } // stops the other level threads
      if (threads <= 1) expandLevel.run()
      else {
        val ws = (0 until threads).map(_ => new Thread(expandLevel))
        ws.foreach(_.start()); ws.foreach(_.join())
      }
      if (failure.get() != null) throw failure.get()
      // Both the consumed and the produced level are live at the barrier.
      val liveBytes = embBytes(pos) * level.length + embBytes(pos + 1) * next.length
      peak = math.max(peak, liveBytes)
      if (liveBytes > maxBytes) exceeded = true
      level = next
      pos += 1
    }

    // On a deadline in the last level, `level` holds the complete
    // embeddings found so far; a memory cap reports none.
    val count = if (exceeded || pos < plan.numEdges) 0L else level.length.toLong
    BfsRunOutcome(
      RunOutcome(count, !(exceeded || timedOut), System.nanoTime() - t0, MatchCounters.sum(counters)),
      peak,
      exceeded,
    )
  }
}
