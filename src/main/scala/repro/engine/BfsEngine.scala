package repro.engine

import java.util.concurrent.atomic.AtomicInteger
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
    * intermediate results exceed `maxBytes`.
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
    val counters = new MatchCounters
    val expander = new Expander(tables, plan, counters)

    var level: ArrayBuffer[Array[Int]] = ArrayBuffer.from(tables.edgesOf(plan.scanSignature).map(Array(_)))
    var peak = embBytes(1) * level.length
    var exceeded = false
    val timedOutFlag = new java.util.concurrent.atomic.AtomicBoolean(false)
    def timedOut = timedOutFlag.get()
    var pos = 1

    while (pos < plan.numEdges && !exceeded && !timedOut && level.nonEmpty) {
      val next = new ArrayBuffer[Array[Int]]()
      if (threads <= 1) {
        var i = 0
        while (i < level.length && !timedOut) {
          expander.expand(level(i))(next += _)
          if ((i & 0xff) == 0 && System.nanoTime() > deadline) timedOutFlag.set(true)
          i += 1
        }
      } else {
        // Static work-list partitioning within the level; results merged
        // under a lock — mirrors BFS engines' shared global storage.
        val cursor = new AtomicInteger(0)
        val ws = (0 until threads).map { _ =>
          new Thread(() => {
            val local = new ArrayBuffer[Array[Int]]()
            var i = cursor.getAndIncrement()
            while (i < level.length && System.nanoTime() <= deadline) {
              expander.expand(level(i))(local += _)
              i = cursor.getAndIncrement()
            }
            if (System.nanoTime() > deadline) timedOutFlag.set(true)
            next.synchronized { next ++= local }
          })
        }
        ws.foreach(_.start()); ws.foreach(_.join())
      }
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
      RunOutcome(count, !(exceeded || timedOut), System.nanoTime() - t0, counters.snapshot),
      peak,
      exceeded,
    )
  }
}
