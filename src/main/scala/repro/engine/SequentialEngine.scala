package repro.engine

import scala.collection.mutable
import repro.core._

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

/** Single-thread LIFO execution — the task scheduler of Section VI-B with
  * p = 1: an explicit stack of partial embeddings, newest first, so at most
  * one expansion frontier is live at any time (DFS memory behaviour without
  * recursion — HGMatch never recurses). With a count-only sink the last
  * EXPAND is fused into SINK (see [[Operator]]).
  */
object SequentialEngine {

  /** Run `plan` to completion or until `timeoutNanos` elapses. `seeds`
    * replaces the SCAN with the given hyperedge ids of the scan partition
    * (the Spark tier passes each task its share of them).
    */
  def run(
      tables: HyperedgeTables,
      plan: Plan,
      sink: Sink = new CountingSink,
      timeoutNanos: Long = Long.MaxValue,
      seeds: Option[Array[Int]] = None,
  ): RunOutcome = {
    val t0 = System.nanoTime()
    val deadline = if (timeoutNanos == Long.MaxValue) Long.MaxValue else t0 + timeoutNanos
    val counters = new MatchCounters
    val expander = new Expander(tables, plan, counters)
    val total = plan.numEdges
    val countLast = sink.countOnly

    val stack = mutable.Stack.empty[Array[Int]]
    seeds.getOrElse(tables.edgesOf(plan.scanSignature)).foreach(e => stack.push(Array(e)))

    var ops = 0L
    var timedOut = false
    while (stack.nonEmpty && !timedOut) {
      val emb = stack.pop()
      if (emb.length == total) sink.consume(emb)
      else if (countLast && emb.length == total - 1) sink.add(expander.countExtensions(emb))
      else expander.expand(emb)(stack.push(_))
      ops += 1
      if ((ops & 0xff) == 0 && System.nanoTime() > deadline) timedOut = true
    }
    RunOutcome(sink.count, !timedOut, System.nanoTime() - t0, counters.snapshot)
  }
}
