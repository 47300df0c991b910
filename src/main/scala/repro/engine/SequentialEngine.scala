package repro.engine

import repro.core._

/** Single-thread LIFO execution: the task scheduler of Section VI-B at
  * p = 1, i.e. [[TaskEngine]] with one worker on the calling thread. Its
  * one queue holds the partial embeddings newest first, so at most one
  * expansion frontier is live at any time (DFS memory behaviour without
  * recursion; HGMatch never recurses).
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
  ): RunOutcome =
    TaskEngine.run(tables, plan, TaskEngineConfig(1), sink, timeoutNanos, seeds).outcome
}
