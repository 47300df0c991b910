package hgbench

import java.util.concurrent.atomic.LongAdder
import scala.collection.mutable
import org.apache.spark.scheduler._
import repro.core._
import repro.engine.{CountingSink, Expander, MatchCounters, Sink}

/** Per-layer counters and span times of one traced phase, recorded from
  * the benchmark's side of each layer's public functions. Spans of one
  * query operation are written out as one JSON line when the run ends.
  */
final class Trace {
  // candidates, countOk and valid sum the engines' own counters.
  var planCalls = 0L; var planNanos = 0L
  var candgenCalls = 0L; var candidates = 0L; var candgenNanos = 0L
  var checked = 0L; var countOk = 0L; var valid = 0L; var validationNanos = 0L
  var expandCalls = 0L; var emitted = 0L; var expandNanos = 0L
  var sinkCalls = 0L; var sinkNanos = 0L
  var schedTasks = 0L; var schedBusy = 0L; var schedIdle = 0L
  var steals = 0L; var stolen = 0L; var peakQueueBytes = 0L
  val imbalance = mutable.ArrayBuffer.empty[Double]
  var sparkPlanNanos = 0L
  var sparkStages = 0L; var sparkTasks = 0L
  var sparkShuffleReadBytes = 0L; var sparkShuffleWriteBytes = 0L
  var sparkRunMillis = 0L; var sparkCpuNanos = 0L
  val spans = mutable.ArrayBuffer.empty[String]

  def span(op: String, query: String, layer: String, start: Long, end: Long, fields: (String, Any)*): Unit =
    spans += (Seq("op" -> op, "query" -> query, "layer" -> layer, "start_ns" -> start, "end_ns" -> end) ++ fields)
      .map { case (k, v) => s"\"$k\": ${v match { case s: String => "\"" + s + "\""; case x => x.toString }}" }
      .mkString("{", ", ", "}")
}

/** A counting [[Sink]] that times each `consume` call; thread-safe, as the
  * task engine sinks from every worker.
  */
final class TracingSink extends Sink {
  private val inner = new CountingSink
  val calls = new LongAdder
  val nanos = new LongAdder
  def consume(emb: Array[Int]): Unit = {
    val t0 = System.nanoTime()
    inner.consume(emb)
    nanos.add(System.nanoTime() - t0)
    calls.increment()
  }
  def count: Long = inner.count
}

/** Totals of one replay: embeddings completed, and (candidates, count
  * checks passed, valid candidates) as its layer probes and its `Expander`
  * counted them.
  */
final case class ReplayCounts(embeddings: Long, probes: (Long, Long, Long), expander: (Long, Long, Long))

/** A single-thread LIFO run of `plan` that times the EXPAND layer and its
  * parts from outside. Each partial embedding is expanded by the program's
  * `Expander.expand`, whose children go on the stack; then the same
  * expansion's parts are probed one at a time through their public
  * functions: `CandidateGen.candidatesInto`, and per candidate the duplicate
  * check, `Validation.profileKeys`, `freshCountOk` and `profileKeysOk`.
  * `Expander` offers no hook for child spans, hence the probes. They run
  * right after the `expand` call on warm caches, so `expand` minus the
  * probes is an upper bound on EXPAND's own time. The probes' totals are
  * checked against the replay's `Expander` counters and the engine's.
  */
object Replay {
  def run(tables: HyperedgeTables, plan: Plan, tr: Trace): ReplayCounts = {
    val counters = new MatchCounters
    val expander = new Expander(tables, plan, counters)
    val scratch = new CandidateGen.Scratch
    val maxArity = if (plan.steps.isEmpty) 1 else plan.steps.iterator.map(_.signature.arity).max
    val keys = new Array[Long](maxArity)
    val total = plan.numEdges
    val stack = mutable.Stack.empty[Array[Int]]
    tables.edgesOf(plan.scanSignature).foreach(e => stack.push(Array(e)))
    var complete, candidates, countOk, valid = 0L
    while (stack.nonEmpty) {
      val emb = stack.pop()
      if (emb.length == total) complete += 1
      else {
        val step = plan.steps(emb.length - 1)
        val depth = stack.size
        val t0 = System.nanoTime()
        expander.expand(emb)(next => stack.push(next))
        val t1 = System.nanoTime()
        CandidateGen.candidatesInto(tables, step, emb, scratch)
        val t2 = System.nanoTime()
        var i = 0
        while (i < scratch.na) {
          val c = scratch.a(i)
          var dup = false
          var j = 0
          while (j < emb.length && !dup) { dup = emb(j) == c; j += 1 }
          if (!dup) {
            tr.checked += 1
            if (Validation.freshCountOk(step, Validation.profileKeys(tables, step, emb, c, keys))) {
              countOk += 1
              if (Validation.profileKeysOk(step, keys, step.signature.arity)) valid += 1
            }
          }
          i += 1
        }
        val t3 = System.nanoTime()
        candidates += scratch.na
        tr.candgenCalls += 1; tr.candgenNanos += t2 - t1
        tr.validationNanos += t3 - t2
        tr.expandCalls += 1; tr.emitted += stack.size - depth; tr.expandNanos += t1 - t0
      }
    }
    ReplayCounts(complete, (candidates, countOk, valid), counters.snapshot)
  }
}

/** Spark listener that sums the stages, tasks and task metrics of the jobs
  * run under one job group.
  */
final class SparkStats(group: String) extends SparkListener {
  private val stageIds = mutable.HashSet.empty[Int]
  private val jobIds = mutable.HashSet.empty[Int]
  @volatile var jobsEnded = 0
  @volatile var stages = 0L
  @volatile var tasks = 0L
  @volatile var shuffleReadBytes = 0L
  @volatile var shuffleWriteBytes = 0L
  @volatile var runMillis = 0L
  @volatile var cpuNanos = 0L

  override def onJobStart(e: SparkListenerJobStart): Unit = synchronized {
    if (Option(e.properties).exists(p => p.getProperty("spark.jobGroup.id") == group)) {
      jobIds += e.jobId
      stageIds ++= e.stageIds
    }
  }
  override def onJobEnd(e: SparkListenerJobEnd): Unit = synchronized {
    if (jobIds.contains(e.jobId)) jobsEnded += 1
  }
  override def onStageCompleted(e: SparkListenerStageCompleted): Unit = synchronized {
    if (stageIds.contains(e.stageInfo.stageId)) stages += 1
  }
  override def onTaskEnd(e: SparkListenerTaskEnd): Unit = synchronized {
    if (stageIds.contains(e.stageId) && e.taskMetrics != null) {
      val m = e.taskMetrics
      tasks += 1
      shuffleReadBytes += m.shuffleReadMetrics.totalBytesRead
      shuffleWriteBytes += m.shuffleWriteMetrics.bytesWritten
      runMillis += m.executorRunTime
      cpuNanos += m.executorCpuTime
    }
  }
}
