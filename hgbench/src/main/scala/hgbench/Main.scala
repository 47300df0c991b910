package hgbench

import java.lang.management.ManagementFactory
import java.nio.charset.StandardCharsets
import java.nio.file.{Files, Paths}
import scala.collection.mutable
import scala.jdk.CollectionConverters._
import scala.util.Random
import scala.util.control.NonFatal
import repro.data.Datasets

object Stats {
  def median(xs: Seq[Double]): Double = {
    val s = xs.sorted
    val n = s.length
    if (n == 0) Double.NaN else if (n % 2 == 1) s(n / 2) else (s(n / 2 - 1) + s(n / 2)) / 2
  }

  /** The highest percentile with at least ten samples beyond it, i.e. the
    * 11th largest sample. Below 40 samples no such tail exists, and the
    * largest sample is reported instead.
    */
  def tail(xs: Seq[Double]): Double = {
    val s = xs.sorted
    if (s.length >= 40) s(s.length - 11) else s.last
  }
}

/** Outcome of whole rounds of operations: every round runs each operation
  * of the pool once, in an order drawn from the run's seed.
  */
final class Phase {
  val latenciesMs = mutable.ArrayBuffer.empty[Double]
  var rounds = 0
  var wallNanos = 0L
  var opNanos = 0L
  var attempted = 0L
  var failed = 0L
  var okEmbeddings = 0L
  var allEmbeddings = 0L
  var replayMismatches = 0L
  val wrong = mutable.LinkedHashMap.empty[Op, mutable.ArrayBuffer[Long]]
}

object Main {

  val endToEnd: Seq[(String, String)] = Seq(
    "embeddings_per_s" -> "1/s", "queries_per_s" -> "1/s", "query_ms.p50" -> "ms",
    "query_ms.tail" -> "ms", "setup_s" -> "s", "index_mb" -> "MB")

  val perLayer: Seq[(String, String)] = Seq(
    "index.build_s" -> "s", "index.partitions" -> "count", "index.reported_mb" -> "MB",
    "plan.ms_per_query" -> "ms",
    "candgen.calls" -> "count", "candgen.candidates" -> "count", "candgen.self_s" -> "s",
    "validation.checked" -> "count", "validation.count_ok" -> "count", "validation.valid" -> "count",
    "validation.yield" -> "ratio", "validation.self_s" -> "s",
    "expand.calls" -> "count", "expand.emitted" -> "count", "expand.self_s" -> "s",
    "sink.calls" -> "count", "sink.self_s" -> "s",
    "sched.tasks" -> "count", "sched.busy_s" -> "s", "sched.idle_s" -> "s", "sched.steals" -> "count",
    "sched.stolen_tasks" -> "count", "sched.busy_imbalance" -> "ratio", "sched.peak_queue_kb" -> "KB",
    "jvm.gc_s" -> "s", "jvm.alloc_bytes_per_embedding" -> "B",
    "spark.df_build_s" -> "s", "spark.plan_ms" -> "ms", "spark.stages" -> "count", "spark.tasks" -> "count",
    "spark.shuffle_read_mb" -> "MB", "spark.shuffle_write_mb" -> "MB", "spark.executor_run_s" -> "s",
    "spark.executor_cpu_s" -> "s", "trace.overhead_pct" -> "%")

  def main(args: Array[String]): Unit = args.toList match {
    case "run" :: rest     => sys.exit(run(options(rest)))
    case "recount" :: path :: Nil => recount(path)
    case _ =>
      System.err.println("usage: run --workload W --seed N --seconds S --trace 0|1 --reference F --work-dir D\n" +
        "       recount REFERENCE_FILE")
      sys.exit(2)
  }

  private def options(args: List[String]): Map[String, String] = args match {
    case k :: v :: rest if k.startsWith("--") => options(rest) + (k.drop(2) -> v)
    case Nil => Map.empty
    case other => throw new IllegalArgumentException(s"bad arguments: ${other.mkString(" ")}")
  }

  def recount(path: String): Unit = {
    val refs = Workloads.recountAll(println)
    Workloads.write(Paths.get(path), refs)
    println(s"wrote ${refs.size} reference counts to $path")
    refs.groupBy(_.workload).toSeq.sortBy(_._1).foreach { case (w, rs) =>
      val ns = rs.map(_.embeddings)
      println(f"$w%-10s ${rs.size}%4d queries, embeddings ${ns.min}..${ns.max}, total ${ns.sum}")
    }
  }

  private def gcMillis: Long = ManagementFactory.getGarbageCollectorMXBeans.asScala.map(_.getCollectionTime).sum
  private def allocatedBytes: Long =
    ManagementFactory.getThreadMXBean.asInstanceOf[com.sun.management.ThreadMXBean].getTotalThreadAllocatedBytes

  /** Whole rounds until `seconds` have passed and at least `minRounds` ran. */
  private def loop(target: Target, rnd: Random, seconds: Double, trace: Option[Trace], minRounds: Int = 1): Phase = {
    val ph = new Phase
    val start = System.nanoTime()
    while (ph.rounds < minRounds || System.nanoTime() - start < seconds * 1e9) {
      for (op <- rnd.shuffle(target.ops)) {
        val t0 = System.nanoTime()
        val n =
          try target.run(op, trace)
          catch { case NonFatal(e) => println(s"ERROR ${op.id}: $e"); -1L }
        val dt = System.nanoTime() - t0
        ph.latenciesMs += dt / 1e6
        ph.opNanos += dt
        ph.attempted += 1
        ph.allEmbeddings += math.max(n, 0L)
        if (n == op.expected) ph.okEmbeddings += n
        else {
          ph.failed += 1
          ph.wrong.getOrElseUpdate(op, mutable.ArrayBuffer.empty) += n
        }
        for (tr <- trace; msg <- target.replay(op, n, tr)) {
          println(s"REPLAY-MISMATCH ${op.id}: $msg")
          ph.replayMismatches += 1
        }
      }
      ph.rounds += 1
    }
    ph.wallNanos = System.nanoTime() - start
    ph
  }

  private def num(x: Double): String =
    if (x.isNaN || x.isInfinite) "null"
    else if (x == math.rint(x) && math.abs(x) < 1e15) x.toLong.toString
    else x.toString

  def run(opt: Map[String, String]): Int = {
    val workload = opt.getOrElse("workload", "")
    if (!Workloads.names.contains(workload)) {
      System.err.println(s"unknown workload '$workload'; expected one of ${Workloads.names.mkString(", ")}")
      return 2
    }
    val seed = opt("seed").toLong
    val seconds = opt("seconds").toDouble
    val traced = opt.getOrElse("trace", "0") == "1"
    val workDir = opt("work-dir")
    val threads = Runtime.getRuntime.availableProcessors
    val refs = Workloads.read(Paths.get(opt("reference")))

    val target: Target = workload match {
      case Workloads.LocalMix => new LocalTarget(workload, Datasets.singleThreadNames, refs, threads = None)
      case Workloads.ArChain  => new LocalTarget(workload, Seq("AR"), refs, threads = Some(threads))
      case Workloads.SparkWt  => new SparkTarget(refs, threads, workDir)
    }
    try {
      val setup = target.setup
      println(f"hgbench $workload seed=$seed seconds=$seconds trace=${if (traced) 1 else 0} " +
        f"threads=$threads queries=${target.ops.size}")
      println("setup builds (s): " + setup.buildSeconds.map(s => f"$s%.3f").mkString(" ") +
        "; retained (MB): " + setup.retainedMb.map(m => f"$m%.2f").mkString(" "))
      val rnd = new Random(seed)
      loop(target, rnd, 0, None, minRounds = target.warmRounds) // not counted

      val gc0 = gcMillis; val alloc0 = allocatedBytes
      val plain = loop(target, rnd, seconds, None)
      val gcS = (gcMillis - gc0) / 1e3; val alloc = allocatedBytes - alloc0

      val tracedPhase = if (!traced) None else {
        val tr = new Trace
        target.beginTrace()
        val ph = loop(target, rnd, seconds, Some(tr))
        target.endTrace(tr)
        val file = Paths.get(workDir, "trace", s"$workload-seed$seed.jsonl")
        Files.createDirectories(file.getParent)
        Files.write(file, tr.spans.asJava, StandardCharsets.UTF_8)
        println(s"trace: ${tr.spans.size} spans written to $file")
        Some((ph, tr))
      }

      val phases = plain +: tracedPhase.map(_._1).toSeq
      for (ph <- phases; (op, counts) <- ph.wrong) {
        val fault = Workloads.knownFaults.get(op.id).fold("")(f => s"; known fault: $f")
        println(s"FAILED $workload ${op.id}: ${counts.size} of ${ph.rounds} operations reported " +
          s"${counts.distinct.sorted.mkString(", ")} embeddings, recount ${op.expected}$fault")
      }

      val metrics: Seq[(String, Double)] = tracedPhase match {
        case None =>
          val wall = plain.wallNanos / 1e9
          Seq(
            "embeddings_per_s" -> plain.okEmbeddings / wall,
            "queries_per_s" -> plain.attempted / wall,
            "query_ms.p50" -> Stats.median(plain.latenciesMs.toSeq),
            "query_ms.tail" -> Stats.tail(plain.latenciesMs.toSeq),
            "setup_s" -> setup.setupS,
            "index_mb" -> setup.indexMb)
        case Some((ph, tr)) =>
          val r = ph.rounds.toDouble
          val q = ph.attempted.toDouble
          val overhead = 100.0 * ((ph.opNanos / r) / (plain.opNanos / plain.rounds.toDouble) - 1)
          val layer = target.setupLayers.toMap ++ Map(
            "plan.ms_per_query" -> (if (tr.planCalls == 0) 0.0 else tr.planNanos / 1e6 / tr.planCalls),
            "candgen.calls" -> tr.candgenCalls / r,
            "candgen.candidates" -> tr.candidates / r,
            "candgen.self_s" -> tr.candgenNanos / 1e9 / r,
            "validation.checked" -> tr.checked / r,
            "validation.count_ok" -> tr.countOk / r,
            "validation.valid" -> tr.valid / r,
            "validation.yield" -> (if (tr.candidates == 0) 0.0 else tr.valid.toDouble / tr.candidates),
            "validation.self_s" -> tr.validationNanos / 1e9 / r,
            "expand.calls" -> tr.expandCalls / r,
            "expand.emitted" -> tr.emitted / r,
            "expand.self_s" -> (tr.expandNanos - tr.candgenNanos - tr.validationNanos) / 1e9 / r,
            "sink.calls" -> tr.sinkCalls / r,
            "sink.self_s" -> tr.sinkNanos / 1e9 / r,
            "sched.tasks" -> tr.schedTasks / r,
            "sched.busy_s" -> tr.schedBusy / 1e9 / r,
            "sched.idle_s" -> tr.schedIdle / 1e9 / r,
            "sched.steals" -> tr.steals / r,
            "sched.stolen_tasks" -> tr.stolen / r,
            "sched.busy_imbalance" -> (if (tr.imbalance.isEmpty) 0.0 else tr.imbalance.sum / tr.imbalance.size),
            "sched.peak_queue_kb" -> tr.peakQueueBytes / 1024.0,
            "jvm.gc_s" -> gcS / plain.rounds,
            "jvm.alloc_bytes_per_embedding" -> alloc.toDouble / math.max(1L, plain.allEmbeddings),
            "spark.plan_ms" -> tr.sparkPlanNanos / 1e6 / q,
            "spark.stages" -> tr.sparkStages / r,
            "spark.tasks" -> tr.sparkTasks / r,
            "spark.shuffle_read_mb" -> tr.sparkShuffleReadBytes / 1e6 / r,
            "spark.shuffle_write_mb" -> tr.sparkShuffleWriteBytes / 1e6 / r,
            "spark.executor_run_s" -> tr.sparkRunMillis / 1e3 / r,
            "spark.executor_cpu_s" -> tr.sparkCpuNanos / 1e9 / r,
            "trace.overhead_pct" -> overhead)
          perLayer.map { case (name, _) => name -> layer.getOrElse(name, 0.0) }
      }
      val units = (endToEnd ++ perLayer).toMap
      val attempted = phases.map(_.attempted).sum
      val failed = phases.map(_.failed).sum
      val correct = phases.forall(_.replayMismatches == 0)
      val body = metrics.map { case (k, v) => s"\"$k\": {\"value\": ${num(v)}, \"unit\": \"${units(k)}\"}" }
      println(s"""{"correct": $correct, "attempted": $attempted, "failed": $failed, "metrics": {${body.mkString(", ")}}}""")
      0
    } finally target.close()
  }
}
