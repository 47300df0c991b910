package hgbench

import java.lang.management.ManagementFactory
import org.apache.spark.sql.SparkSession
import repro.core._
import repro.data.Datasets
import repro.engine._
import repro.spark.{HGMatchSpark, HypergraphDF}

/** One query operation of a workload: the query and its recount. */
final case class Op(query: PoolQuery, expected: Long) {
  def id: String = query.id
}

/** What a workload builds before it is timed, measured over `reps`
  * repetitions: the median build time and the median retained size.
  */
final case class Setup(buildSeconds: Seq[Double], retainedMb: Seq[Double]) {
  def setupS: Double = Stats.median(buildSeconds)
  def indexMb: Double = Stats.median(retainedMb)
}

/** The system under test for one workload. */
trait Target {
  def ops: IndexedSeq[Op]
  def setup: Setup
  /** Extra per-layer metrics of the set-up (index or DataFrame build). */
  def setupLayers: Seq[(String, Double)]
  /** Rounds of warm-up run before timing; the same work on every commit. */
  def warmRounds: Int
  /** Run one operation and return the embedding count it reports. */
  def run(op: Op, trace: Option[Trace]): Long
  /** A traced re-run of the operation's EXPAND layer, if the target has one,
    * after a traced `run` that reported `engineCount`. Not part of the
    * operation's latency. Returns how the replay disagrees with the
    * recount or the engine, if it does.
    */
  def replay(op: Op, engineCount: Long, trace: Trace): Seq[String] = Nil
  def beginTrace(): Unit = ()
  def endTrace(trace: Trace): Unit = ()
  def close(): Unit = ()
}

object Heap {
  private val mem = ManagementFactory.getMemoryMXBean

  /** Live heap bytes after a full collection. */
  def live(): Long = {
    System.gc(); System.gc()
    mem.getHeapMemoryUsage.getUsed
  }

  /** Build `reps` times; per build, the wall time and the heap the result
    * retains (live heap with it held, minus live heap without it).
    */
  def measure[A <: AnyRef](reps: Int)(build: => A): (A, Setup) = {
    var kept: A = null.asInstanceOf[A]
    val secs = Seq.newBuilder[Double]
    val mbs = Seq.newBuilder[Double]
    for (_ <- 0 until reps) {
      kept = null.asInstanceOf[A]
      val before = live()
      val t0 = System.nanoTime()
      kept = build
      secs += (System.nanoTime() - t0) / 1e9
      mbs += (live() - before) / 1e6
    }
    (kept, Setup(secs.result(), mbs.result()))
  }
}

/** The local engines on indexed data hypergraphs: `SequentialEngine` for
  * local-mix, `TaskEngine` with `threads` workers and stealing for ar-chain.
  */
final class LocalTarget(workload: String, datasets: Seq[String], refs: Seq[Reference],
                        threads: Option[Int]) extends Target {

  private val graphs = datasets.map { d =>
    val g = Datasets.graph(d)
    g.signatures; g.incidence // part of the generated hypergraph, not of the index
    d -> g
  }.toMap

  private val (tables, built) =
    Heap.measure(reps = 9)(datasets.map(d => d -> HyperedgeTables.build(graphs(d))).toMap)

  def setup: Setup = built

  val ops: IndexedSeq[Op] = {
    val candidates =
      if (workload == Workloads.ArChain) Workloads.chainCandidates(tables("AR"))
      else datasets.flatMap(Workloads.localCandidates)
    Workloads.pool(workload, refs, candidates).map { case (q, n) => Op(q, n) }
  }

  def setupLayers: Seq[(String, Double)] = Seq(
    "index.build_s" -> built.setupS,
    "index.partitions" -> tables.valuesIterator.map(_.partitions.size).sum.toDouble,
    "index.reported_mb" -> tables.valuesIterator.map(t => t.indexBytes + t.storageBytes).sum / 1e6,
  )

  // About three seconds of rounds on a 4-core machine.
  val warmRounds: Int = if (threads.isEmpty) 6 else 4

  def run(op: Op, trace: Option[Trace]): Long = {
    val t = tables(op.query.dataset)
    trace match {
      case None =>
        val plan = Plan.generate(op.query.query, t)
        threads match {
          case None    => SequentialEngine.run(t, plan).embeddings
          case Some(p) => TaskEngine.run(t, plan, TaskEngineConfig(p)).outcome.embeddings
        }
      case Some(tr) =>
        val t0 = System.nanoTime()
        val plan = Plan.generate(op.query.query, t)
        val t1 = System.nanoTime()
        val sink = new TracingSink
        val outcome = threads match {
          case None => SequentialEngine.run(t, plan, sink)
          case Some(p) =>
            val r = TaskEngine.run(t, plan, TaskEngineConfig(p), sink)
            val busy = r.workers.map(_.busyNanos)
            tr.schedTasks += r.workers.map(_.tasks).sum
            tr.schedBusy += busy.sum
            tr.schedIdle += p * r.outcome.elapsedNanos - busy.sum
            tr.steals += r.workers.map(_.steals).sum
            tr.stolen += r.workers.map(_.stolenTasks).sum
            tr.peakQueueBytes = math.max(tr.peakQueueBytes, r.peakQueueBytes)
            if (busy.sum > 0) tr.imbalance += busy.max.toDouble * p / busy.sum
            r.outcome
        }
        val t2 = System.nanoTime()
        val n = outcome.embeddings
        lastCounters = outcome.counters
        tr.candidates += outcome.counters._1; tr.countOk += outcome.counters._2; tr.valid += outcome.counters._3
        tr.planCalls += 1; tr.planNanos += t1 - t0
        tr.sinkCalls += sink.calls.sum(); tr.sinkNanos += sink.nanos.sum()
        tr.span("query", op.id, "engine", t0, t2, "embeddings" -> n)
        tr.span("query", op.id, "core/Plan.generate", t0, t1)
        tr.span("query", op.id, "engine/Sink.consume", t1, t2, "calls" -> sink.calls.sum(), "self_ns" -> sink.nanos.sum())
        n
    }
  }

  /** (candidates, count checks passed, valid) of the last traced run. */
  private var lastCounters = (0L, 0L, 0L)

  override def replay(op: Op, engineCount: Long, tr: Trace): Seq[String] = {
    val t = tables(op.query.dataset)
    val before = (tr.candgenNanos, tr.validationNanos, tr.expandNanos)
    val t0 = System.nanoTime()
    val r = Replay.run(t, Plan.generate(op.query.query, t), tr)
    tr.span("replay", op.id, "engine/Expander.expand", t0, System.nanoTime(),
      "embeddings" -> r.embeddings,
      "candgen_ns" -> (tr.candgenNanos - before._1),
      "validation_ns" -> (tr.validationNanos - before._2),
      "expand_ns" -> (tr.expandNanos - before._3))
    // A wrong engine count already fails the operation; its counters are
    // then not comparable with the replay's.
    val engineOk = engineCount == op.expected
    def show(c: (Long, Long, Long)) = s"${c._1} candidates, ${c._2} count-ok, ${c._3} valid"
    Seq(
      Option.when(r.probes != r.expander)(s"probes counted ${show(r.probes)}, the replay's Expander ${show(r.expander)}"),
      Option.when(engineOk && r.embeddings != op.expected)(
        s"replay ${r.embeddings} embeddings, engine and recount ${op.expected}"),
      Option.when(engineOk && r.probes != lastCounters)(
        s"replay counted ${show(r.probes)}, engine ${show(lastCounters)}"),
    ).flatten
  }
}

/** The Spark tier: `HGMatchSpark.countEmbeddings` on a local session with
  * `threads` cores over the WT analogue.
  */
final class SparkTarget(refs: Seq[Reference], threads: Int, workDir: String) extends Target {

  val spark: SparkSession = SparkSession.builder()
    .master(s"local[$threads]")
    .appName("hgbench")
    .config("spark.ui.enabled", "false")
    .config("spark.driver.host", "127.0.0.1")
    .config("spark.local.dir", s"$workDir/spark-local")
    .config("spark.sql.warehouse.dir", s"$workDir/spark-warehouse")
    // Spark's default join planning: WT's index tables are below the
    // broadcast threshold, so the joins broadcast them. Two shuffle
    // partitions per core instead of the default 200.
    .config("spark.sql.shuffle.partitions", (2 * threads).toString)
    .getOrCreate()
  spark.sparkContext.setLogLevel("ERROR")

  private val graph = Datasets.graph("WT")
  graph.signatures; graph.incidence

  /** Built five times; the set-up is the median build, and the index size
    * is the memory of the cached DataFrames, as Spark's storage reports it.
    */
  private val (hdf, built) = {
    var h: HypergraphDF = null
    val secs = Seq.newBuilder[Double]
    val mbs = Seq.newBuilder[Double]
    for (_ <- 0 until 5) {
      if (h != null) Seq(h.vertices, h.edges, h.inverted).foreach(_.unpersist(blocking = true))
      val t0 = System.nanoTime()
      h = HypergraphDF.build(spark, graph)
      Seq(h.vertices, h.edges, h.inverted).foreach(_.count()) // materialise the caches
      secs += (System.nanoTime() - t0) / 1e9
      mbs += spark.sparkContext.getRDDStorageInfo.map(_.memSize).sum / 1e6
    }
    (h, Setup(secs.result(), mbs.result()))
  }

  def setup: Setup = built

  val ops: IndexedSeq[Op] =
    Workloads.pool(Workloads.SparkWt, refs, Workloads.sparkCandidates).map { case (q, n) => Op(q, n) }

  def setupLayers: Seq[(String, Double)] = Seq("spark.df_build_s" -> built.setupS)

  // Query latency falls over the first three rounds (from ~11 s to ~5 s a
  // round on a 4-core machine) as Spark's generated code and the JIT warm up.
  val warmRounds: Int = 3

  def run(op: Op, trace: Option[Trace]): Long = trace match {
    case None => HGMatchSpark.countEmbeddings(spark, hdf, op.query.query)
    case Some(tr) =>
      val t0 = System.nanoTime()
      HGMatchSpark.plan(op.query.query, hdf)
      val t1 = System.nanoTime()
      val n = HGMatchSpark.countEmbeddings(spark, hdf, op.query.query)
      val t2 = System.nanoTime()
      tr.sparkPlanNanos += t1 - t0
      tr.span("query", op.id, "spark/HGMatchSpark.plan", t0, t1)
      tr.span("query", op.id, "spark/HGMatchSpark.countEmbeddings", t1, t2, "embeddings" -> n)
      n
  }

  private val group = "hgbench-traced"
  private val listener = new SparkStats(group)

  override def beginTrace(): Unit = {
    spark.sparkContext.addSparkListener(listener)
    spark.sparkContext.setJobGroup(group, "traced phase", interruptOnCancel = false)
  }

  /** Waits until the listener has seen the end of every traced job. */
  override def endTrace(tr: Trace): Unit = {
    val sc = spark.sparkContext
    sc.clearJobGroup()
    val jobs = sc.statusTracker.getJobIdsForGroup(group).length
    val deadline = System.nanoTime() + 30_000_000_000L
    while (listener.jobsEnded < jobs && System.nanoTime() < deadline) Thread.sleep(20)
    sc.removeSparkListener(listener)
    tr.sparkStages = listener.stages; tr.sparkTasks = listener.tasks
    tr.sparkShuffleReadBytes = listener.shuffleReadBytes
    tr.sparkShuffleWriteBytes = listener.shuffleWriteBytes
    tr.sparkRunMillis = listener.runMillis; tr.sparkCpuNanos = listener.cpuNanos
  }

  override def close(): Unit = spark.stop()
}
