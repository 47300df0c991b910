package repro.harness

import scala.collection.mutable
import repro.baseline._
import repro.core._
import repro.data._
import repro.engine._

/** Shared experiment harness: every evaluation table/experiment of the
  * paper is a function here returning printable rows, so the `jobs/`
  * entrypoints and the `bench/` suites run identical code. Workload scales
  * are reduced alongside the dataset analogues (see DESIGN.md); the
  * timeout plays the paper's 1-hour limit role and timed-out queries are
  * charged the full limit when averaging, as in Section VII-A.
  */
object Experiments {

  /** Default number of random queries per (dataset, setting); paper uses 20. */
  val defaultQueriesPerSetting: Int =
    sys.env.getOrElse("REPRO_QUERIES_PER_SETTING", "4").toInt

  /** Default per-query timeout for comparison experiments (paper: 1 h). */
  val defaultTimeoutMillis: Long =
    sys.env.getOrElse("REPRO_TIMEOUT_MILLIS", "1500").toLong

  private def fmtBytes(b: Long): String =
    if (b >= 1000_000) f"${b / 1e6}%.1fMB" else f"${b / 1e3}%.1fKB"

  // ------------------------------------------------------------------
  // Table II — dataset statistics
  // ------------------------------------------------------------------

  def tableII(names: Seq[String] = Datasets.names): Seq[String] = {
    val header = f"${"Dataset"}%-8s ${"|V|"}%10s ${"|E|"}%10s ${"|Sigma|"}%8s ${"a_max"}%7s ${"a_avg"}%7s ${"Index"}%10s"
    header +: names.map { n =>
      val s = Datasets.stats(n)
      f"${s.name}%-8s ${s.numVertices}%10d ${s.numEdges}%10d ${s.numLabels}%8d ${s.maxArity}%7d ${s.avgArity}%7.1f ${fmtBytes(s.indexBytes)}%10s"
    }
  }

  // ------------------------------------------------------------------
  // Table III — query settings + sampled-query statistics
  // ------------------------------------------------------------------

  def tableIII(): Seq[String] = {
    val header = f"${"Query"}%-6s ${"|E|"}%4s ${"|V|min"}%7s ${"|V|max"}%7s"
    header +: QuerySetting.all.map(s => f"${s.name}%-6s ${s.numEdges}%4d ${s.vMin}%7d ${s.vMax}%7d")
  }

  /** Verification rows: per dataset × setting, how many queries the sampler
    * produced and their vertex-count range.
    */
  def tableIIISampled(names: Seq[String], count: Int = defaultQueriesPerSetting): Seq[String] = {
    val header = f"${"Dataset"}%-8s ${"Setting"}%-8s ${"sampled"}%8s ${"|V|min"}%7s ${"|V|max"}%7s ${"|V|avg"}%7s"
    header +: (for {
      n <- names
      s <- QuerySetting.all
    } yield {
      val qs = QuerySampler.sample(Datasets.graph(n), s, count, seed = 1000L + n.hashCode % 97 + s.numEdges)
      if (qs.isEmpty) f"$n%-8s ${s.name}%-8s ${0}%8d ${"-"}%7s ${"-"}%7s ${"-"}%7s"
      else {
        val vs = qs.map(_.numVertices)
        f"$n%-8s ${s.name}%-8s ${qs.size}%8d ${vs.min}%7d ${vs.max}%7d ${vs.sum.toDouble / vs.size}%7.1f"
      }
    })
  }

  // ------------------------------------------------------------------
  // Exp-1 (Fig 7) — index build time and sizes
  // ------------------------------------------------------------------

  def exp1Index(names: Seq[String] = Datasets.names): Seq[String] = {
    val header = f"${"Dataset"}%-8s ${"build(ms)"}%10s ${"graph"}%10s ${"index"}%10s"
    header +: names.map { n =>
      val s = Datasets.stats(n)
      f"${s.name}%-8s ${s.buildMillis}%10.1f ${fmtBytes(s.storageBytes)}%10s ${fmtBytes(s.indexBytes)}%10s"
    }
  }

  // ------------------------------------------------------------------
  // Exp-2 (Fig 8) + Table IV — single-thread comparison & completion
  // ------------------------------------------------------------------

  final case class AlgoResult(millis: Double, completed: Boolean, embeddings: Long)

  /** Run every algorithm single-threaded on one query. `algos` defaults to
    * HGMatch + all four baselines.
    */
  def runAll(
      dataset: String,
      query: Hypergraph,
      timeoutMillis: Long,
      includeBaselines: Boolean = true,
  ): Map[String, AlgoResult] = {
    val tables = Datasets.tables(dataset)
    val g = Datasets.graph(dataset)
    val timeoutNanos = timeoutMillis * 1000_000L

    val out = mutable.LinkedHashMap.empty[String, AlgoResult]
    val p = Plan.generate(query, tables)
    val hg = SequentialEngine.run(tables, p, timeoutNanos = timeoutNanos)
    out("HGMatch") = AlgoResult(hg.elapsedNanos / 1e6, hg.completed, hg.embeddings)

    if (includeBaselines) {
      val dIdx = ihsIndex(dataset)
      Baselines.all.foreach { algo =>
        val r = Baselines.run(algo, query, g, dIdx, collectTuples = false, timeoutNanos = timeoutNanos)
        out(algo.name) = AlgoResult(r.elapsedNanos / 1e6, r.completed, r.vertexMappings)
      }
    }
    out.toMap
  }

  private val ihsCache = mutable.HashMap.empty[String, IHSIndex]
  def ihsIndex(dataset: String): IHSIndex = synchronized {
    ihsCache.getOrElseUpdate(dataset, new IHSIndex(Datasets.graph(dataset)))
  }

  final case class ComparisonResult(
      perQuery: Seq[(String, String, Int, String, AlgoResult)], // dataset, setting, queryIdx, algo, result
      avgMillis: Map[(String, String, String), Double],         // (dataset, setting, algo) → avg (timeouts charged fully)
      completion: Map[(String, String), (Int, Int)],            // (dataset, algo) → (completed, total)
  )

  /** The Exp-2/Table-IV sweep. */
  def comparison(
      names: Seq[String] = Datasets.singleThreadNames,
      settings: Seq[QuerySetting] = Seq(QuerySetting.q2, QuerySetting.q3),
      queriesPerSetting: Int = defaultQueriesPerSetting,
      timeoutMillis: Long = defaultTimeoutMillis,
  ): ComparisonResult = {
    val per = mutable.ArrayBuffer.empty[(String, String, Int, String, AlgoResult)]
    for (n <- names; s <- settings) {
      val qs = QuerySampler.sample(Datasets.graph(n), s, queriesPerSetting, seed = 2000L + n.hashCode % 89 + s.numEdges)
      qs.zipWithIndex.foreach { case (q, i) =>
        runAll(n, q, timeoutMillis).foreach { case (algo, r) => per += ((n, s.name, i, algo, r)) }
      }
    }
    val avg = per
      .groupBy { case (n, s, _, a, _) => (n, s, a) }
      .map { case (k, rs) =>
        k -> rs.map { case (_, _, _, _, r) => if (r.completed) r.millis else timeoutMillis.toDouble }.sum / rs.size
      }
    val completion = per
      .groupBy { case (n, _, _, a, _) => (n, a) }
      .map { case (k, rs) => k -> (rs.count { case (_, _, _, _, r) => r.completed }, rs.size) }
    ComparisonResult(per.toSeq, avg, completion)
  }

  def exp2Rows(c: ComparisonResult): Seq[String] = {
    val algos = Seq("HGMatch", "CFL-H", "DAF-H", "CECI-H", "RapidMatch")
    val keys = c.avgMillis.keys.map { case (n, s, _) => (n, s) }.toSeq.distinct.sorted
    val header = f"${"Dataset"}%-8s ${"Setting"}%-8s " + algos.map(a => f"$a%12s").mkString(" ") + "   (avg ms; timeouts charged)"
    header +: keys.map { case (n, s) =>
      f"$n%-8s $s%-8s " + algos.map { a =>
        c.avgMillis.get((n, s, a)).map(v => f"$v%12.1f").getOrElse(f"${"-"}%12s")
      }.mkString(" ")
    }
  }

  def tableIVRows(c: ComparisonResult): Seq[String] = {
    val algos = Seq("CFL-H", "DAF-H", "CECI-H", "RapidMatch", "HGMatch")
    val names = c.completion.keys.map(_._1).toSeq.distinct.sorted
    val header = f"${"Algorithm"}%-12s " + names.map(n => f"$n%6s").mkString(" ") + f" ${"Total"}%7s"
    header +: algos.map { a =>
      val cells = names.map { n =>
        c.completion.get((n, a)).map { case (done, tot) => f"${100.0 * done / tot}%5.0f%%" }.getOrElse("     -")
      }
      val (d, t) = names.flatMap(n => c.completion.get((n, a))).foldLeft((0, 0)) { case ((d0, t0), (d1, t1)) => (d0 + d1, t0 + t1) }
      f"$a%-12s " + cells.mkString(" ") + f" ${if (t > 0) f"${100.0 * d / t}%5.0f%%" else "     -"}%7s"
    }
  }

  // ------------------------------------------------------------------
  // Exp-3 (Fig 9) — candidate filtering power
  // ------------------------------------------------------------------

  def exp3Filtering(
      names: Seq[String] = Datasets.singleThreadNames,
      settings: Seq[QuerySetting] = Seq(QuerySetting.q2, QuerySetting.q3),
      queriesPerSetting: Int = defaultQueriesPerSetting,
      timeoutMillis: Long = defaultTimeoutMillis,
  ): Seq[String] = {
    val header = f"${"Dataset"}%-8s ${"Candidates"}%12s ${"Filtered"}%12s ${"Validated"}%12s ${"Embeddings"}%12s ${"filt.TP%"}%9s"
    header +: names.map { n =>
      val tables = Datasets.tables(n)
      var cand = 0L; var filt = 0L; var valid = 0L; var emb = 0L
      for (s <- settings) {
        val qs = QuerySampler.sample(Datasets.graph(n), s, queriesPerSetting, seed = 3000L + n.hashCode % 83 + s.numEdges)
        qs.foreach { q =>
          val r = SequentialEngine.run(tables, Plan.generate(q, tables), timeoutNanos = timeoutMillis * 1000_000L)
          val (c, f, v) = r.counters
          cand += c; filt += f; valid += v; emb += r.embeddings
        }
      }
      val tp = if (filt > 0) 100.0 * valid / filt else 100.0
      f"$n%-8s $cand%12d $filt%12d $valid%12d $emb%12d $tp%8.1f%%"
    }
  }

  // ------------------------------------------------------------------
  // Exp-4 (Fig 10) — thread scalability
  // ------------------------------------------------------------------

  /** Heavy q3-style workload pool: hyperedges restricted to frequent
    * signatures (the paper picks q3 queries "with a large number of
    * embeddings" for the parallel experiments), ranked by single-thread
    * cost, heaviest first.
    */
  def heavyQueries(dataset: String, numEdges: Int, pool: Int, seed: Long): Seq[(Hypergraph, Plan, Long, Long)] = {
    val tables = Datasets.tables(dataset)
    val g = Datasets.graph(dataset)
    def rank(qs: Seq[Hypergraph]): Seq[(Hypergraph, Plan, Long, Long)] = qs.map { q =>
      val p = Plan.generate(q, tables)
      val r = SequentialEngine.run(tables, p, timeoutNanos = 30_000_000_000L)
      (q, p, r.elapsedNanos, r.embeddings)
    }.sortBy(-_._4)
    val ranked = rank(QuerySampler.sampleChains(g, tables, numEdges, pool, seed))
    if (ranked.nonEmpty) ranked else rank(QuerySampler.sampleHeavy(g, tables, numEdges, pool, seed))
  }

  def exp4Scalability(
      dataset: String = "AR",
      threadCounts: Seq[Int] = Seq(1, 2, 4, 8, 16),
      numQueries: Int = 2,
      setting: QuerySetting = QuerySetting.q3,
  ): Seq[String] = {
    val tables = Datasets.tables(dataset)
    val timed = heavyQueries(dataset, setting.numEdges, pool = 16, seed = 4000L).take(numQueries)

    val header = f"${"Query"}%-8s ${"Embeddings"}%14s " + threadCounts.map(t => f"p=$t%-2d ms").map(s => f"$s%10s").mkString(" ") + "   speedup(p_max)"
    header +: timed.zipWithIndex.map { case ((_, p, _, emb), i) =>
      // JIT warmup before timing the sweep
      TaskEngine.run(tables, p, TaskEngineConfig(threadCounts.max))
      val times = threadCounts.map { t =>
        val r = TaskEngine.run(tables, p, TaskEngineConfig(t))
        r.outcome.elapsedNanos / 1e6
      }
      val speedup = times.head / times.last
      f"q3^${i + 1}%-5s $emb%14d " + times.map(t => f"$t%10.1f").mkString(" ") + f"   $speedup%.1fx"
    }
  }

  // ------------------------------------------------------------------
  // Exp-5 (Fig 11) — task scheduler vs BFS memory
  // ------------------------------------------------------------------

  def exp5Memory(
      dataset: String = "AR",
      numQueries: Int = 8,
      threads: Int = 8,
      setting: QuerySetting = QuerySetting.q3,
  ): Seq[String] = {
    val tables = Datasets.tables(dataset)
    val qs = heavyQueries(dataset, setting.numEdges, pool = numQueries * 2, seed = 5000L)
      .take(numQueries).map(_._1)
    val header = f"${"Query"}%-6s ${"Embeddings"}%14s ${"task peakB"}%12s ${"bfs peakB"}%12s ${"bound B"}%12s ${"bfs/task"}%9s"
    header +: qs.zipWithIndex.map { case (q, i) =>
      val p = Plan.generate(q, tables)
      val tr = TaskEngine.run(tables, p, TaskEngineConfig(threads))
      val br = BfsEngine.run(tables, p, threads = threads)
      // Theorem VI.1 bound: O(ā_q · |E(q)|² · |E(H)|) bytes (4B per id).
      val bound = (4.0 * q.avgArity * q.numEdges * q.numEdges * tables.graph.numEdges).toLong
      val ratio = if (tr.peakQueueBytes > 0) br.peakLevelBytes.toDouble / tr.peakQueueBytes else Double.NaN
      f"q3-$i%-4s ${tr.outcome.embeddings}%14d ${tr.peakQueueBytes}%12d ${br.peakLevelBytes}%12d $bound%12d $ratio%8.1fx"
    }
  }

  // ------------------------------------------------------------------
  // Exp-6 (Fig 12) — work stealing load balance
  // ------------------------------------------------------------------

  def exp6LoadBalance(
      dataset: String = "AR",
      threads: Int = 8,
      setting: QuerySetting = QuerySetting.q3,
  ): Seq[String] = {
    val heavy = heavyQueries(dataset, setting.numEdges, pool = 12, seed = 4000L)
    val tables = Datasets.tables(dataset)
    val p = heavy.head._2

    def describe(label: String, stealing: Boolean): Seq[String] = {
      TaskEngine.run(tables, p, TaskEngineConfig(threads, stealing = stealing)) // JIT warmup
      val r = TaskEngine.run(tables, p, TaskEngineConfig(threads, stealing = stealing))
      val busy = r.workers.map(_.busyNanos / 1e6).sorted
      val imbalance = if (busy.min > 0) busy.max / busy.min else Double.PositiveInfinity
      Seq(
        f"$label%-16s total=${r.outcome.elapsedNanos / 1e6}%.1fms steals=${r.workers.map(_.steals).sum}%d imbalance=${imbalance}%.2fx",
        f"$label%-16s worker busy ms (sorted): " + busy.map(b => f"$b%.0f").mkString(" "),
      )
    }
    describe("HGMatch", stealing = true) ++ describe("HGMatch-NOSTL", stealing = false)
  }
}
