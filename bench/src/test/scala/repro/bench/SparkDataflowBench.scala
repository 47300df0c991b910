package repro.bench

import repro.SparkSpec
import repro.core.Plan
import repro.data.{Datasets, QuerySampler, QuerySetting}
import repro.engine.SequentialEngine
import repro.spark.{HGMatchSpark, HypergraphDF}

/** The distributed tier at bench scale on the WT analogue, cross-checked
  * against the local engine: SCAN is a Spark DataFrame stage, and each of
  * its partitions runs EXPAND* → SINK as one sequential LIFO run over the
  * broadcast tables. Spark's per-job overhead dominates at this scale (the
  * paper's engine is in-process); the point is that the per-partition runs
  * compute the same embeddings distributed across executor cores.
  */
class SparkDataflowBench extends SparkSpec {

  test("Spark dataflow matches local engine on WT queries") {
    BenchSweep.banner("SPARK DATAFLOW — per-partition Spark tasks vs local engine (WT)")
    val g = Datasets.graph("WT")
    val tables = Datasets.tables("WT")
    val hdf = HypergraphDF.build(spark, g)
    hdf.edges.count() // materialise caches before timing

    val queries =
      QuerySampler.sample(g, QuerySetting.q2, 2, seed = 61L) ++
        QuerySampler.sample(g, QuerySetting.q3, 2, seed = 62L)

    println(f"${"query"}%-8s ${"embeddings"}%12s ${"local ms"}%10s ${"spark ms"}%10s")
    queries.zipWithIndex.foreach { case (q, i) =>
      val p = Plan.generate(q, tables)
      val t0 = System.nanoTime()
      val local = SequentialEngine.run(tables, p).embeddings
      val tLocal = (System.nanoTime() - t0) / 1e6
      val t1 = System.nanoTime()
      val dist = HGMatchSpark.countEmbeddings(spark, hdf, q)
      val tSpark = (System.nanoTime() - t1) / 1e6
      println(f"q-$i%-6d $local%12d $tLocal%10.1f $tSpark%10.1f")
      assert(dist == local, s"query $i: spark=$dist local=$local")
    }
  }
}
