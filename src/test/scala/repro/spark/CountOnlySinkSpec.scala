package repro.spark

import repro.{SparkSpec, TestGraphs}
import repro.core._
import repro.engine._

/** The fused count-only SINK against the emitting path: every engine that
  * fuses (sequential, task, Spark) must count what the collecting run
  * builds, and both must match the DuckDB oracle.
  */
class CountOnlySinkSpec extends SparkSpec {

  test("counting and collecting sinks agree on every engine and with the DuckDB oracle") {
    import spark.implicits._
    for (seed <- Seq(31, 32, 33, 34); k <- Seq(2, 3)) {
      val data = TestGraphs.random(14, 20, 3, 3, seed)
      val tb = HyperedgeTables.build(data)
      val ddf = HypergraphDF.build(spark, data)
      TestGraphs.sampleQuery(data, k, seed * 3 + k).foreach { query =>
        val plan = Plan.generate(query, tb)
        val ctx = s"seed=$seed k=$k"
        val collected = new CollectingSink
        SequentialEngine.run(tb, plan, collected)
        val expected = collected.count
        assert(collected.results.distinct.size == expected, ctx)
        assert(SequentialEngine.run(tb, plan, new CountingSink).embeddings == expected, ctx)
        for (p <- Seq(1, 4)) {
          assert(TaskEngine.run(tb, plan, TaskEngineConfig(p), new CountingSink).outcome.embeddings == expected, s"$ctx p=$p")
          val tuples = new CollectingSink
          TaskEngine.run(tb, plan, TaskEngineConfig(p), tuples)
          assert(tuples.results.toSet == collected.results.toSet, s"$ctx p=$p")
        }
        assert(HGMatchSpark.countEmbeddings(spark, ddf, query) == expected, ctx)
        assert(HGMatchSpark.collectTuples(ddf, plan).toSet == collected.results.toSet, ctx)
        repro.Oracle.assertEquivalent(
          Seq(expected).toDF("embeddings"),
          MatchOracle.countSql(query),
          "verts" -> MatchOracle.vertsDf(spark, data),
          "edges" -> MatchOracle.edgesDf(spark, data),
        )
      }
    }
  }
}
