package repro.spark

import repro.{SparkSpec, TestGraphs}
import repro.core._
import repro.engine.SequentialEngine

class HGMatchSparkSpec extends SparkSpec {

  private lazy val h = Hypergraph.fig1Data
  private lazy val hdf = HypergraphDF.build(spark, h)
  private lazy val q = Hypergraph.fig1Query

  test("fig1: the distributed dataflow finds the two embeddings") {
    val p = Plan.fromOrder(q, Array(0, 1, 2))
    val tuples = HGMatchSpark.collectTuples(hdf, p)
    assert(tuples.toSet == Set(Vector(0, 2, 4), Vector(1, 3, 5)))
  }

  test("fig1: every matching order gives the same count") {
    for (order <- Seq(Array(0, 1, 2), Array(1, 0, 2), Array(2, 1, 0))) {
      val p = Plan.fromOrder(q, order)
      assert(HGMatchSpark.collectTuples(hdf, p).size == 2, order.toSeq.toString)
    }
  }

  test("countEmbeddings plans from DataFrame cardinalities") {
    assert(HGMatchSpark.countEmbeddings(spark, hdf, q) == 2)
  }

  test("unmatchable signature short-circuits to zero") {
    val query = Hypergraph(Seq(1, 1), Seq(Seq(0, 1)))
    assert(HGMatchSpark.countEmbeddings(spark, hdf, query) == 0)
  }

  test("disconnected query is rejected, not answered with a wrong count") {
    import spark.implicits._
    // Two disjoint {A,B} edges: DuckDB counts 2 embeddings on Fig 1.
    val query = Hypergraph(Seq(0, 1, 0, 1), Seq(Seq(0, 1), Seq(2, 3)))
    repro.Oracle.assertEquivalent(
      Seq(2L).toDF("embeddings"),
      MatchOracle.countSql(query),
      "verts" -> MatchOracle.vertsDf(spark, h),
      "edges" -> MatchOracle.edgesDf(spark, h),
    )
    assertThrows[IllegalArgumentException](HGMatchSpark.countEmbeddings(spark, hdf, query))
  }

  test("query vertex in no hyperedge is rejected, not answered with a wrong count") {
    import spark.implicits._
    // Vertex 2 (label 7) lies in no hyperedge and no data vertex has label 7:
    // DuckDB counts 0, while matching the one {A,B} edge alone would give 2.
    val query = Hypergraph(Seq(0, 1, 7), Seq(Seq(0, 1)))
    repro.Oracle.assertEquivalent(
      Seq(0L).toDF("embeddings"),
      MatchOracle.countSql(query),
      "verts" -> MatchOracle.vertsDf(spark, h),
      "edges" -> MatchOracle.edgesDf(spark, h),
    )
    assertThrows[IllegalArgumentException](HGMatchSpark.countEmbeddings(spark, hdf, query))
  }

  test("single-hyperedge query is a pure SCAN") {
    val query = Hypergraph(Seq(0, 1), Seq(Seq(0, 1)))
    assert(HGMatchSpark.countEmbeddings(spark, hdf, query) == 2)
  }

  test("agrees with the local engine on random workloads") {
    for (seed <- Seq(1, 2, 3, 4, 5)) {
      val data = TestGraphs.random(25, 35, 2, 4, seed)
      val tb = HyperedgeTables.build(data)
      val ddf = HypergraphDF.build(spark, data)
      TestGraphs.sampleQuery(data, 3, seed * 3).foreach { query =>
        val local = SequentialEngine.run(tb, Plan.generate(query, tb)).embeddings
        val dist = HGMatchSpark.countEmbeddings(spark, ddf, query)
        assert(dist == local, s"seed=$seed local=$local spark=$dist")
      }
    }
  }

  test("operator chain is SCAN → EXPAND* → SINK (Section VI-A)") {
    val p = Plan.fromOrder(q, Array(0, 1, 2))
    val chain = repro.engine.Operator.chain(p)
    assert(chain.head == repro.engine.Operator.Scan(p.scanSignature))
    assert(chain.last == repro.engine.Operator.SinkOp)
    assert(chain.count {
      case repro.engine.Operator.Expand(_) => true
      case _ => false
    } == 2)
  }

  test("DuckDB oracle confirms the fig1 count") {
    import spark.implicits._
    val cnt = HGMatchSpark.countEmbeddings(spark, hdf, q)
    repro.Oracle.assertEquivalent(
      Seq(cnt).toDF("embeddings"),
      MatchOracle.countSql(q),
      "verts" -> MatchOracle.vertsDf(spark, h),
      "edges" -> MatchOracle.edgesDf(spark, h),
    )
  }

  test("DuckDB oracle confirms counts on random graphs and queries") {
    import spark.implicits._
    for (seed <- Seq(11, 12, 13)) {
      val data = TestGraphs.random(18, 22, 3, 3, seed)
      val ddf = HypergraphDF.build(spark, data)
      TestGraphs.sampleQuery(data, 2, seed).foreach { query =>
        val cnt = HGMatchSpark.countEmbeddings(spark, ddf, query)
        repro.Oracle.assertEquivalent(
          Seq(cnt).toDF("embeddings"),
          MatchOracle.countSql(query),
          "verts" -> MatchOracle.vertsDf(spark, data),
          "edges" -> MatchOracle.edgesDf(spark, data),
        )
      }
    }
  }
}
