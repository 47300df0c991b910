package repro.spark

import repro.{SparkSpec, TestGraphs}
import repro.core._
import repro.engine.{CollectingSink, SequentialEngine}

class HGMatchSparkSpec extends SparkSpec {

  private lazy val h = Hypergraph.fig1Data
  private lazy val hdf = HypergraphDF.build(spark, h)
  private lazy val q = Hypergraph.fig1Query

  /** Asserts that DuckDB counts `expected` embeddings of `query` in `data`. */
  private def assertDuckDb(data: Hypergraph, query: Hypergraph, expected: Long): Unit = {
    import spark.implicits._
    repro.Oracle.assertEquivalent(
      Seq(expected).toDF("embeddings"),
      MatchOracle.countSql(query),
      "verts" -> MatchOracle.vertsDf(spark, data),
      "edges" -> MatchOracle.edgesDf(spark, data),
    )
  }

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
    // Two disjoint {A,B} edges: DuckDB counts 2 embeddings on Fig 1.
    val query = Hypergraph(Seq(0, 1, 0, 1), Seq(Seq(0, 1), Seq(2, 3)))
    assertDuckDb(h, query, 2)
    assertThrows[IllegalArgumentException](HGMatchSpark.countEmbeddings(spark, hdf, query))
  }

  test("query vertex in no hyperedge is rejected, not answered with a wrong count") {
    // Vertex 2 (label 7) lies in no hyperedge and no data vertex has label 7:
    // DuckDB counts 0, while matching the one {A,B} edge alone would give 2.
    val query = Hypergraph(Seq(0, 1, 7), Seq(Seq(0, 1)))
    assertDuckDb(h, query, 0)
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

  test("SCAN slicing: one seed over more slices than seeds") {
    assume(spark.sparkContext.defaultParallelism > 1, "needs more slices than seeds")
    // Labels A = 0, B = 1. Only e0 = {v0, v1, v2} has signature {A,B,B}.
    val data = Hypergraph(Seq(0, 1, 1, 0, 1), Seq(Seq(0, 1, 2), Seq(1, 3), Seq(2, 3), Seq(3, 4), Seq(0, 4)))
    val query = Hypergraph(Seq(0, 1, 1, 0), Seq(Seq(0, 1, 2), Seq(1, 3)))
    val ddf = HypergraphDF.build(spark, data)
    val p = HGMatchSpark.plan(query, ddf)
    assert(ddf.tables.value.edgesOf(p.scanSignature).toSeq == Seq(0))
    assert(HGMatchSpark.countEmbeddings(spark, ddf, query) == 2)
    assert(HGMatchSpark.collectTuples(ddf, p).toSet == Set(Vector(0, 1), Vector(0, 2)))
    assertDuckDb(data, query, 2)
  }

  test("SCAN slicing: a first signature absent from the data gives 0 seeds and count 0") {
    // {B,B} comes first (Card 0 in Fig 1), then {A,B}.
    val query = Hypergraph(Seq(1, 1, 0), Seq(Seq(0, 1), Seq(1, 2)))
    val p = HGMatchSpark.plan(query, hdf)
    assert(p.scanSignature == Signature.of(Seq(1, 1)))
    assert(hdf.tables.value.edgesOf(p.scanSignature).isEmpty)
    assert(HGMatchSpark.countEmbeddings(spark, hdf, query) == 0)
    assert(HGMatchSpark.collectTuples(hdf, p).isEmpty)
    assertDuckDb(h, query, 0)
  }

  test("SCAN slicing: collectTuples returns each embedding exactly once") {
    val data = TestGraphs.random(25, 35, 2, 4, 2)
    val tb = HyperedgeTables.build(data)
    val ddf = HypergraphDF.build(spark, data)
    val query = TestGraphs.sampleQuery(data, 3, 6).get
    val p = HGMatchSpark.plan(query, ddf)
    assert(tb.edgesOf(p.scanSignature).length > spark.sparkContext.defaultParallelism) // several seeds a slice
    val tuples = HGMatchSpark.collectTuples(ddf, p)
    assert(tuples.nonEmpty && tuples.distinct.size == tuples.size)
    val local = new CollectingSink
    SequentialEngine.run(tb, p, local)
    assert(tuples.sortBy(_.mkString(",")) == local.results.sortBy(_.mkString(",")))
    assertDuckDb(data, query, tuples.size.toLong)
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
    assertDuckDb(h, q, HGMatchSpark.countEmbeddings(spark, hdf, q))
  }

  test("DuckDB oracle confirms counts on random graphs and queries") {
    for (seed <- Seq(11, 12, 13)) {
      val data = TestGraphs.random(18, 22, 3, 3, seed)
      val ddf = HypergraphDF.build(spark, data)
      TestGraphs.sampleQuery(data, 2, seed).foreach { query =>
        assertDuckDb(data, query, HGMatchSpark.countEmbeddings(spark, ddf, query))
      }
    }
  }
}
