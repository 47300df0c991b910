package repro.core

import repro.{SparkSpec, TestGraphs}
import repro.engine.SequentialEngine

class MatchOracleSpec extends SparkSpec {

  private lazy val h = Hypergraph.fig1Data
  private lazy val q = Hypergraph.fig1Query

  test("generated SQL references every query vertex and edge") {
    val sql = MatchOracle.countSql(q)
    (0 until q.numVertices).foreach(i => assert(sql.contains(s"verts v$i")))
    (0 until q.numEdges).foreach(j => assert(sql.contains(s"edges e$j")))
  }

  test("side tables have the right shapes") {
    assert(MatchOracle.vertsDf(spark, h).count() == h.numVertices)
    assert(MatchOracle.edgesDf(spark, h).count() == h.numEdges)
    val vset = MatchOracle.edgesDf(spark, h).where("eid = 4").select("vset").head().getString(0)
    assert(vset == "0,1,3,4")
  }

  test("oracle agrees with the local engine on fig1") {
    import spark.implicits._
    val t = HyperedgeTables.build(h)
    val cnt = SequentialEngine.run(t, Plan.generate(q, t)).embeddings
    repro.Oracle.assertEquivalent(
      Seq(cnt).toDF("embeddings"),
      MatchOracle.countSql(q),
      "verts" -> MatchOracle.vertsDf(spark, h),
      "edges" -> MatchOracle.edgesDf(spark, h),
    )
  }

  test("regression: a pair gathering more than 256 postings keeps them all") {
    import spark.implicits._
    // Data: {A,A} edge {a1=0, a2=1}; a1 and a2 each lie in 200 {A,B}
    // edges with fresh B vertices. Query: e1={u1:A,u2:A}, e2={u2:A,u3:B}.
    // Matching e2 gathers he(a1) ∪ he(a2) — 400 postings for one pair —
    // so the gather buffer must grow without dropping the first 200.
    val fan = 200
    val labels = Seq(0, 0) ++ Seq.fill(2 * fan)(1)
    val edges = Seq(Seq(0, 1)) ++ (0 until 2 * fan).map(i => Seq(i / fan, 2 + i))
    val data = Hypergraph(labels, edges)
    val query = Hypergraph(Seq(0, 0, 1), Seq(Seq(0, 1), Seq(1, 2)))
    val t = HyperedgeTables.build(data)
    val p = Plan.generate(query, t)
    assert(p.order.toSeq == Seq(0, 1)) // precondition: the rare {A,A} edge is scanned
    val cnt = SequentialEngine.run(t, p).embeddings
    assert(cnt == 2 * fan)
    repro.Oracle.assertEquivalent(
      Seq(cnt).toDF("embeddings"),
      MatchOracle.countSql(query),
      "verts" -> MatchOracle.vertsDf(spark, data),
      "edges" -> MatchOracle.edgesDf(spark, data),
    )
  }

  test("oracle catches a wrong count (negative control)") {
    import spark.implicits._
    val bad = intercept[IllegalArgumentException] {
      repro.Oracle.assertEquivalent(
        Seq(999L).toDF("embeddings"),
        MatchOracle.countSql(q),
        "verts" -> MatchOracle.vertsDf(spark, h),
        "edges" -> MatchOracle.edgesDf(spark, h),
      )
    }
    assert(bad.getMessage.contains("result mismatch"))
  }

  test("oracle agrees with the local engine on random 2-edge queries") {
    import spark.implicits._
    for (seed <- Seq(21, 22, 23, 24)) {
      val data = TestGraphs.random(16, 20, 3, 3, seed)
      val t = HyperedgeTables.build(data)
      TestGraphs.sampleQuery(data, 2, seed * 3).foreach { query =>
        val cnt = SequentialEngine.run(t, Plan.generate(query, t)).embeddings
        repro.Oracle.assertEquivalent(
          Seq(cnt).toDF("embeddings"),
          MatchOracle.countSql(query),
          "verts" -> MatchOracle.vertsDf(spark, data),
          "edges" -> MatchOracle.edgesDf(spark, data),
        )
      }
    }
  }

  test("oracle counts distinct hyperedge tuples (automorphism semantics)") {
    import spark.implicits._
    // single {A,A} query edge on a single {A,A} data edge: 2 vertex
    // mappings but ONE tuple — oracle must say 1.
    val query = Hypergraph(Seq(0, 0), Seq(Seq(0, 1)))
    val data = Hypergraph(Seq(0, 0), Seq(Seq(0, 1)))
    repro.Oracle.assertEquivalent(
      Seq(1L).toDF("embeddings"),
      MatchOracle.countSql(query),
      "verts" -> MatchOracle.vertsDf(spark, data),
      "edges" -> MatchOracle.edgesDf(spark, data),
    )
  }
}
