package repro.spark

import repro.{SparkSpec, TestGraphs}
import repro.core._
import repro.engine.SequentialEngine

/** Edge cases of the Spark tier that random sampling may miss: the
  * non-adjacency exclusion path, empty intermediate frontiers, chain
  * queries, and heavier 4-edge queries.
  */
class SparkEdgeCasesSpec extends SparkSpec {

  private def crossCheck(data: Hypergraph, query: Hypergraph, tag: String): Unit = {
    val tb = HyperedgeTables.build(data)
    val hdf = HypergraphDF.build(spark, data)
    val local = SequentialEngine.run(tb, Plan.generate(query, tb)).embeddings
    val dist = HGMatchSpark.countEmbeddings(spark, hdf, query)
    assert(dist == local, s"$tag: local=$local spark=$dist")
  }

  test("chain query exercises the non-adjacency UDF path") {
    // chain3's 3rd edge is non-adjacent to the 1st: nonAdjPrevPos nonempty.
    val data = Hypergraph(
      Seq(0, 0, 0, 0, 0),
      Seq(Seq(0, 1), Seq(1, 2), Seq(2, 3), Seq(0, 4)),
    )
    val query = Hypergraph(Seq(0, 0, 0, 0), Seq(Seq(0, 1), Seq(1, 2), Seq(2, 3)))
    val plan = Plan.fromOrder(query, Array(0, 1, 2))
    assert(plan.steps(1).nonAdjPrevPos.nonEmpty) // precondition of the test
    crossCheck(data, query, "chain")
  }

  test("empty frontier mid-pipeline yields zero, not an error") {
    // first edge matches, second edge's signature exists but never adjacent
    val data = Hypergraph(Seq(0, 0, 1, 1), Seq(Seq(0, 1), Seq(2, 3)))
    val query = Hypergraph(Seq(0, 0, 1, 1), Seq(Seq(0, 1), Seq(1, 2, 3)))
    // query's 2nd edge has signature {0,1,1}; data has none — scan order
    // puts it first and short-circuits... force the other order:
    val hdf = HypergraphDF.build(spark, data)
    val p = Plan.fromOrder(query, Array(0, 1))
    assert(HGMatchSpark.collectTuples(hdf, p).isEmpty)
  }

  test("4-edge random-walk queries agree with the local engine") {
    for (seed <- Seq(31, 32)) {
      val data = TestGraphs.random(22, 30, 2, 3, seed)
      TestGraphs.sampleQuery(data, 4, seed * 5).foreach { query =>
        crossCheck(data, query, s"q4 seed=$seed")
      }
    }
  }

  test("triangle query (dense overlap) agrees with the local engine") {
    val data = Hypergraph(Seq(0, 0, 0, 0), Seq(Seq(0, 1), Seq(1, 2), Seq(0, 2), Seq(2, 3)))
    val query = Hypergraph(Seq(0, 0, 0), Seq(Seq(0, 1), Seq(1, 2), Seq(0, 2)))
    crossCheck(data, query, "triangle")
  }

  test("query with repeated-signature edges agrees (automorphism counting)") {
    val data = Hypergraph(Seq(0, 0, 0, 0, 0), Seq(Seq(0, 1), Seq(1, 2), Seq(2, 3), Seq(3, 4)))
    val query = QueryFixtures.chain3
    crossCheck(data, query, "path4")
  }

  test("knowledge-base case study queries agree distributed vs local") {
    val kb = repro.data.KnowledgeBase.generate(nPlayers = 30, multiTeam = 6, nActors = 20, recastPairs = 4)
    crossCheck(kb.graph, repro.data.KnowledgeBase.query1, "kb-q1")
    crossCheck(kb.graph, repro.data.KnowledgeBase.query2, "kb-q2")
  }
}
