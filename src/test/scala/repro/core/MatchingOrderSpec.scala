package repro.core

import org.scalatest.funsuite.AnyFunSuite
import repro.TestGraphs

class MatchingOrderSpec extends AnyFunSuite {

  private val h = Hypergraph.fig1Data
  private val t = HyperedgeTables.build(h)
  private val q = Hypergraph.fig1Query

  test("order is a permutation of E(q)") {
    val o = MatchingOrder.compute(q, t)
    assert(o.sorted.toSeq == (0 until q.numEdges))
  }

  test("fig1: all cardinalities tie at 2, so order starts at edge 0") {
    val o = MatchingOrder.compute(q, t)
    assert(o(0) == 0)
  }

  test("every prefix of the order is connected") {
    for (seed <- 1 to 20) {
      val data = TestGraphs.random(25, 30, 3, 4, seed)
      val tb = HyperedgeTables.build(data)
      TestGraphs.sampleQuery(data, 4, seed * 31).foreach { query =>
        val o = MatchingOrder.compute(query, tb)
        for (i <- 1 until o.length) {
          assert(o.take(i).exists(prev => query.edgesAdjacent(prev, o(i))),
            s"prefix $i of ${o.toSeq} disconnected for seed $seed")
        }
      }
    }
  }

  test("starting hyperedge minimises cardinality") {
    // Craft data where one query signature is rare.
    val data = Hypergraph(
      Seq(0, 0, 1, 1, 1, 0, 0),
      Seq(Seq(0, 2), Seq(1, 3), Seq(5, 4), Seq(0, 1), Seq(0, 5), Seq(5, 6), Seq(2, 3, 0)),
    )
    val tb = HyperedgeTables.build(data)
    // query: one {0,1}-edge (card 3) and one {0,0,1}-edge (card 1) sharing a vertex
    val query = Hypergraph(Seq(0, 1, 0), Seq(Seq(0, 1), Seq(0, 1, 2)))
    val o = MatchingOrder.compute(query, tb)
    assert(o(0) == 1) // the rare signature goes first
  }

  test("connectivity outweighs raw cardinality via Card/|shared| score") {
    // Chain query e0-e1-e2; after e0, e1 shares a vertex so must precede e2
    // even if e2 were cheaper, because e2 shares nothing yet.
    val data = Hypergraph(
      Seq(0, 0, 0, 0),
      Seq(Seq(0, 1), Seq(1, 2), Seq(2, 3)),
    )
    val tb = HyperedgeTables.build(data)
    val query = QueryFixtures.chain3
    val o = MatchingOrder.compute(query, tb)
    for (i <- 1 until o.length)
      assert(o.take(i).exists(prev => query.edgesAdjacent(prev, o(i))))
  }

  test("single-edge query") {
    val query = Hypergraph(Seq(0, 1), Seq(Seq(0, 1)))
    assert(MatchingOrder.compute(query, t).toSeq == Seq(0))
  }
}

/** Small shared query shapes. */
object QueryFixtures {
  /** A 3-edge chain over 4 vertices, all label 0. */
  val chain3: Hypergraph =
    Hypergraph(Seq(0, 0, 0, 0), Seq(Seq(0, 1), Seq(1, 2), Seq(2, 3)))
}
