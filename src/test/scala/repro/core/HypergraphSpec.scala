package repro.core

import org.scalatest.funsuite.AnyFunSuite

class HypergraphSpec extends AnyFunSuite {

  private val h = Hypergraph.fig1Data
  private val q = Hypergraph.fig1Query

  test("fig1 data has the paper's dimensions") {
    assert(h.numVertices == 10)
    assert(h.numEdges == 6)
    assert(h.numLabels == 3)
    assert(h.maxArity == 4)
  }

  test("fig1 query has the paper's dimensions") {
    assert(q.numVertices == 5)
    assert(q.numEdges == 3)
    assert(q.edges(0).toSeq == Seq(2, 4))
    assert(q.edges(1).toSeq == Seq(0, 1, 2))
    assert(q.edges(2).toSeq == Seq(0, 1, 3, 4))
  }

  test("edge vertex arrays are sorted and distinct") {
    val g = Hypergraph(Seq(0, 0, 0), Seq(Seq(2, 0, 1, 0)))
    assert(g.edges(0).toSeq == Seq(0, 1, 2))
  }

  test("repeated hyperedges are removed (paper preprocessing)") {
    val g = Hypergraph(Seq(0, 1, 0), Seq(Seq(0, 1), Seq(1, 0), Seq(0, 2)))
    assert(g.numEdges == 2)
  }

  test("empty hyperedges are dropped") {
    val g = Hypergraph(Seq(0, 1), Seq(Seq(0, 1), Seq()))
    assert(g.numEdges == 1)
  }

  test("arity and average/max arity") {
    assert(h.arity(0) == 2)
    assert(h.arity(4) == 4)
    assert(h.avgArity === (2 + 2 + 3 + 3 + 4 + 4) / 6.0)
    assert(h.maxArity == 4)
  }

  test("incidence lists he(v)") {
    assert(h.incidence(2).toSeq == Seq(0, 2)) // v2 in e1, e3
    assert(h.incidence(4).toSeq == Seq(0, 4)) // v4 in e1, e5
    assert(h.incidence(0).toSeq == Seq(2, 4)) // v0 in e3, e5
  }

  test("degree d(v) = |he(v)|") {
    assert(h.degree(2) == 2)
    assert(h.degree(3) == 1)
  }

  test("adjacent vertices") {
    assert(h.adjacentVertices(2).toSeq == Seq(0, 1, 4))
    assert(q.adjacentVertices(2).toSeq == Seq(0, 1, 4))
  }

  test("adjacent edges") {
    assert(h.adjacentEdges(0).toSeq == Seq(2, 4)) // e1 shares v2 with e3, v4 with e5
    assert(h.adjacentEdges(2).toSeq == Seq(0, 4))
  }

  test("edgesAdjacent is symmetric and matches adjacency lists") {
    for (e1 <- 0 until h.numEdges; e2 <- 0 until h.numEdges if e1 != e2) {
      assert(h.edgesAdjacent(e1, e2) == h.edgesAdjacent(e2, e1))
      assert(h.edgesAdjacent(e1, e2) == h.adjacentEdges(e1).contains(e2))
    }
  }

  test("fig1 graphs are connected") {
    assert(q.isConnected)
    // the data graph has two components (one per embedding)
    assert(!h.isConnected)
  }

  test("single-edge hypergraph is connected") {
    assert(Hypergraph(Seq(0, 0), Seq(Seq(0, 1))).isConnected)
  }

  test("totalIncidence") {
    assert(h.totalIncidence == 18)
  }

  test("label names resolve") {
    assert(h.labelNames.map(_(0)).contains("A"))
    assert(h.labelNames.map(_(2)).contains("C"))
  }

  test("signatures array is consistent with Signature.of") {
    for (e <- 0 until h.numEdges) assert(h.signature(e) == Signature.of(h, e))
  }

  test("edge referencing unknown vertex is rejected") {
    assertThrows[IllegalArgumentException] {
      Hypergraph(Seq(0), Seq(Seq(0, 1)))
    }
  }
}
