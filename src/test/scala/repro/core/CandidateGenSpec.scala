package repro.core

import org.scalatest.funsuite.AnyFunSuite
import repro.TestGraphs

class CandidateGenSpec extends AnyFunSuite {

  private val h = Hypergraph.fig1Data
  private val t = HyperedgeTables.build(h)
  private val q = Hypergraph.fig1Query
  private val plan = Plan.fromOrder(q, Array(0, 1, 2))

  test("Example V.1: candidates of e_q2 for m=(e1,e3) are exactly {e5}") {
    // paper ids e1,e3 are our ids 0,2; e5 is id 4
    val c = Reference.candidates(t, plan.steps(1), Array(0, 2))
    assert(c.toSeq == Seq(4))
  }

  test("candidates of e_q1 for m=(e1)") {
    val c = Reference.candidates(t, plan.steps(0), Array(0))
    assert(c.toSeq == Seq(2)) // only e3 contains v2 with signature {A,A,C}
  }

  test("second embedding path: m=(e2) then (e2,e4)") {
    assert(Reference.candidates(t, plan.steps(0), Array(1)).toSeq == Seq(3))
    assert(Reference.candidates(t, plan.steps(1), Array(1, 3)).toSeq == Seq(5))
  }

  test("candidates all carry the query hyperedge's signature (Obs V.1)") {
    for (seed <- 1 to 15) {
      val data = TestGraphs.random(20, 25, 2, 4, seed)
      val tb = HyperedgeTables.build(data)
      TestGraphs.sampleQuery(data, 3, seed * 7).foreach { query =>
        val p = Plan.generate(query, tb)
        tb.edgesOf(p.scanSignature).foreach { first =>
          val cands = Reference.candidates(tb, p.steps(0), Array(first))
          cands.foreach(c => assert(data.signature(c) == p.steps(0).signature))
        }
      }
    }
  }

  test("candidates are adjacent to the required previous edges (Obs V.2)") {
    for (seed <- 1 to 15) {
      val data = TestGraphs.random(20, 25, 2, 4, seed)
      val tb = HyperedgeTables.build(data)
      TestGraphs.sampleQuery(data, 3, seed * 11).foreach { query =>
        val p = Plan.generate(query, tb)
        val step = p.steps(0)
        tb.edgesOf(p.scanSignature).foreach { first =>
          Reference.candidates(tb, step, Array(first)).foreach { c =>
            // step 1 always has pairs referencing prevPos 0
            assert(data.edgesAdjacent(first, c) || c == first)
          }
        }
      }
    }
  }

  test("no candidates when the partition is empty") {
    val query = Hypergraph(Seq(0, 0, 1), Seq(Seq(0, 1), Seq(1, 2)))
    val data = Hypergraph(Seq(0, 0), Seq(Seq(0, 1))) // no {0,1}-label edge
    val tb = HyperedgeTables.build(data)
    val p = Plan.fromOrder(query, Array(0, 1))
    assert(Reference.candidates(tb, p.steps(0), Array(0)).isEmpty)
  }

  test("non-incident vertex exclusion (Obs V.3) prunes posting lists") {
    // Query chain e0{0,1} e1{1,2} e2{2,3}: e2 non-adjacent to e0. In the
    // data, v10 is matched by f(e0); an f(e2) candidate reached via a
    // vertex of f(e0) must not be generated through V_n_incdt members.
    val data = Hypergraph(
      Seq(0, 0, 0, 0, 0),
      Seq(Seq(0, 1), Seq(1, 2), Seq(2, 3), Seq(0, 4)),
    )
    val tb = HyperedgeTables.build(data)
    val p = Plan.fromOrder(QueryFixtures.chain3, Array(0, 1, 2))
    // m = (edge0 {0,1}, edge1 {1,2}); V_n_incdt = {0,1} (f(e0)); the only
    // pair vertex is v2 (label 0, degInM 1) → candidates from he(v2) =
    // {e1, e2}. e1 is a duplicate that validation rejects later; crucially
    // edge3 {0,4}, reachable only via the excluded v0, never appears.
    val c = Reference.candidates(tb, p.steps(1), Array(0, 1))
    assert(c.toSeq == Seq(1, 2))
  }

  test("degree filter (Obs V.4) excludes vertices with wrong partial degree") {
    // Triangle query q0{0,1} q1{1,2} q2{0,2} on a data triangle. When
    // matching q2, the shared vertices u0,u2 have partial degree 1 — the
    // data vertex v1 (partial degree 2) is excluded from V_incdt on both
    // pairs, leaving exactly the closing edge d2 = {0,2}.
    val data = Hypergraph(Seq(0, 0, 0), Seq(Seq(0, 1), Seq(1, 2), Seq(0, 2)))
    val tb = HyperedgeTables.build(data)
    val query = Hypergraph(Seq(0, 0, 0), Seq(Seq(0, 1), Seq(1, 2), Seq(0, 2)))
    val p = Plan.fromOrder(query, Array(0, 1, 2))
    val c = Reference.candidates(tb, p.steps(1), Array(0, 1))
    assert(c.toSeq == Seq(2))
  }

  test("empty pair set cannot happen for connected orders (sanity)") {
    for (seed <- 1 to 10) {
      val data = TestGraphs.random(15, 20, 2, 3, seed)
      val tb = HyperedgeTables.build(data)
      TestGraphs.sampleQuery(data, 4, seed * 13).foreach { query =>
        val p = Plan.generate(query, tb)
        p.steps.foreach(s => assert(s.pairs.nonEmpty))
      }
    }
  }
}
