package repro.core

import org.scalatest.funsuite.AnyFunSuite

class PlanSpec extends AnyFunSuite {

  private val h = Hypergraph.fig1Data
  private val t = HyperedgeTables.build(h)
  private val q = Hypergraph.fig1Query

  // Fix the paper's order φ = (e_q0 {u2,u4}, e_q1 {u0,u1,u2}, e_q2 {u0,u1,u3,u4}).
  private val plan = Plan.fromOrder(q, Array(0, 1, 2))

  test("plan has one step per non-scan hyperedge") {
    assert(plan.steps.length == 2)
    assert(plan.scanSignature == Signature.of(Seq(0, 1)))
  }

  test("step 1 pairs: e_q1 shares u2 with e_q0") {
    val s = plan.steps(0)
    assert(s.queryEdge == 1)
    // u2 has label A(0) and degree 1 in the partial query {e_q0}
    assert(s.pairs.toSeq == Seq(PairSpec(prevPos = 0, label = 0, degInPartial = 1)))
    assert(s.nonAdjPrevPos.isEmpty)
  }

  test("step 2 pairs: e_q2 shares u0,u1 with e_q1 and u4 with e_q0") {
    val s = plan.steps(1)
    assert(s.queryEdge == 2)
    val expected = Set(
      PairSpec(0, 1, 1), // u4: label B, in e_q0 only
      PairSpec(1, 0, 1), // u0: label A, in e_q1 only
      PairSpec(1, 2, 1), // u1: label C, in e_q1 only
    )
    assert(s.pairs.toSet == expected)
    assert(s.nonAdjPrevPos.isEmpty)
  }

  test("expected vertex counts accumulate |V(q')|") {
    // |V(q')| after each step: |e_q0| plus the vertices each step adds.
    val counts = plan.steps.toSeq.scanLeft(q.edges(plan.order(0)).length)(_ + _.newVertexCount).tail
    assert(counts == Seq(4, 5)) // u0,u1,u2,u4 then u3
  }

  test("expected profiles of step 1 (vertices of e_q1 over positions 0..1)") {
    val s = plan.steps(0)
    // u0:(A,{1}) u1:(C,{1}) u2:(A,{0,1})
    assert(s.expectedProfileKeys.toSeq ==
      Seq(Profiles.key(0, Seq(1)), Profiles.key(2, Seq(1)), Profiles.key(0, Seq(0, 1))).sorted)
  }

  test("expected profiles of step 2") {
    val s = plan.steps(1)
    // u0:(A,{1,2}) u1:(C,{1,2}) u3:(A,{2}) u4:(B,{0,2})
    assert(s.expectedProfileKeys.toSeq == Seq(
      Profiles.key(0, Seq(1, 2)), Profiles.key(2, Seq(1, 2)),
      Profiles.key(0, Seq(2)), Profiles.key(1, Seq(0, 2))).sorted)
  }

  test("non-adjacent previous edges are recorded") {
    // Query: e0 {0,1}, e1 {1,2}, e2 {2,3} — e2 is non-adjacent to e0.
    val query = QueryFixtures.chain3
    val p = Plan.fromOrder(query, Array(0, 1, 2))
    assert(p.steps(1).nonAdjPrevPos.toSeq == Seq(0))
  }

  test("degInPartial counts only earlier edges") {
    // u1 sits in e0 and e1; when matching e2 = {1,3} after (e0, e1) its
    // partial degree is 2.
    val query = Hypergraph(Seq(0, 0, 0, 0), Seq(Seq(0, 1), Seq(1, 2), Seq(1, 3)))
    val p = Plan.fromOrder(query, Array(0, 1, 2))
    val pairsForU1 = p.steps(1).pairs.filter(_.degInPartial == 2)
    assert(pairsForU1.nonEmpty) // u1 contributes pairs from both prior edges
    assert(p.steps(1).pairs.toSet ==
      Set(PairSpec(0, 0, 2), PairSpec(1, 0, 2))) // u1 via e0 and via e1
  }

  test("fromOrder rejects non-permutations") {
    assertThrows[IllegalArgumentException] {
      Plan.fromOrder(q, Array(0, 0, 2))
    }
  }

  test("disconnected queries are rejected by generate and fromOrder") {
    // Two disjoint {A,B} edges: no Algorithm-4 pair links the second one.
    val query = Hypergraph(Seq(0, 1, 0, 1), Seq(Seq(0, 1), Seq(2, 3)))
    assertThrows[IllegalArgumentException](Plan.generate(query, t))
    assertThrows[IllegalArgumentException](Plan.fromOrder(query, Array(1, 0)))
  }

  test("queries with a vertex in no hyperedge are rejected by generate and fromOrder") {
    // Vertex 2 is in no hyperedge, so no embedding of the {A,B} edge maps it.
    val query = Hypergraph(Seq(0, 1, 7), Seq(Seq(0, 1)))
    assertThrows[IllegalArgumentException](Plan.generate(query, t))
    assertThrows[IllegalArgumentException](Plan.fromOrder(query, Array(0)))
  }

  test("fromOrder rejects an order with a disconnected prefix") {
    // chain3 is connected, but e2 shares no vertex with e0.
    assertThrows[IllegalArgumentException](Plan.fromOrder(QueryFixtures.chain3, Array(0, 2, 1)))
  }

  test("generate uses the matching order") {
    val p = Plan.generate(q, t)
    assert(p.order.toSeq == MatchingOrder.compute(q, t).toSeq)
  }

  test("profile ordering is total and canonical") {
    // The profile multiset is the sorted key array, so renumbering the
    // query's vertices (u -> 4 - u) leaves every step's keys unchanged.
    val renumbered = Hypergraph(q.labels.toSeq.reverse, q.edges.toSeq.map(_.toSeq.map(4 - _)))
    val p = Plan.fromOrder(renumbered, Array(0, 1, 2))
    plan.steps.zip(p.steps).foreach { case (a, b) =>
      assert(a.expectedProfileKeys.toSeq == a.expectedProfileKeys.toSeq.sorted)
      assert(a.expectedProfileKeys.toSeq == b.expectedProfileKeys.toSeq)
    }
  }
}
