package repro.core

import org.scalatest.funsuite.AnyFunSuite

class ValidationSpec extends AnyFunSuite {

  private val h = Hypergraph.fig1Data
  private val t = HyperedgeTables.build(h)
  private val q = Hypergraph.fig1Query
  private val plan = Plan.fromOrder(q, Array(0, 1, 2))

  /** The packed query-side profile of `u` after order position `pos`,
    * computed from the query rather than read from the plan.
    */
  private def queryKey(p: Plan, pos: Int, u: Int): Long =
    Profiles.key(p.query.labels(u), (0 to pos).filter(j => p.query.edges(p.order(j)).contains(u)))

  test("fig1: extending (e1) with e3 is valid") {
    assert(Reference.isValid(t, plan, Array(0), 2))
  }

  test("fig1: extending (e1) with e4 is invalid (no shared vertex)") {
    assert(!Reference.isValid(t, plan, Array(0), 3))
  }

  test("fig1: extending (e1,e3) with e5 completes a valid embedding") {
    assert(Reference.isValid(t, plan, Array(0, 2), 4))
  }

  test("fig1: extending (e1,e3) with e6 is invalid") {
    assert(!Reference.isValid(t, plan, Array(0, 2), 5))
  }

  test("vertex-count check (Obs V.5) rejects over-overlapping candidates") {
    // Query: two disjoint-except-u1 edges; data edges overlap on 2 verts.
    val query = Hypergraph(Seq(0, 0, 0), Seq(Seq(0, 1), Seq(1, 2)))
    val data = Hypergraph(Seq(0, 0), Seq(Seq(0, 1))) // single edge reused is rejected
    val tb = HyperedgeTables.build(data)
    val p = Plan.fromOrder(query, Array(0, 1))
    assert(!Reference.isValid(tb, p, Array(0), 0)) // duplicate edge
  }

  test("duplicate data hyperedge always rejected, fast path or not") {
    val query = Hypergraph(Seq(0, 0, 0), Seq(Seq(0, 1), Seq(1, 2)))
    val data = Hypergraph(Seq(0, 0, 0), Seq(Seq(0, 1), Seq(1, 2)))
    val tb = HyperedgeTables.build(data)
    val p = Plan.fromOrder(query, Array(0, 1))
    assert(Reference.isValid(tb, p, Array(0), 1))
    assert(!Reference.isValid(tb, p, Array(0), 0))
  }

  test("profile check rejects wrong overlap pattern despite right count") {
    // Query: path e0{0,1}, e1{1,2} — overlap on ONE vertex, 3 vertices.
    // Data: d0{0,1}, d1{2,3} disjoint — candidate d1 gives 4 vertices → V.5
    // rejects; d2{0,2} overlaps on the WRONG end vertex... with labels all
    // equal both overlaps look alike by count; distinguish by labels:
    val query = Hypergraph(Seq(0, 1, 0), Seq(Seq(0, 1), Seq(1, 2)))
    // data: d0 = {A,B} {0,1}; d1 = {B,C?}.. need sig {A,B} for e1 too:
    // e1 = {u1(B), u2(A)} sig {A,B}. Data candidate d1 = {2,3} labels A,B
    // overlapping d0 at nothing → count fails; d2 = {1,2} labels B,A
    // overlapping at v1 (B) → valid.
    val data = Hypergraph(Seq(0, 1, 0, 1), Seq(Seq(0, 1), Seq(2, 3), Seq(1, 2)))
    val tb = HyperedgeTables.build(data)
    val p = Plan.fromOrder(query, Array(0, 1))
    assert(!Reference.isValid(tb, p, Array(0), 1)) // disjoint
    assert(Reference.isValid(tb, p, Array(0), 2))  // overlap at B
  }

  test("profile check distinguishes which endpoint overlaps") {
    // Query path A-B then B-A sharing the B vertex. A data pair sharing the
    // A vertex has the right total count but wrong profiles.
    val query = Hypergraph(Seq(0, 1, 0), Seq(Seq(0, 1), Seq(1, 2)))
    val data = Hypergraph(Seq(0, 1, 1), Seq(Seq(0, 1), Seq(0, 2)))
    // d1 = {0,2} labels {A,B} — shares the A vertex with d0 instead of B.
    val tb = HyperedgeTables.build(data)
    val p = Plan.fromOrder(query, Array(0, 1))
    assert(!Reference.isValid(tb, p, Array(0), 1))
  }

  test("vertexCountOk and profilesOk are independently callable") {
    assert(Reference.vertexCountOk(t, plan, Array(0), 2))
    assert(Reference.profilesOk(t, plan, Array(0), 2))
    assert(!Reference.profilesOk(t, plan, Array(0), 3))
  }

  test("packed-key fast path agrees with the reference Algorithm 5") {
    import repro.TestGraphs
    for (seed <- 1 to 20) {
      val data = TestGraphs.random(18, 24, 2, 4, seed)
      val tb = HyperedgeTables.build(data)
      TestGraphs.sampleQuery(data, 3, seed * 3).foreach { query =>
        val p = Plan.generate(query, tb)
        // walk valid prefixes and compare both validation paths on every
        // candidate of every step
        var frontier = tb.edgesOf(p.scanSignature).map(e => Array(e)).toSeq
        p.steps.foreach { step =>
          val next = scala.collection.mutable.ArrayBuffer.empty[Array[Int]]
          frontier.foreach { emb =>
            val keys = new Array[Long](step.signature.arity)
            Reference.candidates(tb, step, emb).foreach { c =>
              val slow = Reference.isValid(tb, p, emb, c)
              val dup = emb.contains(c)
              val fresh = Validation.profileKeys(tb, step, emb, c, keys)
              val fast = !dup && Validation.freshCountOk(step, fresh) &&
                Validation.profileKeysOk(step, keys, step.signature.arity)
              assert(slow == fast, s"seed=$seed emb=${emb.toSeq} c=$c")
              if (slow) next += (emb :+ c)
            }
          }
          frontier = next.toSeq
        }
      }
    }
  }

  test("plan exposes consistent newVertexCount and packed keys") {
    assert(plan.steps(0).newVertexCount == 2) // u0, u1 join at step 1
    assert(plan.steps(1).newVertexCount == 1) // u3 joins at step 2
    plan.steps.foreach { s =>
      val keys = q.edges(s.queryEdge).toSeq.map(queryKey(plan, s.pos, _))
      assert(s.expectedProfileKeys.length == keys.length)
      assert(s.expectedProfileKeys.toSeq == s.expectedProfileKeys.toSeq.sorted)
      assert(s.expectedProfileKeys.toSet == keys.toSet)
    }
  }

  test("Example V.2 style: same counts, mismatched profile multisets") {
    // Query: e0{u0,u1}, e1{u1,u2}, e2{u0,u1,u2} (all label A).
    // Data:  d0{0,1},  d1{1,2},  d2{0,1,2} — valid triangle-ish.
    //        d3{0,2,3} — arity 3, but overlaps e-structure differently.
    val query = Hypergraph(Seq(0, 0, 0), Seq(Seq(0, 1), Seq(1, 2), Seq(0, 1, 2)))
    val data = Hypergraph(Seq(0, 0, 0, 0),
      Seq(Seq(0, 1), Seq(1, 2), Seq(0, 1, 2), Seq(0, 2, 3)))
    val tb = HyperedgeTables.build(data)
    val p = Plan.fromOrder(query, Array(0, 1, 2))
    assert(Reference.isValid(tb, p, Array(0, 1), 2))
    assert(!Reference.isValid(tb, p, Array(0, 1), 3))
  }

  /** Every candidate of the step's partition (not only Algorithm 4's),
    * checked by the reference `profilesOk`, the binary-search keys with
    * `profileKeysOk`, and the mask table's shared keys with `sharedKeysOk`.
    */
  private def assertSharedKeysAgree(tb: HyperedgeTables, p: Plan, emb: Array[Int], ctx: String): Unit = {
    val step = p.steps(emb.length - 1)
    val arity = step.signature.arity
    val keys = new Array[Long](arity)
    val masks = new VertexMasks
    masks.load(tb.graph, emb, step.pos)
    tb.edgesOf(step.signature).foreach { c =>
      val reference = Reference.profilesOk(tb, p, emb, c)
      val fresh = Validation.profileKeys(tb, step, emb, c, keys)
      assert(Validation.profileKeysOk(step, keys, arity) == reference, s"$ctx emb=${emb.toSeq} c=$c")
      assert(Validation.sharedProfileKeys(tb, step, masks, c, keys) == fresh, s"$ctx emb=${emb.toSeq} c=$c")
      assert(Validation.sharedKeysOk(step, keys, arity - fresh) == reference, s"$ctx emb=${emb.toSeq} c=$c")
    }
  }

  test("shared-key profile check agrees with the reference on high-arity, repeated-label graphs") {
    import repro.TestGraphs
    var checked = 0
    for (seed <- 1 to 24; labels <- Seq(1, 2)) {
      val data = TestGraphs.random(16, 26, labels, 8, seed)
      val tb = HyperedgeTables.build(data)
      TestGraphs.sampleQuery(data, 3, seed * 7 + labels).foreach { query =>
        val p = Plan.generate(query, tb)
        var frontier = tb.edgesOf(p.scanSignature).map(e => Array(e)).toSeq
        p.steps.foreach { step =>
          frontier.foreach(emb => assertSharedKeysAgree(tb, p, emb, s"seed=$seed labels=$labels"))
          checked += frontier.length
          frontier = frontier.flatMap(emb =>
            tb.edgesOf(step.signature).filter(c => Reference.isValid(tb, p, emb, c)).map(emb :+ _))
        }
      }
    }
    assert(checked > 50)
  }

  test("fresh count passes but the shared profiles differ") {
    // All labels A. Query e0{u0,u1}, e1{u1,u2}, e2{u0,u3}: e2 shares u0,
    // which lies in e0 only. Data d0{0,1}, d1{1,2}; d2{1,3} has one fresh
    // vertex like e2, but its shared vertex v1 lies in d0 and d1.
    val query = Hypergraph(Seq(0, 0, 0, 0), Seq(Seq(0, 1), Seq(1, 2), Seq(0, 3)))
    val data = Hypergraph(Seq(0, 0, 0, 0), Seq(Seq(0, 1), Seq(1, 2), Seq(1, 3), Seq(0, 3)))
    val tb = HyperedgeTables.build(data)
    val p = Plan.fromOrder(query, Array(0, 1, 2))
    val step = p.steps(1)
    val emb = Array(0, 1)
    val keys = new Array[Long](2)
    val fresh = Validation.profileKeys(tb, step, emb, 2, keys)
    assert(Validation.freshCountOk(step, fresh) && Reference.vertexCountOk(tb, p, emb, 2))
    assert(!Validation.profileKeysOk(step, keys, 2) && !Reference.profilesOk(tb, p, emb, 2))
    assertSharedKeysAgree(tb, p, emb, "positions")
    assert(Reference.isValid(tb, p, emb, 3)) // d3{0,3} shares v0, in d0 only
    // Same shape by label: the shared vertex carries the wrong label.
    val q2 = Hypergraph(Seq(0, 1, 0), Seq(Seq(0, 1), Seq(1, 2)))
    val d2 = Hypergraph(Seq(0, 1, 1), Seq(Seq(0, 1), Seq(0, 2)))
    val tb2 = HyperedgeTables.build(d2)
    val p2 = Plan.fromOrder(q2, Array(0, 1))
    val fresh2 = Validation.profileKeys(tb2, p2.steps(0), Array(0), 1, keys)
    assert(Validation.freshCountOk(p2.steps(0), fresh2))
    assert(!Validation.profileKeysOk(p2.steps(0), keys, 2))
    assertSharedKeysAgree(tb2, p2, Array(0), "labels")
  }

  test("expectedSharedKeys are the sorted expected keys of the shared vertices") {
    plan.steps.foreach { s =>
      val earlier = (0 until s.pos).flatMap(j => q.edges(plan.order(j))).toSet
      val shared = q.edges(s.queryEdge).toSeq.filter(earlier)
      assert(s.expectedSharedKeys.toSeq == shared.map(queryKey(plan, s.pos, _)).sorted)
      assert(s.expectedSharedKeys.length == s.signature.arity - s.newVertexCount)
    }
  }
}
