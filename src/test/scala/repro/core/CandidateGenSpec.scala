package repro.core

import org.scalatest.funsuite.AnyFunSuite
import repro.TestGraphs

class CandidateGenSpec extends AnyFunSuite {

  private val h = Hypergraph.fig1Data
  private val t = HyperedgeTables.build(h)
  private val q = Hypergraph.fig1Query
  private val plan = Plan.fromOrder(q, Array(0, 1, 2))

  /** The hot path's candidates, sorted, once they are checked to be
    * distinct and equal to the oracle's ([[Reference.candidates]]).
    */
  private def checked(tb: HyperedgeTables, step: ExpandStep, emb: Array[Int],
                      s: CandidateGen.Scratch = new CandidateGen.Scratch): Seq[Int] = {
    CandidateGen.candidatesInto(tb, step, emb, s)
    val got = s.a.take(s.na).toSeq
    val where = s"step ${step.pos} pairs ${step.pairs.mkString(",")} emb ${emb.mkString(",")}"
    assert(got.distinct.length == got.length, s"duplicates at $where")
    assert(got.sorted == Reference.candidates(tb, step, emb).toSeq, where)
    got.sorted
  }

  /** Checks every step of `plan` on each prefix reached depth-first from the
    * scan edges through valid extensions, up to `limit` calls, all with
    * one scratch. Returns the calls made, those at steps with two or more
    * pairs, and the most candidates one call produced.
    */
  private def walk(tb: HyperedgeTables, plan: Plan, s: CandidateGen.Scratch,
                   limit: Int = 3000): (Int, Int, Int) = {
    var calls, multi, most = 0
    def go(emb: Array[Int]): Unit = if (emb.length < plan.numEdges && calls < limit) {
      val step = plan.steps(emb.length - 1)
      val c = checked(tb, step, emb, s)
      calls += 1
      if (step.pairs.length >= 2) multi += 1
      most = math.max(most, c.length)
      c.filter(Reference.isValid(tb, plan, emb, _)).foreach(x => go(emb :+ x))
    }
    tb.edgesOf(plan.scanSignature).foreach(e => go(Array(e)))
    (calls, multi, most)
  }

  /** Random q2–q4 workloads on small 2-label graphs; each entry is a
    * graph's tables and the plans of its sampled queries.
    */
  private def workloads(seeds: Range, nv: Int, ne: Int): Seq[(HyperedgeTables, Seq[Plan])] =
    seeds.map { seed =>
      val tb = HyperedgeTables.build(TestGraphs.random(nv, ne, 2, 4, seed))
      tb -> (2 to 4).flatMap(k => TestGraphs.sampleQuery(tb.graph, k, seed * 31 + k)).map(Plan.generate(_, tb))
    }

  /** A hub vertex 0 (label 0) in ~400 hyperedges {0, i, j} over label-1
    * vertices 1–240, plus random edges that also reach vertices 241–299
    * of random labels: a pair through the hub reads ~400 postings.
    */
  private val hub = {
    val rnd = new scala.util.Random(5)
    val spokes = Seq.fill(400)(Seq(0, 1 + rnd.nextInt(120), 121 + rnd.nextInt(120)))
    val extra = Seq.fill(200)(Seq.fill(2 + rnd.nextInt(2))(1 + rnd.nextInt(299)).distinct).filter(_.size >= 2)
    val labels = 0 +: (Seq.fill(240)(1) ++ Seq.fill(59)(rnd.nextInt(2)))
    HyperedgeTables.build(Hypergraph(labels, spokes ++ extra))
  }

  test("Example V.1: candidates of e_q2 for m=(e1,e3) are exactly {e5}") {
    // paper ids e1,e3 are our ids 0,2; e5 is id 4
    assert(checked(t, plan.steps(1), Array(0, 2)) == Seq(4))
  }

  test("candidates of e_q1 for m=(e1)") {
    assert(checked(t, plan.steps(0), Array(0)) == Seq(2)) // only e3 contains v2 with signature {A,A,C}
  }

  test("second embedding path: m=(e2) then (e2,e4)") {
    assert(checked(t, plan.steps(0), Array(1)) == Seq(3))
    assert(checked(t, plan.steps(1), Array(1, 3)) == Seq(5))
  }

  test("candidates all carry the query hyperedge's signature (Obs V.1)") {
    for (seed <- 1 to 15) {
      val data = TestGraphs.random(20, 25, 2, 4, seed)
      val tb = HyperedgeTables.build(data)
      TestGraphs.sampleQuery(data, 3, seed * 7).foreach { query =>
        val p = Plan.generate(query, tb)
        tb.edgesOf(p.scanSignature).foreach { first =>
          val cands = checked(tb, p.steps(0), Array(first))
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
          checked(tb, step, Array(first)).foreach { c =>
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
    assert(checked(tb, p.steps(0), Array(0)).isEmpty)
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
    assert(checked(tb, p.steps(1), Array(0, 1)) == Seq(1, 2))
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
    assert(checked(tb, p.steps(1), Array(0, 1)) == Seq(2))
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

  test("property: candidates are distinct and equal the oracle on random q2-q4 workloads") {
    val s = new CandidateGen.Scratch
    var calls, multi = 0
    for ((tb, plans) <- workloads(1 to 80, 20, 40); p <- plans) {
      val (c, m, _) = walk(tb, p, s)
      calls += c; multi += m
    }
    assert(calls > 1000, s"calls=$calls")
    assert(multi > 100, s"multi=$multi") // steps with two or more distinct pairs
  }

  test("property: a pair that reads more than 256 postings") {
    assert(Reference.incident(hub, 0, hub.graph.signature(0)).length > 380)
    val s = new CandidateGen.Scratch
    var most, multi = 0
    for (k <- 2 to 4; seed <- 1 to 6; q <- TestGraphs.sampleQuery(hub.graph, k, seed)) {
      val (_, m, top) = walk(hub, Plan.generate(q, hub), s, limit = 400)
      most = math.max(most, top); multi += m
    }
    assert(most > 256, s"most=$most") // so that call's pair 0 read more than 256 postings
    assert(multi > 0)
  }

  test("property: one scratch across graphs with more, then fewer edges, in both orders") {
    val small = workloads(1 to 3, 20, 30)
    val big = Seq(hub -> (2 to 3).flatMap(k => TestGraphs.sampleQuery(hub.graph, k, k)).map(Plan.generate(_, hub)))
    for (order <- Seq(small ++ big ++ small, big ++ small ++ big)) {
      val s = new CandidateGen.Scratch
      for ((tb, plans) <- order; p <- plans) walk(tb, p, s, limit = 400)
    }
  }

  test("property: the epoch restarts before it passes Int.MaxValue") {
    for (below <- Seq(1, 2, 3, 7)) {
      val s = new CandidateGen.Scratch
      s.epoch = Int.MaxValue - below
      var multi = 0
      for ((tb, plans) <- workloads(1 to 10, 20, 40); p <- plans) multi += walk(tb, p, s, limit = 200)._2
      assert(multi > 0 && s.epoch > 0 && s.epoch < 1000000, s"below=$below epoch=${s.epoch}") // restarted
    }
  }
}
