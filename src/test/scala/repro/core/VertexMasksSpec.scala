package repro.core

import scala.util.Random
import org.scalatest.funsuite.AnyFunSuite
import repro.engine._

class VertexMasksSpec extends AnyFunSuite {

  /** Position masks of `emb`'s vertices by binary search, for comparison. */
  private def expected(g: Hypergraph, emb: Array[Int], v: Int): Long =
    emb.indices.foldLeft(0L)((m, j) => if (SetOps.contains(g.edges(emb(j)), v)) m | (1L << j) else m)

  test("load gives each prefix vertex its position mask and every other vertex 0") {
    val g = Hypergraph.fig1Data
    val masks = new VertexMasks
    masks.load(g, Array(0, 2, 4), 3)
    (0 until g.numVertices).foreach(v => assert(masks.get(v) == expected(g, Array(0, 2, 4), v), s"v=$v"))
    masks.load(g, Array(1, 3), 1) // only position 0 of the prefix is loaded
    (0 until g.numVertices).foreach(v => assert(masks.get(v) == expected(g, Array(1), v), s"v=$v"))
  }

  test("a 500-vertex prefix gets every mask, and reloading leaves none stale") {
    val rnd = new Random(7)
    val nv = 500
    val g = Hypergraph(Seq.fill(nv)(0), Seq.fill(12)(Seq.fill(60)(rnd.nextInt(nv)).distinct))
    val masks = new VertexMasks
    val emb = (0 until 12).toArray
    masks.load(g, emb, 12)
    assert(masks.size == emb.flatMap(g.edges(_)).distinct.length)
    (0 until nv).foreach(v => assert(masks.get(v) == expected(g, emb, v), s"v=$v"))
    // A smaller prefix afterwards leaves no stale entry behind.
    masks.load(g, Array(5), 1)
    assert(masks.size == g.edges(5).length)
    (0 until nv).foreach(v => assert(masks.get(v) == expected(g, Array(5), v), s"v=$v"))
    // So does a prefix of a smaller graph, on the vertices both graphs have.
    val small = Hypergraph.fig1Data
    masks.load(small, Array(4), 1)
    (0 until small.numVertices).foreach(v => assert(masks.get(v) == expected(small, Array(4), v), s"v=$v"))
  }

  test("engines count a prefix of 70 vertices") {
    // Arity-40 edges {k, …, k+39} over alternating labels, chained by
    // 10-vertex overlaps: the last step's prefix holds 70 vertices.
    val labels = (0 until 100).map(_ % 2)
    def run(k: Int) = k until k + 40
    val query = Hypergraph(labels, Seq(run(0), run(30), run(60)))
    val data = Hypergraph(labels, (0 to 60).map(run))
    val t = HyperedgeTables.build(data)
    val plan = Plan.generate(query, t)
    val s = new CandidateGen.Scratch
    CandidateGen.candidatesInto(t, plan.steps(1), Array(0, 30), s)
    assert(s.masks.size == 70)

    val expectedCount = Reference.count(t, plan)
    assert(expectedCount == 2) // (0, 30, 60) forwards and backwards
    assert(SequentialEngine.run(t, plan, new CollectingSink).embeddings == expectedCount)
    assert(SequentialEngine.run(t, plan, new CountingSink).embeddings == expectedCount)
    for (p <- Seq(1, 4))
      assert(TaskEngine.run(t, plan, TaskEngineConfig(p)).outcome.embeddings == expectedCount, s"p=$p")
    assert(BfsEngine.run(t, plan).outcome.embeddings == expectedCount)
  }
}
