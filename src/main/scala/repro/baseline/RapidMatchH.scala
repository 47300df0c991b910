package repro.baseline

import scala.collection.mutable
import repro.core.{Hypergraph, SetOps}

/** RapidMatch-H: the conversion-based baseline of Section VII-A — both
  * query and data hypergraphs are converted to bipartite graphs (Fig 2) and
  * conventional subgraph matching runs on the inflated graphs. RapidMatch
  * itself is join-based; here the matcher is a label/degree-filtered
  * backtracking enumerator over the bipartite graph, which exercises the
  * same inflation cost the paper attributes to conversion (DESIGN.md).
  *
  * Counting: a complete node mapping fixes an injective vertex mapping and
  * the hyperedge images, so raw mapping counts equal [[MatchByVertex]]'s;
  * hyperedge-tuple dedup gives HGMatch's semantics.
  */
object RapidMatchH {

  def run(
      query: Hypergraph,
      data: Hypergraph,
      collectTuples: Boolean = false,
      timeoutNanos: Long = Long.MaxValue,
  ): BacktrackOutcome = {
    val t0 = System.nanoTime()
    val deadline = if (timeoutNanos == Long.MaxValue) Long.MaxValue else t0 + timeoutNanos

    val interner = new LabelInterner(math.max(query.numLabels, data.labels.max + 1))
    val dg = BipartiteGraph.fromHypergraph(data, interner)
    val qg = BipartiteGraph.fromHypergraph(query, interner)

    // Candidates by label + degree (non-induced subgraph matching filter).
    val candSets: Array[Array[Int]] = Array.tabulate(qg.numNodes) { u =>
      dg.byLabel.getOrElse(qg.labels(u), Array.emptyIntArray).filter(v => dg.degree(v) >= qg.degree(u))
    }

    // Greedy connected order, min candidates first.
    val order = Orders.greedyConnected(qg.adj, u => (candSets(u).length.toLong, u.toLong))
    val posOf = new Array[Int](qg.numNodes)
    order.zipWithIndex.foreach { case (u, i) => posOf(u) = i }

    // For each position, previously matched neighbours to intersect with.
    val backNeighbors: Array[Array[Int]] =
      order.indices.map(i => qg.adj(order(i)).filter(posOf(_) < i)).toArray

    val f = Array.fill(qg.numNodes)(-1)
    val used = new Array[Boolean](dg.numNodes)
    var mappings = 0L
    val tuples = if (collectTuples) mutable.HashSet.empty[Vector[Int]] else null
    var steps = 0L
    var timedOut = false

    def enumerate(i: Int): Unit = {
      if (timedOut) return
      if (i == order.length) {
        mappings += 1
        if (tuples != null)
          tuples += qg.hyperedgeNode.map(n => dg.hyperedgeOfNode(f(n))).toVector
        return
      }
      val u = order(i)
      // Intersect the static candidates with the adjacency of every
      // already-matched neighbour (preserves all query edges).
      var cands = candSets(u)
      val back = backNeighbors(i)
      var k = 0
      while (k < back.length && cands.length > 0) {
        cands = SetOps.intersect(cands, dg.adj(f(back(k))))
        k += 1
      }
      var ci = 0
      while (ci < cands.length && !timedOut) {
        val v = cands(ci)
        steps += 1
        if ((steps & 0xfff) == 0 && System.nanoTime() > deadline) timedOut = true
        if (!timedOut && !used(v)) {
          f(u) = v; used(v) = true
          enumerate(i + 1)
          f(u) = -1; used(v) = false
        }
        ci += 1
      }
    }

    enumerate(0)
    BacktrackOutcome(
      mappings,
      if (tuples != null) tuples.size.toLong else -1L,
      !timedOut,
      System.nanoTime() - t0,
    )
  }
}
