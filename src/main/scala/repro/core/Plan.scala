package repro.core

import scala.collection.mutable

/** One (adjacent previous hyperedge, shared query vertex) pair of Algorithm 4
  * lines 3–5: when expanding, the candidates contributed by this pair are
  * the union over V_incdt ⊆ f(order[prevPos]) of he(v, S(e_q)), where
  * V_incdt keeps data vertices with label `label` and partial-embedding
  * degree `degInPartial` (= d_{q'}(u)), minus the definitely-non-incident
  * vertex set.
  */
final case class PairSpec(prevPos: Int, label: Int, degInPartial: Int) extends Serializable

/** The plan for matching one query hyperedge at order position `pos` ≥ 1.
  *
  * Everything here depends only on the query and the matching order, so the
  * plan generator computes it once; it is tiny and ships inside closures to
  * Spark executors.
  *
  * @param queryEdge          query hyperedge id matched at this step
  * @param pos                0-based position in the matching order
  * @param signature          S(e_q) — selects the hyperedge table to probe
  * @param pairs              distinct Algorithm-4 candidate pairs (never
  *                           empty: [[Plan.fromOrder]] requires a
  *                           connected order)
  * @param nonAdjPrevPos      positions of previously matched hyperedges
  *                           non-adjacent to `queryEdge` (their matched
  *                           vertices form V_n_incdt, Algorithm 4 line 1)
  * @param newVertexCount     vertices `queryEdge` adds over the previous
  *                           partial query — a valid prefix covers exactly
  *                           the previous |V(q')| data vertices, so the
  *                           Observation V.5 check reduces to counting the
  *                           candidate's fresh vertices (hot-path form)
  * @param expectedProfileKeys the multiset of query-side vertex profiles
  *                           (Definition V.3, Theorem V.2) of the vertices
  *                           of `queryEdge` w.r.t. the partial query after
  *                           this step, as sorted [[Profiles.key]]s
  */
final case class ExpandStep(
    queryEdge: Int,
    pos: Int,
    signature: Signature,
    pairs: Array[PairSpec],
    nonAdjPrevPos: Array[Int],
    newVertexCount: Int,
    expectedProfileKeys: Array[Long],
) extends Serializable {
  /** nonAdjPrevPos as a mask for O(1) membership on the hot path. */
  val nonAdjMask: Long = nonAdjPrevPos.foldLeft(0L)((m, j) => m | (1L << j))
  /** The sorted expected keys of the vertices `queryEdge` shares with the
    * partial query before this step (mask ≠ this position alone): the
    * only keys the hot path compares (see [[Validation]]).
    */
  val expectedSharedKeys: Array[Long] = expectedProfileKeys.filter(k => (k & 0xffffffffL) != (1L << pos))
}

/** A vertex profile (Definition V.3) is the vertex's label plus the set of
  * *order positions* of the partial-query hyperedges incident to it. Order
  * positions (not edge ids) make query-side and data-side profiles directly
  * comparable: a data vertex's profile lists the positions of the matched
  * hyperedges that contain it. A profile packs into one Long,
  * `label << 32 | position-bitmask` (|E(q)| ≤ 32, enforced by
  * [[Plan.fromOrder]]).
  */
object Profiles {
  /** Pack a profile into its Long key. */
  def key(label: Int, positions: Iterable[Int]): Long =
    (label.toLong << 32) | positions.foldLeft(0L)((m, p) => m | (1L << p))
}

/** A full execution plan: SCAN(order(0)) → EXPAND(order(1)) → … → SINK.
  * `steps(i-1)` drives the EXPAND at order position `i`.
  */
final case class Plan(
    query: Hypergraph,
    order: Array[Int],
    scanSignature: Signature,
    steps: Array[ExpandStep],
) extends Serializable {
  def numEdges: Int = order.length
}

object Plan {

  /** Generate the plan for `query` against the indexed data hypergraph
    * (the online "Plan Generator" box of Fig 3).
    */
  def generate(query: Hypergraph, tables: HyperedgeTables): Plan =
    fromOrder(query, MatchingOrder.compute(query, tables))

  /** Build a plan from an explicit matching order (any connected
    * permutation of E(q) — Section V-A notes HGMatch works with any).
    * Rejects an order with a disconnected prefix: a step with no
    * Algorithm-4 pair has no candidates, so it would silently count 0.
    * Rejects a query vertex in no hyperedge: no hyperedge maps it, so the
    * engines would count embeddings that leave it unmatched.
    */
  def fromOrder(query: Hypergraph, order: Array[Int]): Plan = {
    require(order.sorted.sameElements(0 until query.numEdges), "order must permute E(q)")
    require(query.numEdges <= 32, "profile keys pack order positions into 32 bits")
    val steps = (1 until order.length).map(i => stepAt(query, order, i)).toArray
    require(steps.forall(_.pairs.nonEmpty),
      s"every prefix of the order ${order.mkString("[", ",", "]")} must be connected")
    require(query.incidence.forall(_.nonEmpty),
      "every query vertex must lie in a hyperedge: an embedding maps hyperedges, so a vertex in none is never matched")
    Plan(query, order, query.signature(order(0)), steps)
  }

  private def stepAt(query: Hypergraph, order: Array[Int], i: Int): ExpandStep = {
    val eq = order(i)
    val eqVerts = query.edges(eq)

    // Partial-query degree of a query vertex before this step.
    def degBefore(u: Int): Int = (0 until i).count(j => SetOps.contains(query.edges(order(j)), u))

    val pairs = mutable.ArrayBuffer.empty[PairSpec]
    val nonAdj = mutable.ArrayBuffer.empty[Int]
    for (j <- 0 until i) {
      val prev = order(j)
      if (query.edgesAdjacent(prev, eq)) {
        // foreach u ∈ e ∩ e_q (Algorithm 4 line 4)
        query.edges(prev).foreach { u =>
          if (SetOps.contains(eqVerts, u))
            pairs += PairSpec(j, query.labels(u), degBefore(u))
        }
      } else nonAdj += j
    }

    // Query-side profiles of e_q's vertices in the partial query after the
    // step: label plus positions ≤ i of order hyperedges containing u.
    val profileKeys = eqVerts.map { u =>
      Profiles.key(query.labels(u), (0 to i).filter(j => SetOps.contains(query.edges(order(j)), u)))
    }.sorted

    ExpandStep(
      queryEdge = eq,
      pos = i,
      signature = query.signature(eq),
      pairs = pairs.distinct.toArray, // equal pairs gather the same set
      nonAdjPrevPos = nonAdj.toArray,
      newVertexCount = eqVerts.count(degBefore(_) == 0),
      expectedProfileKeys = profileKeys,
    )
  }
}
