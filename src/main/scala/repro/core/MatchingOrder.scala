package repro.core

import scala.collection.mutable

/** Matching-order computation (Definition V.1, Algorithm 3).
  *
  * Starts from the query hyperedge with minimal cardinality in the data
  * (Card is O(1) table metadata) and greedily appends the connected query
  * hyperedge minimising Card(e,H) / |V_φ ∩ e| — i.e. infrequent and highly
  * connected hyperedges are matched early.
  */
object MatchingOrder {

  /** Returns a permutation of the query's hyperedge ids. Every prefix is
    * connected when the query hypergraph is; a disconnected query still
    * gets a permutation, which [[Plan.fromOrder]] then rejects.
    */
  def compute(query: Hypergraph, tables: HyperedgeTables): Array[Int] = {
    require(query.numEdges > 0, "query must have at least one hyperedge")
    val n = query.numEdges
    def card(e: Int): Int = tables.cardinality(query.signature(e))

    val order = new mutable.ArrayBuffer[Int](n)
    val used = new Array[Boolean](n)
    val coveredVerts = mutable.HashSet.empty[Int]

    val first = (0 until n).minBy(e => (card(e), e))
    order += first; used(first) = true
    query.edges(first).foreach(coveredVerts += _)

    while (order.length < n) {
      var best = -1
      var bestScore = Double.PositiveInfinity
      var e = 0
      while (e < n) {
        if (!used(e)) {
          val shared = query.edges(e).count(coveredVerts.contains)
          val score = if (shared == 0) Double.PositiveInfinity else card(e).toDouble / shared
          if (best == -1 || score < bestScore) { best = e; bestScore = score }
        }
        e += 1
      }
      order += best; used(best) = true
      query.edges(best).foreach(coveredVerts += _)
    }
    order.toArray
  }
}
