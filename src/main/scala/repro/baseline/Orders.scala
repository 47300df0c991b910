package repro.baseline

import scala.collection.mutable
import repro.core.Hypergraph

/** Query-vertex matching orders for the extended baselines of Section VII-A.
  *
  * The paper's CFL-H / DAF-H / CECI-H are the C++ implementations of CFL,
  * DAF and CECI run through the generic extension of Section III-B with the
  * IHS filter. Here all three share [[MatchByVertex]] and differ only in
  * matching order, approximating each algorithm's published heuristic (the
  * auxiliary structures — CPI/CS/embedding clusters — are constant-factor
  * devices; see DESIGN.md substitutions):
  *
  *  - CECI: BFS order from a root with the smallest candidate set.
  *  - DAF:  greedy connected order by minimum candidate-set size
  *          ("infrequent first", the adaptive-order spirit of DAF).
  *  - CFL:  connected order preferring high-degree (core) vertices first,
  *          tie-broken by candidate-set size (core before forest/leaf).
  */
object Orders {

  /** CECI-H order: BFS from argmin |C(u)|. */
  def ceci(query: Hypergraph, candSizes: Array[Int]): Array[Int] = {
    val n = query.numVertices
    val root = (0 until n).minBy(u => (candSizes(u), u))
    val order = mutable.ArrayBuffer(root)
    val seen = mutable.HashSet(root)
    val queue = mutable.Queue(root)
    while (queue.nonEmpty) {
      val u = queue.dequeue()
      query.adjacentVertices(u).foreach { w =>
        if (!seen(w)) { seen += w; order += w; queue.enqueue(w) }
      }
    }
    // Disconnected queries: append leftovers (paper assumes connected).
    (0 until n).foreach(u => if (!seen(u)) { order += u; seen += u })
    order.toArray
  }

  /** DAF-H order: greedy connected, min candidate set first. */
  def daf(query: Hypergraph, candSizes: Array[Int]): Array[Int] =
    greedyConnected(query.adjacentVertices, u => (candSizes(u).toLong, u.toLong))

  /** CFL-H order: greedy connected, high degree (core) first then fewer
    * candidates.
    */
  def cfl(query: Hypergraph, candSizes: Array[Int]): Array[Int] =
    greedyConnected(query.adjacentVertices, u => (-query.degree(u).toLong, candSizes(u).toLong))

  /** Greedy connected order over the graph `adj`: start at the smallest
    * `key`, then repeatedly take the smallest-keyed vertex adjacent to one
    * already placed (any unplaced vertex once the frontier is empty). Ties
    * go to the smaller vertex id.
    */
  private[baseline] def greedyConnected(adj: Array[Array[Int]], key: Int => (Long, Long)): Array[Int] = {
    val n = adj.length
    val order = mutable.ArrayBuffer.empty[Int]
    val placed = new Array[Boolean](n)
    val frontier = mutable.HashSet.empty[Int]

    val first = (0 until n).minBy(u => (key(u), u.toLong))
    order += first; placed(first) = true
    adj(first).foreach(frontier += _)

    while (order.length < n) {
      val pick =
        if (frontier.nonEmpty) frontier.minBy(u => (key(u), u.toLong))
        else (0 until n).filter(!placed(_)).minBy(u => (key(u), u.toLong))
      order += pick; placed(pick) = true
      frontier -= pick
      adj(pick).foreach(w => if (!placed(w)) frontier += w)
    }
    order.toArray
  }
}
