package hgbench

import scala.collection.mutable
import repro.core.Hypergraph

/** Independent embedding counter: the benchmark's reference for every count
  * the engines report.
  *
  * It reads only the data hypergraph's labels, hyperedges and incidence
  * lists, and shares no code with the signature tables, the plan, candidate
  * generation, validation or any engine. It backtracks over data hyperedges
  * in a connected order of the query's hyperedges. A data hyperedge may take
  * a query hyperedge's place only if their label multisets are equal, and
  * after each placement the multiset of vertex profiles of the whole partial
  * embedding (label, positions of the placed hyperedges that contain the
  * vertex) must equal that of the partial query: Theorem V.2 applied to
  * every prefix, which is exactly when a vertex bijection exists.
  *
  * An embedding is a distinct tuple of data hyperedges, one per query
  * hyperedge, as in the paper and the DuckDB oracle. Not thread-safe: one
  * instance per thread.
  */
final class Recount(data: Hypergraph) {

  private val sigIds = mutable.HashMap.empty[Vector[Int], Int]

  private def labelMultiset(g: Hypergraph, e: Int): Vector[Int] =
    g.edges(e).iterator.map(g.labels(_)).toVector.sorted

  private val edgeSig: Array[Int] =
    Array.tabulate(data.numEdges)(e => sigIds.getOrElseUpdate(labelMultiset(data, e), sigIds.size))

  private val edgesBySig: Array[Array[Int]] = {
    val b = Array.fill(sigIds.size)(new mutable.ArrayBuilder.ofInt)
    for (e <- 0 until data.numEdges) b(edgeSig(e)) += e
    b.map(_.result())
  }

  /** Positions of the placed hyperedges that contain each data vertex. */
  private val posMask = new Array[Long](data.numVertices)
  private val seenAt = new Array[Long](data.numEdges)
  private var epoch = 0L

  private def key(label: Int, mask: Long): Long = (label.toLong << 32) | mask

  /** Number of embeddings of `query` in the data hypergraph. */
  def count(query: Hypergraph): Long = {
    val n = query.numEdges
    require(n >= 1 && n <= 32, "the recount packs query positions into 32 bits")
    require((0 until query.numVertices).forall(query.incidence(_).nonEmpty),
      "every query vertex must lie in a hyperedge")
    val qSig = Array.tabulate(n)(e => sigIds.getOrElse(labelMultiset(query, e), -1))
    if (qSig.contains(-1)) return 0L
    def card(e: Int): Int = edgesBySig(qSig(e)).length

    // Connected order: rarest hyperedge first, then the one sharing the most
    // vertices with those already placed (rarest, then lowest id, on ties).
    val order = new Array[Int](n)
    val placed = new Array[Boolean](n)
    val covered = mutable.HashSet.empty[Int]
    for (i <- 0 until n) {
      val free = (0 until n).filterNot(placed)
      val next = free.minBy(e => (-query.edges(e).count(covered.contains), card(e), e))
      order(i) = next; placed(next) = true
      query.edges(next).foreach(covered += _)
    }
    // The earliest placed hyperedge that shares a vertex with position i,
    // or -1: candidates are drawn from its matched data hyperedge.
    val anchor = Array.tabulate(n) { i =>
      (0 until i).find(j => query.edges(order(j)).exists(query.edges(order(i)).contains)).getOrElse(-1)
    }
    // The partial query's sorted profile keys after each position.
    val qKeys = Array.tabulate(n) { i =>
      val masks = mutable.HashMap.empty[Int, Long]
      for (j <- 0 to i; u <- query.edges(order(j))) masks(u) = masks.getOrElse(u, 0L) | (1L << j)
      masks.iterator.map { case (u, m) => key(query.labels(u), m) }.toArray.sorted
    }

    val matched = new Array[Int](n)
    val coveredData = new mutable.ArrayBuffer[Int]()
    val keys = new Array[Long](qKeys(n - 1).length)

    def candidates(i: Int): Array[Int] = {
      val sig = qSig(order(i))
      if (anchor(i) < 0) edgesBySig(sig)
      else {
        epoch += 1
        val out = new mutable.ArrayBuilder.ofInt
        for (v <- data.edges(matched(anchor(i))); e <- data.incidence(v))
          if (edgeSig(e) == sig && seenAt(e) != epoch) { seenAt(e) = epoch; out += e }
        out.result()
      }
    }

    def profilesMatch(i: Int): Boolean = {
      val exp = qKeys(i)
      if (coveredData.length != exp.length) return false
      var k = 0
      while (k < exp.length) {
        val v = coveredData(k)
        keys(k) = key(data.labels(v), posMask(v))
        k += 1
      }
      java.util.Arrays.sort(keys, 0, exp.length)
      java.util.Arrays.equals(keys, 0, exp.length, exp, 0, exp.length)
    }

    def place(i: Int, c: Int): Unit =
      for (v <- data.edges(c)) {
        if (posMask(v) == 0L) coveredData += v
        posMask(v) |= 1L << i
      }

    def unplace(i: Int, c: Int): Unit = {
      for (v <- data.edges(c)) posMask(v) &= ~(1L << i)
      while (coveredData.nonEmpty && posMask(coveredData.last) == 0L) coveredData.remove(coveredData.length - 1)
    }

    def extend(i: Int): Long = {
      var total = 0L
      for (c <- candidates(i)) {
        var reused = false
        var j = 0
        while (j < i && !reused) { reused = matched(j) == c; j += 1 }
        if (!reused) {
          matched(i) = c
          place(i, c)
          if (profilesMatch(i)) total += (if (i == n - 1) 1L else extend(i + 1))
          unplace(i, c)
        }
      }
      total
    }

    extend(0)
  }
}
