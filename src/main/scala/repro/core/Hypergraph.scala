package repro.core

import scala.collection.mutable

/** Immutable, undirected, vertex-labelled simple hypergraph (Def III.1).
  *
  * Vertices are dense 0-based Ints; `labels(v)` is the label of vertex `v`;
  * `edges(e)` is the sorted, duplicate-free vertex array of hyperedge `e`.
  * Repeated hyperedges and repeated vertices within a hyperedge are removed
  * at construction, matching the paper's preprocessing (Section VII-A).
  *
  * Used for both data and query hypergraphs.
  */
final class Hypergraph private (
    val labels: Array[Int],
    val edges: Array[Array[Int]],
    val labelNames: Option[IndexedSeq[String]],
) extends Serializable {

  val numVertices: Int = labels.length
  val numEdges: Int = edges.length

  /** Arity of hyperedge `e` (number of vertices it contains). */
  def arity(e: Int): Int = edges(e).length

  /** Average arity over all hyperedges (ā in the paper). */
  def avgArity: Double =
    if (numEdges == 0) 0.0 else edges.iterator.map(_.length.toLong).sum.toDouble / numEdges

  /** Maximum arity (a_max in the paper). */
  def maxArity: Int = if (numEdges == 0) 0 else edges.iterator.map(_.length).max

  /** Number of distinct labels actually used (|Σ|). */
  def numLabels: Int = labels.distinct.length

  /** Incidence lists: `incidence(v)` is the sorted array of hyperedge ids
    * incident to vertex `v` — he(v) in the paper.
    */
  lazy val incidence: Array[Array[Int]] = {
    val bufs = Array.fill(numVertices)(new mutable.ArrayBuilder.ofInt)
    var e = 0
    while (e < numEdges) {
      val vs = edges(e)
      var i = 0
      while (i < vs.length) { bufs(vs(i)) += e; i += 1 }
      e += 1
    }
    bufs.map(_.result()) // already ascending: edges visited in id order
  }

  /** Degree of vertex `v` — |he(v)|. */
  def degree(v: Int): Int = incidence(v).length

  /** Signature of hyperedge `e`. */
  def signature(e: Int): Signature = signatures(e)

  /** Precomputed signatures, one per hyperedge. */
  lazy val signatures: Array[Signature] =
    Array.tabulate(numEdges)(e => Signature.of(edges(e).toIndexedSeq.map(labels)))

  /** Adjacent vertices of `u` — vertices sharing at least one hyperedge. */
  lazy val adjacentVertices: Array[Array[Int]] = {
    Array.tabulate(numVertices) { u =>
      val s = mutable.SortedSet.empty[Int]
      incidence(u).foreach(e => edges(e).foreach(v => if (v != u) s += v))
      s.toArray
    }
  }

  /** Adjacent hyperedges of `e` — hyperedges sharing at least one vertex. */
  def adjacentEdges(e: Int): Array[Int] = {
    val s = mutable.SortedSet.empty[Int]
    edges(e).foreach(v => incidence(v).foreach(e2 => if (e2 != e) s += e2))
    s.toArray
  }

  /** True if hyperedges `e1` and `e2` share at least one vertex. */
  def edgesAdjacent(e1: Int, e2: Int): Boolean = {
    var i = 0; var j = 0
    val a = edges(e1); val b = edges(e2)
    while (i < a.length && j < b.length) {
      if (a(i) == b(j)) return true
      else if (a(i) < b(j)) i += 1
      else j += 1
    }
    false
  }

  /** True if every pair of hyperedges is linked through shared vertices
    * (single-hyperedge or empty graphs are connected).
    */
  def isConnected: Boolean = {
    if (numEdges <= 1) return true
    val seen = new Array[Boolean](numEdges)
    val stack = mutable.Stack(0)
    seen(0) = true
    var reached = 1
    while (stack.nonEmpty) {
      val e = stack.pop()
      adjacentEdges(e).foreach { e2 =>
        if (!seen(e2)) { seen(e2) = true; reached += 1; stack.push(e2) }
      }
    }
    reached == numEdges
  }

  /** Total incidence count — the O(ā·|E|) size driver of both the storage
    * and the inverted index (Section IV size analyses).
    */
  def totalIncidence: Long = edges.iterator.map(_.length.toLong).sum

  override def toString: String =
    s"Hypergraph(|V|=$numVertices, |E|=$numEdges, |Σ|=$numLabels, aMax=$maxArity, aAvg=${f"$avgArity%.1f"})"
}

object Hypergraph {

  /** Build from raw vertex labels and hyperedges. Deduplicates vertices
    * within a hyperedge and repeated hyperedges (paper's preprocessing);
    * drops empty hyperedges.
    */
  def apply(
      labels: Seq[Int],
      rawEdges: Seq[Seq[Int]],
      labelNames: Option[IndexedSeq[String]] = None,
  ): Hypergraph = {
    val labs = labels.toArray
    require(labs.forall(_ >= 0), "labels must be non-negative ints")
    val seen = mutable.LinkedHashSet.empty[Vector[Int]]
    rawEdges.foreach { e =>
      val canon = e.distinct.sorted.toVector
      require(canon.forall(v => v >= 0 && v < labs.length), s"edge $e references unknown vertex")
      if (canon.nonEmpty) seen += canon
    }
    new Hypergraph(labs, seen.iterator.map(_.toArray).toArray, labelNames)
  }

  /** The worked example of Fig. 1: query hypergraph q. Labels A=0, B=1, C=2.
    * u0:A u1:C u2:A u3:A u4:B; edges {u2,u4}, {u0,u1,u2}, {u0,u1,u3,u4}.
    */
  def fig1Query: Hypergraph = Hypergraph(
    labels = Seq(0, 2, 0, 0, 1),
    rawEdges = Seq(Seq(2, 4), Seq(0, 1, 2), Seq(0, 1, 3, 4)),
    labelNames = Some(IndexedSeq("A", "B", "C")),
  )

  /** The worked example of Fig. 1: data hypergraph H with exactly the two
    * embeddings (e1,e3,e5) and (e2,e4,e6) and the three signature
    * partitions of Table I: {A,B}: e1,e2 — {A,A,C}: e3,e4 — {A,A,B,C}:
    * e5,e6. (Edge ids here are 0-based: paper's e1 is id 0, … e6 is id 5.)
    */
  def fig1Data: Hypergraph = Hypergraph(
    labels = Seq(0, 2, 0, 0, 1, 0, 2, 0, 0, 1), // v0..v9
    rawEdges = Seq(
      Seq(2, 4),       // e1 {A,B}
      Seq(7, 9),       // e2 {A,B}
      Seq(0, 1, 2),    // e3 {A,A,C}
      Seq(5, 6, 7),    // e4 {A,A,C}
      Seq(0, 1, 3, 4), // e5 {A,A,B,C}
      Seq(5, 6, 8, 9), // e6 {A,A,B,C}
    ),
    labelNames = Some(IndexedSeq("A", "B", "C")),
  )
}
