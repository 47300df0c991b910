package repro.core

/** Hyperedge signature (Definition IV.1): the multiset of vertex labels
  * contained in a hyperedge, held in canonical (sorted) form so that two
  * hyperedges have equal signatures iff their label multisets are equal.
  *
  * Signatures key the hyperedge tables (Section IV-B): all data hyperedges
  * with one signature live in one partition, so matching a query hyperedge
  * only ever scans the partition with the query hyperedge's signature.
  */
final case class Signature private (sortedLabels: Vector[Int]) {

  /** Arity of any hyperedge carrying this signature. */
  def arity: Int = sortedLabels.length

  /** Number of vertices with label `l` in a hyperedge of this signature. */
  def count(l: Int): Int = sortedLabels.count(_ == l)

  /** Stable string key, e.g. "0|0|2" — used as the partition key in the
    * Spark tier and in the DuckDB oracle, where signatures must round-trip
    * through VARCHAR columns.
    */
  def key: String = sortedLabels.mkString("|")

  // Equality and hashing by index, not through Scala's generic Seq
  // equality: candidate generation looks a partition up per V_incdt vertex,
  // and the generic path's interface type checks contend between worker
  // threads on JDK 17 (task-engine runs that spent a third of their samples
  // there ran ~40% slower).
  override val hashCode: Int = {
    var h = 1
    var i = 0
    while (i < sortedLabels.length) { h = 31 * h + sortedLabels(i); i += 1 }
    h
  }

  override def equals(o: Any): Boolean = o match {
    case s: Signature =>
      (s eq this) || (s.hashCode == hashCode && s.arity == arity && {
        var i = 0
        while (i < arity && s.sortedLabels(i) == sortedLabels(i)) i += 1
        i == arity
      })
    case _ => false
  }

  override def toString: String = s"Sig(${sortedLabels.mkString(",")})"
}

object Signature {

  /** Canonicalise an arbitrary label multiset. */
  def of(labels: Iterable[Int]): Signature = Signature(labels.toVector.sorted)

  /** Signature of hyperedge `e` (by id) in `h`. */
  def of(h: Hypergraph, e: Int): Signature =
    of(h.edges(e).toIndexedSeq.map(h.labels))

  /** Parse a key produced by [[Signature.key]]. */
  def parse(key: String): Signature =
    if (key.isEmpty) Signature(Vector.empty)
    else Signature(key.split('|').iterator.map(_.toInt).toVector.sorted)
}
