package repro.core

/** The data-side vertex profiles of one partial embedding, built once per
  * expansion: an open-addressed map from each vertex of the matched
  * hyperedges to the bitmask of the order positions whose hyperedges
  * contain it (Definition V.3 without the label). Candidate generation
  * reads a vertex's partial degree (Obs V.4, the mask's bit count) and its
  * V_n_incdt membership (Obs V.3) from it, and validation reads the
  * profiles of a candidate's shared vertices (Theorem V.2), each in one
  * probe instead of one binary search per matched hyperedge.
  *
  * One table per worker thread (it lives in [[CandidateGen.Scratch]]);
  * [[load]] resets it in time proportional to the previous prefix.
  */
final class VertexMasks {
  private var keys: Array[Int] = Array.fill(64)(VertexMasks.Empty)
  private var masks: Array[Long] = new Array[Long](64)
  private var used: Array[Int] = new Array[Int](32) // occupied slots, for a cheap reset
  private var n: Int = 0

  /** Vertices in the table. */
  def size: Int = n

  /** Slots in the table (a power of two, at least twice [[size]]). */
  def capacity: Int = keys.length

  /** Reset to the profiles of the prefix `emb(0 until len)` of matched
    * data hyperedges of `g`.
    */
  def load(g: Hypergraph, emb: Array[Int], len: Int): Unit = {
    var i = 0
    while (i < n) { keys(used(i)) = VertexMasks.Empty; i += 1 }
    n = 0
    var j = 0
    while (j < len) {
      val vs = g.edges(emb(j))
      val bit = 1L << j
      var k = 0
      while (k < vs.length) { or(vs(k), bit); k += 1 }
      j += 1
    }
  }

  /** The position mask of vertex `v`; 0 when no matched hyperedge holds it. */
  def get(v: Int): Long = {
    val mask = keys.length - 1
    var s = VertexMasks.slot(v, mask)
    var k = keys(s)
    while (k != v && k != VertexMasks.Empty) { s = (s + 1) & mask; k = keys(s) }
    if (k == v) masks(s) else 0L
  }

  private def or(v: Int, bit: Long): Unit = {
    val mask = keys.length - 1
    var s = VertexMasks.slot(v, mask)
    while (keys(s) != VertexMasks.Empty && keys(s) != v) s = (s + 1) & mask
    if (keys(s) == v) masks(s) |= bit
    else {
      keys(s) = v; masks(s) = bit
      used(n) = s; n += 1
      if (2 * n >= keys.length) grow()
    }
  }

  /** Doubles the table and re-inserts every entry, masks included. */
  private def grow(): Unit = {
    val oldKeys = keys
    val oldMasks = masks
    val oldUsed = used
    val cap = oldKeys.length * 2
    keys = Array.fill(cap)(VertexMasks.Empty)
    masks = new Array[Long](cap)
    used = new Array[Int](cap / 2)
    val mask = cap - 1
    var i = 0
    while (i < n) {
      val from = oldUsed(i)
      var s = VertexMasks.slot(oldKeys(from), mask)
      while (keys(s) != VertexMasks.Empty) s = (s + 1) & mask
      keys(s) = oldKeys(from); masks(s) = oldMasks(from)
      used(i) = s
      i += 1
    }
  }
}

object VertexMasks {
  private final val Empty = -1 // vertex ids are non-negative

  private def slot(v: Int, mask: Int): Int = {
    val h = v * 0x9E3779B9
    (h ^ (h >>> 16)) & mask
  }
}
