package repro.core

/** The data-side vertex profiles of one partial embedding, built once per
  * expansion: a dense array from each vertex id to the bitmask of the order
  * positions whose matched hyperedges contain it (Definition V.3 without
  * the label), 0 for every other vertex. Candidate generation reads a
  * vertex's partial degree (Obs V.4, the mask's bit count) and its
  * V_n_incdt membership (Obs V.3) from it, and validation reads the
  * profiles of a candidate's shared vertices (Theorem V.2), each in one
  * array read instead of one binary search per matched hyperedge.
  *
  * One array per worker thread (it lives in [[CandidateGen.Scratch]]), of
  * 8·|V| bytes for the largest graph loaded so far; [[load]] resets it
  * through the vertices the previous load set, in time proportional to the
  * previous prefix.
  */
final class VertexMasks {
  private var masks: Array[Long] = new Array[Long](0)
  private var set: Array[Int] = new Array[Int](32) // vertices with a nonzero mask
  private var n: Int = 0

  /** Vertices with a nonzero mask. */
  def size: Int = n

  /** Reset to the profiles of the prefix `emb(0 until len)` of matched
    * data hyperedges of `g`.
    */
  def load(g: Hypergraph, emb: Array[Int], len: Int): Unit = {
    var i = 0
    while (i < n) { masks(set(i)) = 0L; i += 1 }
    n = 0
    if (masks.length < g.numVertices) masks = new Array[Long](g.numVertices)
    var j = 0
    while (j < len) {
      val vs = g.edges(emb(j))
      val bit = 1L << j
      var k = 0
      while (k < vs.length) {
        val v = vs(k)
        if (masks(v) == 0L) {
          if (n == set.length) set = java.util.Arrays.copyOf(set, 2 * n)
          set(n) = v; n += 1
        }
        masks(v) |= bit
        k += 1
      }
      j += 1
    }
  }

  /** The position mask of vertex `v` of the loaded graph; 0 when no matched
    * hyperedge holds it.
    */
  def get(v: Int): Long = masks(v)
}
