package repro.core

/** Candidate generation (Algorithm 4): given a partial embedding
  * `emb` = data hyperedge ids for order positions 0 … step.pos-1, produce
  * all candidate data hyperedges for the query hyperedge at `step.pos`
  * using only set operations over the inverted hyperedge index.
  */
object CandidateGen {

  /** Reusable per-thread buffers for the hot path: the running
    * intersection `a`, the per-pair gather buffer `b`, and the prefix's
    * vertex profiles `masks` (a dense array over the data vertices), which
    * [[Validation.sharedProfileKeys]] reads after candidate generation. One
    * [[Scratch]] per worker thread, kept across runs and graphs (the
    * engines' is [[repro.engine.Expander]]'s); `candidatesInto` is
    * reentrancy-free.
    */
  final class Scratch {
    var a: Array[Int] = new Array[Int](256)
    var b: Array[Int] = new Array[Int](256)
    var na: Int = 0
    val masks = new VertexMasks
    /** Grows `b`, keeping the postings already gathered for the current pair. */
    def ensureB(n: Int): Unit =
      if (b.length < n) b = java.util.Arrays.copyOf(b, Integer.highestOneBit(n - 1) << 1)
    def ensureA(n: Int): Unit =
      if (a.length < n) a = new Array[Int](Integer.highestOneBit(n - 1) << 1)
  }

  /** Algorithm 4 into caller-provided scratch. On return, the candidates
    * are `scratch.a(0 until scratch.na)`, sorted ascending, and
    * `scratch.masks` holds the profiles of `emb`'s vertices.
    *
    * Per pair, posting lists are gathered, sorted and deduped (the
    * within-pair union), then merged into the running intersection in
    * place — no per-call allocations beyond buffer growth. The per-vertex
    * partial-embedding degree (Obs V.4) and V_n_incdt membership (Obs
    * V.3) come from the vertex's position mask. The step's partition is
    * resolved once per call; each V_incdt vertex then costs a binary
    * search over its few runs and one copy of he(v, S(e_q)).
    */
  def candidatesInto(tables: HyperedgeTables, step: ExpandStep, emb: Array[Int],
                     scratch: Scratch): Unit = {
    val g = tables.graph
    scratch.masks.load(g, emb, step.pos)
    scratch.na = 0
    val pid = tables.partitionId(step.signature)
    if (pid < 0) return // no data hyperedge has the signature
    var k = 0
    while (k < step.pairs.length) {
      val p = step.pairs(k)
      val fe = g.edges(emb(p.prevPos))

      // Gather the pair's posting lists into b.
      var nb = 0
      var i = 0
      while (i < fe.length) {
        val v = fe(i)
        if (g.labels(v) == p.label) {
          val m = scratch.masks.get(v)
          if ((m & step.nonAdjMask) == 0L && java.lang.Long.bitCount(m) == p.degInPartial) {
            val r = tables.runOf(v, pid)
            if (r >= 0) {
              val from = tables.runStart(r)
              val len = tables.runStart(r + 1) - from
              scratch.ensureB(nb + len)
              System.arraycopy(tables.postings, from, scratch.b, nb, len)
              nb += len
            }
          }
        }
        i += 1
      }
      if (nb == 0) { scratch.na = 0; return } // empty pair ⇒ empty intersection

      // Within-pair union: sort + dedupe in place.
      java.util.Arrays.sort(scratch.b, 0, nb)
      var w = 0
      var r = 0
      while (r < nb) {
        val x = scratch.b(r)
        if (w == 0 || scratch.b(w - 1) != x) { scratch.b(w) = x; w += 1 }
        r += 1
      }
      nb = w

      if (k == 0) {
        scratch.ensureA(nb)
        System.arraycopy(scratch.b, 0, scratch.a, 0, nb)
        scratch.na = nb
      } else {
        // Line 7 incrementally: a ← a ∩ b, merged in place.
        var ia = 0; var ib = 0; var out = 0
        while (ia < scratch.na && ib < nb) {
          val x = scratch.a(ia); val y = scratch.b(ib)
          if (x == y) { scratch.a(out) = x; out += 1; ia += 1; ib += 1 }
          else if (x < y) ia += 1
          else ib += 1
        }
        scratch.na = out
      }
      if (scratch.na == 0) return
      k += 1
    }
  }
}
