package repro.core

/** Candidate generation (Algorithm 4): given a partial embedding
  * `emb` = data hyperedge ids for order positions 0 … step.pos-1, produce
  * all candidate data hyperedges for the query hyperedge at `step.pos`
  * using only set operations over the inverted hyperedge index.
  */
object CandidateGen {

  /** Reusable per-thread state for the hot path: the candidates `a`, the
    * prefix's vertex profiles `masks` (a dense array over the data
    * vertices), which [[Validation.sharedProfileKeys]] reads after
    * candidate generation, the validation keys `keys`, and a stamp per data
    * hyperedge id with a running `epoch` (the union and intersection
    * marks). One [[Scratch]] per worker thread, kept across runs and graphs
    * (the engines' is [[repro.engine.Expander]]'s); `candidatesInto` is
    * reentrancy-free.
    */
  final class Scratch {
    var a: Array[Int] = new Array[Int](256)
    var na: Int = 0
    val masks = new VertexMasks
    var keys: Array[Long] = new Array[Long](0) // grown to the expanding plan's largest arity
    private[core] var stamps: Array[Int] = new Array[Int](0) // ≤ epoch outside a call
    private[core] var epoch: Int = 0
  }

  /** Algorithm 4 into caller-provided scratch. On return, the candidates
    * are `scratch.a(0 until scratch.na)`, distinct, in the order pair 0
    * first reached them, and `scratch.masks` holds the profiles of `emb`'s
    * vertices.
    *
    * Each pair is one pass over its posting lists, read in place off the
    * index. With the call's stamps `base + 1 … base + #pairs`, pair 0
    * appends each edge stamped ≤ `base` and stamps it `base + 1` (the
    * within-pair union); pair k ≥ 1 moves `base + k` to `base + k + 1`
    * (line 7's intersection). A vertex's partial degree (Obs V.4) and
    * V_n_incdt membership (Obs V.3) come from its position mask; the step's
    * partition is resolved once per call.
    */
  def candidatesInto(tables: HyperedgeTables, step: ExpandStep, emb: Array[Int],
                     scratch: Scratch): Unit = {
    val g = tables.graph
    scratch.masks.load(g, emb, step.pos)
    scratch.na = 0
    val pid = tables.partitionId(step.signature)
    if (pid < 0) return // no data hyperedge has the signature
    val np = step.pairs.length
    if (scratch.stamps.length < g.numEdges) scratch.stamps = new Array[Int](g.numEdges)
    if (scratch.epoch > Int.MaxValue - np) { java.util.Arrays.fill(scratch.stamps, 0); scratch.epoch = 0 }
    val base = scratch.epoch
    scratch.epoch = base + np
    val stamps = scratch.stamps
    var a = scratch.a
    var na = 0
    var moved = 0 // distinct edges the latest pair reached: the survivors so far
    var k = 0
    while (k < np) {
      val p = step.pairs(k)
      val fe = g.edges(emb(p.prevPos))
      moved = 0
      var i = 0
      while (i < fe.length) {
        val v = fe(i)
        if (g.labels(v) == p.label) {
          val m = scratch.masks.get(v)
          if ((m & step.nonAdjMask) == 0L && java.lang.Long.bitCount(m) == p.degInPartial) {
            val r = tables.runOf(v, pid)
            if (r >= 0) {
              var j = tables.runStart(r)
              val end = tables.runStart(r + 1)
              while (j < end) {
                val e = tables.postings(j)
                if (if (k == 0) stamps(e) <= base else stamps(e) == base + k) {
                  stamps(e) = base + k + 1
                  moved += 1
                  if (k == 0) {
                    if (na == a.length) { a = java.util.Arrays.copyOf(a, 2 * na); scratch.a = a }
                    a(na) = e; na += 1
                  }
                }
                j += 1
              }
            }
          }
        }
        i += 1
      }
      if (moved == 0) return // empty pair ⇒ empty intersection
      k += 1
    }
    if (moved < na) { // keep the edges every pair reached
      var w = 0
      var r = 0
      while (r < na) {
        val e = a(r)
        if (stamps(e) == base + np) { a(w) = e; w += 1 }
        r += 1
      }
      na = w
    }
    scratch.na = na
  }
}
