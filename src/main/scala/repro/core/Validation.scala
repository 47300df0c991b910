package repro.core

/** Embedding validation (Algorithm 5): removes the false positives that
  * candidate generation may admit, using the vertex-count check
  * (Observation V.5) and vertex-profile multiset equality (Theorem V.2) —
  * no backtracking search over vertex mappings is ever performed.
  *
  * The two checks are exposed separately so engines can count how many
  * candidates each one filters (Exp-3, Fig 9: Candidates → Filtered →
  * Embeddings).
  */
object Validation {

  // Profiles are packed into Long keys (label << 32 | position-bitmask),
  // with no per-call hash structures. The incremental vertex-count check
  // relies on the engines only ever extending *validated* prefixes (a valid
  // prefix covers exactly the previous step's |V(q')| data vertices). A
  // candidate always comes from the S(e_q) partition, so its label multiset
  // already equals the plan's: its profile multiset then equals the plan's
  // exactly when the profiles of its *shared* vertices (those already in
  // the prefix) do. The allocating reference form of Algorithm 5 lives with
  // the tests, which check these against it.

  /** Fill `keys` (length ≥ arity of candidate) with the packed profile of
    * each candidate vertex and return the number of vertices that are new
    * w.r.t. the partial embedding. Probes the prefix by binary search;
    * the engines read the prefix's [[VertexMasks]] instead
    * ([[sharedProfileKeys]]).
    */
  def profileKeys(tables: HyperedgeTables, step: ExpandStep, emb: Array[Int],
                  candidate: Int, keys: Array[Long]): Int = {
    val g = tables.graph
    val cvs = g.edges(candidate)
    val freshMask = 1L << step.pos
    var fresh = 0
    var i = 0
    while (i < cvs.length) {
      val v = cvs(i)
      var mask = freshMask
      var j = 0
      while (j < step.pos) {
        if (SetOps.contains(g.edges(emb(j)), v)) mask |= 1L << j
        j += 1
      }
      if (mask == freshMask) fresh += 1
      keys(i) = (g.labels(v).toLong << 32) | mask
      i += 1
    }
    fresh
  }

  /** Observation V.5 in incremental form (valid prefix assumed). */
  def freshCountOk(step: ExpandStep, fresh: Int): Boolean = fresh == step.newVertexCount

  /** Theorem V.2 on the keys [[profileKeys]] filled (`n` = the
    * candidate's arity): its shared-vertex keys must equal
    * [[ExpandStep.expectedSharedKeys]]. Reorders `keys`.
    */
  def profileKeysOk(step: ExpandStep, keys: Array[Long], n: Int): Boolean = {
    if (n != step.expectedProfileKeys.length) return false
    val freshMask = 1L << step.pos
    var ns = 0
    var i = 0
    while (i < n) {
      if ((keys(i) & 0xffffffffL) != freshMask) { keys(ns) = keys(i); ns += 1 }
      i += 1
    }
    sharedKeysOk(step, keys, ns)
  }

  /** Hot-path [[profileKeys]]: reads each vertex's position mask from the
    * prefix's table (`masks`, loaded by [[CandidateGen.candidatesInto]])
    * and fills `keys` with the packed profiles of the candidate's shared
    * vertices only. Returns the number of fresh vertices; the candidate's
    * arity minus it is the number of keys filled.
    */
  def sharedProfileKeys(tables: HyperedgeTables, step: ExpandStep, masks: VertexMasks,
                        candidate: Int, keys: Array[Long]): Int = {
    val g = tables.graph
    val cvs = g.edges(candidate)
    val posBit = 1L << step.pos
    var ns = 0
    var i = 0
    while (i < cvs.length) {
      val v = cvs(i)
      val m = masks.get(v)
      if (m != 0L) { keys(ns) = (g.labels(v).toLong << 32) | m | posBit; ns += 1 }
      i += 1
    }
    cvs.length - ns
  }

  /** Theorem V.2 on the `n` shared-vertex keys: insertion-sort them (they
    * are few) and compare with the plan's. Reorders `keys`.
    */
  def sharedKeysOk(step: ExpandStep, keys: Array[Long], n: Int): Boolean = {
    val exp = step.expectedSharedKeys
    if (n != exp.length) return false
    var i = 1
    while (i < n) {
      val k = keys(i)
      var j = i - 1
      while (j >= 0 && keys(j) > k) { keys(j + 1) = keys(j); j -= 1 }
      keys(j + 1) = k
      i += 1
    }
    i = 0
    while (i < n) { if (keys(i) != exp(i)) return false; i += 1 }
    true
  }
}
