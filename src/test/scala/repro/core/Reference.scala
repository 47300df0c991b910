package repro.core

import scala.collection.mutable

/** The allocating reference forms of Algorithms 4 and 5, kept with the
  * tests as the oracle the engines' packed hot path is checked against.
  */
object Reference {

  /** Algorithm 4, allocating form: the candidates of `step` for `emb`. */
  def candidates(tables: HyperedgeTables, step: ExpandStep, emb: Array[Int]): Array[Int] = {
    val s = new CandidateGen.Scratch
    CandidateGen.candidatesInto(tables, step, emb, s)
    java.util.Arrays.copyOf(s.a, s.na)
  }

  /** Observation V.5: the partial embedding extended with `candidate` must
    * cover exactly |V(q')| distinct data vertices.
    */
  def vertexCountOk(tables: HyperedgeTables, step: ExpandStep, emb: Array[Int], candidate: Int): Boolean = {
    val g = tables.graph
    val verts = mutable.HashSet.empty[Int]
    var j = 0
    while (j < step.pos) { g.edges(emb(j)).foreach(verts += _); j += 1 }
    g.edges(candidate).foreach(verts += _)
    verts.size == step.expectedVertexCount
  }

  /** Theorem V.2: multiset of data-side profiles of the new hyperedge's
    * vertices must equal the plan's query-side profile multiset. A data
    * vertex's profile is (label, sorted order-positions of the matched
    * hyperedges containing it — including this step's).
    */
  def profilesOk(tables: HyperedgeTables, step: ExpandStep, emb: Array[Int], candidate: Int): Boolean = {
    val g = tables.graph
    val dataProfiles = g.edges(candidate).toIndexedSeq.map { v =>
      val positions = mutable.ArrayBuffer.empty[Int]
      var p = 0
      while (p < step.pos) {
        if (SetOps.contains(g.edges(emb(p)), v)) positions += p
        p += 1
      }
      positions += step.pos
      Profile(g.labels(v), positions.toVector)
    }
    Profile.canon(dataProfiles) == step.expectedProfiles
  }

  /** Full Algorithm 5. The duplicate-edge reject is a fast path only: a
    * reused data hyperedge always fails the profile check (distinct query
    * hyperedges share at most a strict subset of their vertices, so some
    * query-side profile lacks the earlier position).
    */
  def isValid(tables: HyperedgeTables, step: ExpandStep, emb: Array[Int], candidate: Int): Boolean = {
    var j = 0
    while (j < step.pos) { if (emb(j) == candidate) return false; j += 1 }
    vertexCountOk(tables, step, emb, candidate) && profilesOk(tables, step, emb, candidate)
  }

  /** Embeddings of `plan` by brute force: every prefix is extended by every
    * hyperedge of the step's partition that passes [[isValid]]. Shares no
    * candidate generation with the engines.
    */
  def count(tables: HyperedgeTables, plan: Plan): Long = {
    def extend(emb: Array[Int]): Long =
      if (emb.length == plan.numEdges) 1L
      else {
        val step = plan.steps(emb.length - 1)
        tables.edgesOf(step.signature).iterator
          .filter(c => isValid(tables, step, emb, c))
          .map(c => extend(emb :+ c)).sum
      }
    tables.edgesOf(plan.scanSignature).iterator.map(e => extend(Array(e))).sum
  }
}
