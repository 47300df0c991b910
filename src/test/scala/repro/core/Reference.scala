package repro.core

/** The allocating reference forms of Algorithms 4 and 5, kept with the
  * tests as the oracle the engines' packed hot path is checked against.
  */
object Reference {

  /** he(v, s), copied out of the index's run for `v` and the partition of
    * `sig`; empty if `v` lies in no hyperedge with signature `sig`.
    */
  def incident(tables: HyperedgeTables, v: Int, sig: Signature): Array[Int] = {
    val pid = tables.partitionId(sig)
    val r = if (pid < 0) -1 else tables.runOf(v, pid)
    if (r < 0) SetOps.empty
    else java.util.Arrays.copyOfRange(tables.postings, tables.runStart(r), tables.runStart(r + 1))
  }

  /** Algorithm 4, allocating form: the candidates of `step` for `emb`. */
  def candidates(tables: HyperedgeTables, step: ExpandStep, emb: Array[Int]): Array[Int] = {
    val s = new CandidateGen.Scratch
    CandidateGen.candidatesInto(tables, step, emb, s)
    java.util.Arrays.copyOf(s.a, s.na)
  }

  /** The multiset of vertex profiles, (label, positions of the first
    * `n` entries of `hyperedges` containing the vertex), of the vertices of
    * `hyperedges(n - 1)`.
    */
  private def profiles(g: Hypergraph, hyperedges: Seq[Int], n: Int): Map[(Int, IndexedSeq[Int]), Int] =
    g.edges(hyperedges(n - 1)).toSeq
      .map(v => (g.labels(v), (0 until n).filter(j => g.edges(hyperedges(j)).contains(v))))
      .groupMapReduce(identity)(_ => 1)(_ + _)

  private def vertexCount(g: Hypergraph, hyperedges: Seq[Int]): Int =
    hyperedges.flatMap(e => g.edges(e)).distinct.size

  /** Observation V.5: the partial embedding `emb` extended with `candidate`
    * must cover as many distinct data vertices as the partial query it
    * matches has query vertices (counted from `plan.query` here, not read
    * from the plan's steps).
    */
  def vertexCountOk(tables: HyperedgeTables, plan: Plan, emb: Array[Int], candidate: Int): Boolean =
    vertexCount(tables.graph, emb.toSeq :+ candidate) ==
      vertexCount(plan.query, plan.order.toSeq.take(emb.length + 1))

  /** Theorem V.2: the multiset of data-side profiles of the new hyperedge's
    * vertices must equal the query-side multiset of the query hyperedge it
    * matches. A profile is (label, order positions of the matched
    * hyperedges containing the vertex, this step's included); the
    * query side is computed from `plan.query` and `plan.order`.
    */
  def profilesOk(tables: HyperedgeTables, plan: Plan, emb: Array[Int], candidate: Int): Boolean = {
    val n = emb.length + 1
    profiles(tables.graph, emb.toSeq :+ candidate, n) == profiles(plan.query, plan.order.toSeq, n)
  }

  /** Full Algorithm 5 for extending `emb` by `candidate` at order position
    * `emb.length`. The duplicate-edge reject is a fast path only: a
    * reused data hyperedge always fails the profile check (distinct query
    * hyperedges share at most a strict subset of their vertices, so some
    * query-side profile lacks the earlier position).
    */
  def isValid(tables: HyperedgeTables, plan: Plan, emb: Array[Int], candidate: Int): Boolean =
    !emb.contains(candidate) && vertexCountOk(tables, plan, emb, candidate) &&
      profilesOk(tables, plan, emb, candidate)

  /** Embeddings of `plan` by brute force: every prefix is extended by every
    * hyperedge of the step's partition that passes [[isValid]]. Shares no
    * candidate generation with the engines.
    */
  def count(tables: HyperedgeTables, plan: Plan): Long = {
    def extend(emb: Array[Int]): Long =
      if (emb.length == plan.numEdges) 1L
      else tables.edgesOf(plan.query.signature(plan.order(emb.length))).iterator
        .filter(c => isValid(tables, plan, emb, c))
        .map(c => extend(emb :+ c)).sum
    extend(Array.emptyIntArray)
  }
}
