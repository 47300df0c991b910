package repro.core

import scala.collection.mutable

/** The "indexed data hypergraph" of Section IV: signature-partitioned
  * hyperedge tables (IV-B) plus the inverted hyperedge index (IV-C) and the
  * cardinality metadata the plan generator reads (V-A).
  *
  * One [[Partition]] corresponds to one hyperedge table of Table I: the `E`
  * column is `edgeIds`. The `I` columns of all tables form one CSR index
  * laid out per vertex: he(v) is stored sorted by (partition id, edge id),
  * so he(v, s) is one contiguous run of ascending edge ids, and candidate
  * generation (Algorithm 4) copies it straight off the index.
  *
  *  - `runOff(v) until runOff(v + 1)`: the runs of vertex `v`, size |V|+1
  *  - `runPart(r)`: the dense partition id of run `r`, ascending per vertex
  *  - `runStart(r) until runStart(r + 1)`: the postings of run `r`, size R+1
  *  - `postings`: the edge ids, size Σa(e)
  */
final class HyperedgeTables private (
    val graph: Hypergraph,
    val partitions: Map[Signature, HyperedgeTables.Partition],
    private[core] val runOff: Array[Int],
    private[core] val runPart: Array[Int],
    private[core] val runStart: Array[Int],
    private[core] val postings: Array[Int],
    val buildNanos: Long,
) extends Serializable {

  /** Card(e_q, H) of Definition V.2 — number of rows in the partition with
    * the query hyperedge's signature; O(1) off the table metadata.
    */
  def cardinality(sig: Signature): Int =
    partitions.get(sig).map(_.edgeIds.length).getOrElse(0)

  /** The dense id of the partition for `sig`, or -1 if no data hyperedge
    * has that signature.
    */
  def partitionId(sig: Signature): Int = {
    val p = partitions.getOrElse(sig, null)
    if (p == null) -1 else p.id
  }

  /** The run holding he(v, s) for the partition with id `pid`, or -1 if
    * `v` lies in no hyperedge of it: a binary search over `v`'s runs.
    */
  private[core] def runOf(v: Int, pid: Int): Int = {
    val r = java.util.Arrays.binarySearch(runPart, runOff(v), runOff(v + 1), pid)
    if (r >= 0) r else -1
  }

  /** All hyperedge ids in the partition for `sig` (the SCAN operator input). */
  def edgesOf(sig: Signature): Array[Int] =
    partitions.get(sig).map(_.edgeIds).getOrElse(SetOps.empty)

  /** Estimated size in bytes of the raw hyperedge tables: 4 bytes per
    * incidence entry plus one signature header per partition — the
    * O(ā_H·|E(H)|) bound of Section IV-B.
    */
  def storageBytes: Long =
    partitions.valuesIterator.map { p =>
      4L * p.edgeIds.iterator.map(graph.arity(_).toLong).sum + 4L * p.signature.arity
    }.sum

  /** Size in bytes of the inverted index's four CSR arrays: each hyperedge
    * id appears in a(e) runs — the O(ā_H·|E(H)|) bound of IV-C.
    */
  def indexBytes: Long =
    4L * (runOff.length.toLong + runPart.length + runStart.length + postings.length)
}

object HyperedgeTables {

  /** One hyperedge table: all data hyperedges sharing `signature`, in
    * ascending id order; `id` is its dense partition id in the index.
    */
  final class Partition(
      val signature: Signature,
      val edgeIds: Array[Int],
      val id: Int,
  ) extends Serializable

  /** Offline preprocessing (Section IV-A, left half of Fig 3): group the
    * hyperedges by signature, then build the per-vertex CSR index by a
    * counting sort in O(ā·|E|). Walking the partitions in id order and
    * each partition's edges in ascending order puts every vertex's bucket
    * in (partition id, edge id) order, so cutting it into runs needs no sort.
    */
  def build(graph: Hypergraph): HyperedgeTables = {
    val t0 = System.nanoTime()
    val bySig = mutable.LinkedHashMap.empty[Signature, mutable.ArrayBuilder.ofInt]
    var e = 0
    while (e < graph.numEdges) {
      bySig.getOrElseUpdate(graph.signature(e), new mutable.ArrayBuilder.ofInt) += e
      e += 1
    }
    val parts = bySig.iterator.zipWithIndex.map { case ((sig, ids), pid) =>
      new Partition(sig, ids.result(), pid) // ascending: built in edge-id order
    }.toArray

    // Bucket offsets: vertex v's postings are postings(start(v) until start(v + 1)).
    val nv = graph.numVertices
    val start = new Array[Int](nv + 1)
    graph.edges.foreach(_.foreach(v => start(v + 1) += 1))
    var v = 0
    while (v < nv) { start(v + 1) += start(v); v += 1 }

    // Scatter: vertex v's bucket fills in (partition id, edge id) order.
    val postings = new Array[Int](start(nv))
    val cursor = java.util.Arrays.copyOf(start, nv)
    val edgePart = new Array[Int](graph.numEdges)
    parts.foreach(p => p.edgeIds.foreach { eid =>
      edgePart(eid) = p.id
      graph.edges(eid).foreach { u => postings(cursor(u)) = eid; cursor(u) += 1 }
    })

    // Cut each bucket into runs: one per partition the vertex lies in.
    val runOff = new Array[Int](nv + 1)
    val runPart = new mutable.ArrayBuilder.ofInt
    val runStart = new mutable.ArrayBuilder.ofInt
    v = 0
    while (v < nv) {
      runOff(v) = runPart.length
      var last = -1
      var i = start(v)
      while (i < start(v + 1)) {
        val pid = edgePart(postings(i))
        if (pid != last) { runPart += pid; runStart += i; last = pid }
        i += 1
      }
      v += 1
    }
    runOff(nv) = runPart.length
    runStart += postings.length

    new HyperedgeTables(graph, parts.iterator.map(p => p.signature -> p).toMap,
      runOff, runPart.result(), runStart.result(), postings, System.nanoTime() - t0)
  }
}
