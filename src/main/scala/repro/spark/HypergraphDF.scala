package repro.spark

import org.apache.spark.broadcast.Broadcast
import org.apache.spark.sql.{DataFrame, SparkSession}
import org.apache.spark.sql.functions._
import repro.core.{HyperedgeTables, Hypergraph}

/** An indexed data hypergraph on Spark (Section IV):
  *
  *  - `tables` — the [[HyperedgeTables]] (tables, Card(·) metadata and the
  *    inverted index as one per-vertex CSR, where he(v, s) is one run of
  *    ascending edge ids), broadcast once so every task expands against a
  *    local copy; [[HGMatchSpark]] plans, scans and expands from it alone
  *  - `edges(eid, sig, vids, labs)` — one row per hyperedge, cached; `sig`
  *    is the signature key, so `edges.where($"sig" === s)` is the partition
  *    scan of Section IV-B
  *  - `vertices(vid, label)` and `inverted(vid, sig, eid)` — uncached
  *    relational views of the labels and of the inverted index of IV-C
  *
  * The three frames are kept for the tests and the benchmark harness only;
  * the matcher reads none of them.
  */
final case class HypergraphDF(
    vertices: DataFrame,
    edges: DataFrame,
    inverted: DataFrame,
    tables: Broadcast[HyperedgeTables],
)

object HypergraphDF {

  /** Build the indexed representation from a local hypergraph (offline
    * preprocessing of Fig 3, Spark tier). Edge vertex arrays are sorted
    * ascending; label arrays are aligned with them.
    */
  def build(spark: SparkSession, h: Hypergraph): HypergraphDF = {
    import spark.implicits._

    val verts = (0 until h.numVertices).map(v => (v.toLong, h.labels(v))).toDF("vid", "label")

    val edgeRows = (0 until h.numEdges).map { e =>
      val vids = h.edges(e).map(_.toLong).toSeq
      val labs = h.edges(e).map(h.labels).toSeq
      (e.toLong, h.signature(e).key, vids, labs)
    }
    val edges = edgeRows.toDF("eid", "sig", "vids", "labs").cache()

    val inverted = edges
      .select($"eid", $"sig", explode($"vids") as "vid")
      .select($"vid", $"sig", $"eid")

    HypergraphDF(verts, edges, inverted, spark.sparkContext.broadcast(HyperedgeTables.build(h)))
  }
}
