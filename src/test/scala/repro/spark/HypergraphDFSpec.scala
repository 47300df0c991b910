package repro.spark

import org.apache.spark.sql.functions._
import repro.SparkSpec
import repro.core.Hypergraph

class HypergraphDFSpec extends SparkSpec {

  private lazy val h = Hypergraph.fig1Data
  private lazy val hdf = HypergraphDF.build(spark, h)

  test("vertices frame has one row per vertex") {
    assert(hdf.vertices.count() == h.numVertices)
  }

  test("edges frame has one row per hyperedge with its signature key") {
    assert(hdf.edges.count() == h.numEdges)
    val sigs = hdf.edges.select("sig").distinct().collect().map(_.getString(0)).toSet
    assert(sigs == Set("0|1", "0|0|2", "0|0|1|2"))
  }

  test("partition scan by signature returns the Table I partitions") {
    val p1 = hdf.edges.where(col("sig") === "0|1").select("eid").collect().map(_.getLong(0)).sorted
    assert(p1.toSeq == Seq(0L, 1L))
    val p3 = hdf.edges.where(col("sig") === "0|0|1|2").select("eid").collect().map(_.getLong(0)).sorted
    assert(p3.toSeq == Seq(4L, 5L))
  }

  test("inverted index is the exploded incidence relation") {
    assert(hdf.inverted.count() == h.totalIncidence)
    // he(v0, {A,A,B,C}) = {e5} (Example V.1 lookup)
    val posting = hdf.inverted
      .where(col("vid") === 0L && col("sig") === "0|0|1|2")
      .select("eid").collect().map(_.getLong(0))
    assert(posting.toSeq == Seq(4L))
  }

  test("cardinality metadata matches partition sizes (Def V.2)") {
    val frame = hdf.edges.groupBy("sig").count().collect().map(r => r.getString(0) -> r.getLong(1)).toMap
    assert(frame == Map("0|1" -> 2L, "0|0|2" -> 2L, "0|0|1|2" -> 2L))
    (0 until h.numEdges).foreach { e =>
      val sig = h.signature(e)
      assert(hdf.tables.value.cardinality(sig) == frame(sig.key))
    }
  }

  test("edge rows carry aligned vids and labs arrays") {
    val row = hdf.edges.where(col("eid") === 4L).select("vids", "labs").head()
    val vids = row.getSeq[Long](0)
    val labs = row.getSeq[Int](1)
    assert(vids == Seq(0L, 1L, 3L, 4L))
    assert(labs == vids.map(v => h.labels(v.toInt)))
  }
}
