package repro.spark

import scala.reflect.ClassTag
import org.apache.spark.sql.SparkSession
import repro.core._
import repro.engine.{CollectingSink, CountingSink, SequentialEngine, Sink}

/** The distributed match-by-hyperedge engine: the SCAN → EXPAND* → SINK
  * dataflow of Section VI with Spark distributing the SCAN.
  *
  * SCAN is a DataFrame stage over the cached `edges` frame. Each of its
  * partitions becomes one Spark task that runs [[SequentialEngine]] (the
  * one LIFO scheduler, [[repro.engine.TaskEngine]], at p = 1 on the task's
  * thread) over the broadcast [[HyperedgeTables]], seeded with the
  * partition's edge ids: the paper's LIFO order inside each task, expanding
  * through the same [[repro.engine.Expander]] as every local engine. Tasks share no work
  * (there is no stealing across tasks), and the driver sums their counts.
  * This is the shape of BENU and HUGE: the whole index on every task, the
  * first-matched data hyperedges split across tasks, local backtracking.
  */
object HGMatchSpark {

  /** Generate a plan from the broadcast tables' Card(·) metadata. */
  def plan(query: Hypergraph, hdf: HypergraphDF): Plan = Plan.generate(query, hdf.tables.value)

  /** SCAN (the edge ids of the partition with the first query hyperedge's
    * signature), then EXPAND* → SINK in every SCAN partition: one
    * [[SequentialEngine]] run per task into a fresh `newSink()`, whose
    * result `read` returns.
    */
  private def perPartition[S <: Sink, T: ClassTag](hdf: HypergraphDF, p: Plan)(
      newSink: () => S, read: S => T): Array[T] = {
    val spark = hdf.edges.sparkSession
    import spark.implicits._
    val tables = hdf.tables
    val scan = hdf.edges.where($"sig" === p.scanSignature.key).select($"eid").as[Long]
    scan.rdd.mapPartitions { eids =>
      val sink = newSink()
      SequentialEngine.run(tables.value, p, sink, seeds = Some(eids.map(_.toInt).toArray))
      Iterator(read(sink))
    }.collect()
  }

  /** Convenience: plan + run + count for a query hypergraph. */
  def countEmbeddings(spark: SparkSession, hdf: HypergraphDF, query: Hypergraph): Long =
    perPartition(hdf, plan(query, hdf))(() => new CountingSink, (s: CountingSink) => s.count).sum

  /** Embeddings of `p` as hyperedge-id tuples in matching order (test use). */
  def collectTuples(hdf: HypergraphDF, p: Plan): Seq[Vector[Int]] =
    perPartition(hdf, p)(() => new CollectingSink, (s: CollectingSink) => s.results).toSeq.flatten
}
