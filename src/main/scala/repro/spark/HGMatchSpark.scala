package repro.spark

import scala.reflect.ClassTag
import org.apache.spark.sql.SparkSession
import repro.core._
import repro.engine.{CollectingSink, CountingSink, SequentialEngine, Sink}

/** The distributed match-by-hyperedge engine: the SCAN → EXPAND* → SINK
  * dataflow of Section VI with Spark distributing the SCAN.
  *
  * SCAN reads the first query hyperedge's partition, in ascending edge
  * ids, straight from the broadcast [[HyperedgeTables]] and splits it into
  * `defaultParallelism` contiguous slices, one Spark task each. Every task
  * runs [[SequentialEngine]] (the one LIFO scheduler,
  * [[repro.engine.TaskEngine]], at p = 1 on the task's thread) over the
  * broadcast tables, seeded with its slice: the paper's LIFO order inside
  * each task, expanding through the same [[repro.engine.Expander]] as every
  * local engine. Tasks share no work (there is no stealing across tasks),
  * and the driver sums their counts. This is the shape of BENU and HUGE:
  * the whole index on every task, the first-matched data hyperedges split
  * across tasks, local backtracking. No DataFrame is queried.
  */
object HGMatchSpark {

  /** Generate a plan from the broadcast tables' Card(·) metadata. */
  def plan(query: Hypergraph, hdf: HypergraphDF): Plan = Plan.generate(query, hdf.tables.value)

  /** SCAN (the edge ids of the partition with the first query hyperedge's
    * signature), then EXPAND* → SINK in every slice of it: one
    * [[SequentialEngine]] run per task into a fresh `newSink()`, whose
    * result `read` returns.
    */
  private def perSlice[S <: Sink, T: ClassTag](hdf: HypergraphDF, p: Plan)(
      newSink: () => S, read: S => T): Array[T] = {
    val sc = hdf.edges.sparkSession.sparkContext
    val tables = hdf.tables
    val k = sc.defaultParallelism
    sc.parallelize(0 until k, k).map { i =>
      val scan = tables.value.edgesOf(p.scanSignature)
      val n = scan.length.toLong
      val slice = java.util.Arrays.copyOfRange(scan, (i * n / k).toInt, ((i + 1) * n / k).toInt)
      val sink = newSink()
      SequentialEngine.run(tables.value, p, sink, seeds = Some(slice))
      read(sink)
    }.collect()
  }

  /** Convenience: plan + run + count for a query hypergraph. */
  def countEmbeddings(spark: SparkSession, hdf: HypergraphDF, query: Hypergraph): Long =
    perSlice(hdf, plan(query, hdf))(() => new CountingSink, (s: CountingSink) => s.count).sum

  /** Embeddings of `p` as hyperedge-id tuples in matching order (test use). */
  def collectTuples(hdf: HypergraphDF, p: Plan): Seq[Vector[Int]] =
    perSlice(hdf, p)(() => new CollectingSink, (s: CollectingSink) => s.results).toSeq.flatten
}
