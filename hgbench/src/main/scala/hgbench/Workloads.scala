package hgbench

import java.nio.charset.StandardCharsets
import java.nio.file.{Files, Path}
import scala.jdk.CollectionConverters._
import scala.util.hashing.MurmurHash3
import repro.core.{Hypergraph, HyperedgeTables}
import repro.data.{Datasets, QuerySampler, QuerySetting}

/** One query of a workload's pool. `id` names where it came from:
  * dataset / sampler setting / index in the sampler's output.
  */
final case class PoolQuery(id: String, dataset: String, query: Hypergraph) {
  def fingerprint: String = Workloads.fingerprint(query)
}

/** One stored reference row: the recount of one selected query. */
final case class Reference(workload: String, id: String, fingerprint: String, embeddings: Long)

/** The benchmark's query pools. Every pool is drawn from fixed sampler
  * seeds and the generated data hypergraphs alone; where a pool is
  * filtered or ranked, it is by the independent [[Recount]], never by an
  * engine under test, so a change to an engine cannot change a workload.
  */
object Workloads {

  val LocalMix = "local-mix"
  val ArChain = "ar-chain"
  val SparkWt = "spark-wt"
  val names: Seq[String] = Seq(LocalMix, ArChain, SparkWt)

  // local-mix: the first `localPerCell` draws of each (dataset, setting)
  // cell whose recount is at most `localMaxEmbeddings`. Heavier queries
  // take seconds each and belong to the ar-chain regime; left in, two CP
  // q4 queries would take most of every round.
  val localSettings: Seq[QuerySetting] = Seq(QuerySetting.q2, QuerySetting.q3, QuerySetting.q4)
  val localPerCell = 8
  val localDraws = 24
  val localMaxEmbeddings = 100000L
  def localSeed(s: QuerySetting): Long = 9000L + s.numEdges

  // ar-chain: the five heaviest (by recount) of the 16 AR q3 chains that
  // the Exp-4/5/6 harness samples with seed 4000.
  val chainPool = 16
  val chainSeed = 4000L
  val chainsKept = 5

  // spark-wt: the WT queries of the repo's Spark dataflow bench (seeds 61
  // and 62), three q2 and two q3, so the median falls on q2 queries.
  val sparkQ2 = 3
  val sparkQ3 = 2

  /** Faults known to make an engine miscount a pooled query; a failed
    * operation on one of these queries is attributed to it.
    */
  val knownFaults: Map[String, String] = Map(
    "AR/q3chain/2" ->
      ("CandidateGen.Scratch.ensureB grows the gather buffer without copying the posting " +
        "lists already gathered for the current pair, so those candidates are lost"),
  )

  def fingerprint(q: Hypergraph): String =
    f"${MurmurHash3.orderedHash(q.labels.toSeq +: q.edges.toSeq.map(_.toSeq))}%08x"

  def localCandidates(ds: String): Seq[PoolQuery] =
    for {
      s <- localSettings
      (q, i) <- QuerySampler.sample(Datasets.graph(ds), s, localDraws, localSeed(s)).zipWithIndex
    } yield PoolQuery(s"$ds/${s.name}/$i", ds, q)

  def chainCandidates(tables: HyperedgeTables): Seq[PoolQuery] =
    QuerySampler.sampleChains(tables.graph, tables, 3, chainPool, chainSeed).zipWithIndex
      .map { case (q, i) => PoolQuery(s"AR/q3chain/$i", "AR", q) }

  def sparkCandidates: Seq[PoolQuery] = {
    val g = Datasets.graph("WT")
    def draw(s: QuerySetting, n: Int, seed: Long) =
      QuerySampler.sample(g, s, n, seed).zipWithIndex.map { case (q, i) => PoolQuery(s"WT/${s.name}/$i", "WT", q) }
    draw(QuerySetting.q2, sparkQ2, 61L) ++ draw(QuerySetting.q3, sparkQ3, 62L)
  }

  /** Recount every candidate from scratch and select each pool. */
  def recountAll(log: String => Unit): Seq[Reference] = {
    def counted(qs: Seq[PoolQuery]): Seq[(PoolQuery, Long)] = {
      val rc = new Recount(Datasets.graph(qs.head.dataset))
      qs.map { q =>
        val t0 = System.nanoTime()
        val n = rc.count(q.query)
        log(f"  ${q.id}%-16s ${q.fingerprint} $n%10d  (${(System.nanoTime() - t0) / 1e6}%.0f ms)")
        q -> n
      }
    }
    def ref(w: String)(qn: (PoolQuery, Long)) = Reference(w, qn._1.id, qn._1.fingerprint, qn._2)

    val local = Datasets.singleThreadNames.flatMap { ds =>
      counted(localCandidates(ds))
        .groupBy { case (q, _) => q.id.split('/')(1) }.toSeq.sortBy(_._1)
        .flatMap { case (_, cell) =>
          cell.sortBy(_._1.id.split('/')(2).toInt).filter(_._2 <= localMaxEmbeddings).take(localPerCell)
        }
    }.map(ref(LocalMix))
    val chains = counted(chainCandidates(HyperedgeTables.build(Datasets.graph("AR"))))
      .sortBy { case (q, n) => (-n, q.id) }.take(chainsKept).map(ref(ArChain))
    val spark = counted(sparkCandidates).map(ref(SparkWt))
    local ++ chains ++ spark
  }

  def write(path: Path, refs: Seq[Reference]): Unit = {
    val lines = "# workload\tquery\tfingerprint\tembeddings (independent recount)" +:
      refs.map(r => s"${r.workload}\t${r.id}\t${r.fingerprint}\t${r.embeddings}")
    Files.write(path, lines.asJava, StandardCharsets.UTF_8)
  }

  def read(path: Path): Seq[Reference] =
    Files.readAllLines(path, StandardCharsets.UTF_8).asScala.toSeq
      .filterNot(l => l.startsWith("#") || l.isBlank)
      .map { l =>
        val Array(w, id, fp, n) = l.split('\t')
        Reference(w, id, fp, n.toLong)
      }

  /** The stored pool of `workload`, re-sampled and checked against the
    * stored fingerprints; a mismatch means the generators changed and the
    * reference must be regenerated.
    */
  def pool(workload: String, refs: Seq[Reference], candidates: => Seq[PoolQuery]): IndexedSeq[(PoolQuery, Long)] = {
    val byId = candidates.map(q => q.id -> q).toMap
    val mine = refs.filter(_.workload == workload)
    require(mine.nonEmpty, s"no reference rows for $workload")
    mine.map { r =>
      val q = byId.getOrElse(r.id, sys.error(s"${r.id}: the sampler no longer produces this query; regenerate the reference"))
      require(q.fingerprint == r.fingerprint,
        s"${r.id}: sampled query ${q.fingerprint} differs from the reference ${r.fingerprint}; regenerate the reference")
      q -> r.embeddings
    }.toIndexedSeq
  }
}
