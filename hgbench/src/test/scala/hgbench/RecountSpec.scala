package hgbench

import org.apache.spark.sql.SparkSession
import org.scalatest.BeforeAndAfterAll
import org.scalatest.funsuite.AnyFunSuite
import repro.{Oracle, TestGraphs}
import repro.core.{Hypergraph, MatchOracle}
import repro.data.{Datasets, QuerySampler, QuerySetting}

/** The benchmark's reference counter against the paper's worked example,
  * the DuckDB oracle and the sampler's guarantee.
  */
class RecountSpec extends AnyFunSuite with BeforeAndAfterAll {

  private lazy val spark = SparkSession.builder()
    .master("local[2]")
    .appName("recount-spec")
    .config("spark.ui.enabled", "false")
    .config("spark.sql.shuffle.partitions", "4")
    .getOrCreate()

  override def afterAll(): Unit = spark.stop()

  private def assertOracle(data: Hypergraph, query: Hypergraph): Unit = {
    import spark.implicits._
    Oracle.assertEquivalent(
      Seq(new Recount(data).count(query)).toDF("embeddings"),
      MatchOracle.countSql(query),
      "verts" -> MatchOracle.vertsDf(spark, data),
      "edges" -> MatchOracle.edgesDf(spark, data),
    )
  }

  test("Fig-1 example has exactly the two embeddings of the paper") {
    assert(new Recount(Hypergraph.fig1Data).count(Hypergraph.fig1Query) == 2)
  }

  test("agrees with the DuckDB oracle on small random hypergraphs") {
    for (seed <- 31 to 42; k <- Seq(2, 3)) {
      val data = TestGraphs.random(16, 20, 3, 3, seed)
      TestGraphs.sampleQuery(data, k, seed * 5 + k).foreach(assertOracle(data, _))
    }
  }

  test("agrees with the DuckDB oracle on a disconnected query") {
    // Two vertex-disjoint {A,B} hyperedges: (e1,e2) and (e2,e1) of Fig 1.
    val q = Hypergraph(Seq(0, 1, 0, 1), Seq(Seq(0, 1), Seq(2, 3)))
    assert(new Recount(Hypergraph.fig1Data).count(q) == 2)
    assertOracle(Hypergraph.fig1Data, q)
  }

  test("every query sampled from the data has at least one embedding") {
    for (ds <- Datasets.singleThreadNames; s <- Seq(QuerySetting.q2, QuerySetting.q3, QuerySetting.q4)) {
      val g = Datasets.graph(ds)
      val recount = new Recount(g)
      QuerySampler.sample(g, s, 3, seed = 77L).foreach { q =>
        assert(recount.count(q) >= 1, s"$ds ${s.name}: $q")
      }
    }
  }
}
