package repro.engine

import org.scalatest.funsuite.AnyFunSuite
import repro.TestGraphs
import repro.baseline._
import repro.core._

/** The system-wide agreement property: for random data hypergraphs and
  * random-walk queries, every engine in the repo — sequential, task(p),
  * BFS, match-by-vertex (three orders, deduped), and RapidMatch-H — must
  * report the brute-force [[Reference.count]], which shares no candidate
  * generation with the engines. The Spark engine joins this property in
  * HGMatchSparkSpec (it needs a session).
  */
class CrossEngineSpec extends AnyFunSuite {

  private def checkAll(seed: Int, nv: Int, ne: Int, nl: Int, maxA: Int, k: Int): Unit = {
    val data = TestGraphs.random(nv, ne, nl, maxA, seed)
    val tb = HyperedgeTables.build(data)
    val idx = new IHSIndex(data)
    TestGraphs.sampleQuery(data, k, seed * 17).foreach { query =>
      val plan = Plan.generate(query, tb)
      val expected = Reference.count(tb, plan)
      assert(SequentialEngine.run(tb, plan).embeddings == expected, s"sequential seed=$seed")
      assert(TaskEngine.run(tb, plan, TaskEngineConfig(3)).outcome.embeddings == expected, s"task seed=$seed")
      assert(BfsEngine.run(tb, plan, threads = 2).outcome.embeddings == expected, s"bfs seed=$seed")
      for (algo <- Seq(Baselines.CFLH, Baselines.DAFH, Baselines.CECIH)) {
        val r = Baselines.run(algo, query, data, idx, collectTuples = true)
        assert(r.edgeTuples == expected, s"${algo.name} seed=$seed expected=$expected got=${r.edgeTuples}")
      }
      val rm = RapidMatchH.run(query, data, collectTuples = true)
      assert(rm.edgeTuples == expected, s"rapidmatch seed=$seed expected=$expected got=${rm.edgeTuples}")
    }
  }

  test("agreement on sparse 2-label graphs, 2-edge queries") {
    for (seed <- 1 to 10) checkAll(seed, 15, 18, 2, 3, 2)
  }

  test("agreement on sparse 2-label graphs, 3-edge queries") {
    for (seed <- 11 to 20) checkAll(seed, 18, 22, 2, 4, 3)
  }

  test("agreement on 1-label (worst-case symmetric) graphs") {
    for (seed <- 21 to 28) checkAll(seed, 12, 14, 1, 3, 2)
  }

  test("agreement on wider-arity graphs, 3-edge queries") {
    for (seed <- 29 to 36) checkAll(seed, 20, 18, 3, 5, 3)
  }

  test("agreement on 4-edge queries") {
    for (seed <- 37 to 42) checkAll(seed, 20, 24, 2, 3, 4)
  }

  test("agreement on denser label-rich graphs") {
    for (seed <- 43 to 50) checkAll(seed, 25, 40, 4, 4, 3)
  }
}
