package repro.engine

import org.scalatest.funsuite.AnyFunSuite
import repro.TestGraphs
import repro.core._

class BfsEngineSpec extends AnyFunSuite {

  private val h = Hypergraph.fig1Data
  private val t = HyperedgeTables.build(h)
  private val q = Hypergraph.fig1Query
  private val plan = Plan.fromOrder(q, Array(0, 1, 2))

  test("fig1 sequential BFS") {
    val r = BfsEngine.run(t, plan)
    assert(r.outcome.completed && r.outcome.embeddings == 2)
  }

  test("fig1 parallel BFS") {
    for (p <- Seq(2, 4)) {
      val r = BfsEngine.run(t, plan, threads = p)
      assert(r.outcome.embeddings == 2, s"p=$p")
    }
  }

  test("agrees with the brute-force reference on random workloads") {
    for (seed <- 1 to 12) {
      val data = TestGraphs.random(20, 30, 2, 4, seed)
      val tb = HyperedgeTables.build(data)
      TestGraphs.sampleQuery(data, 3, seed * 3).foreach { query =>
        val p = Plan.generate(query, tb)
        val expected = Reference.count(tb, p)
        for (threads <- Seq(1, 3)) {
          assert(BfsEngine.run(tb, p, threads).outcome.embeddings == expected,
            s"seed=$seed threads=$threads")
        }
      }
    }
  }

  test("counters merged over level threads equal the task engine's") {
    for (seed <- 1 to 12) {
      val data = TestGraphs.random(20, 30, 2, 4, seed)
      val tb = HyperedgeTables.build(data)
      TestGraphs.sampleQuery(data, 3, seed * 3).foreach { query =>
        val p = Plan.generate(query, tb)
        // BFS expands every level, so compare with the emitting task run
        // (a count-only sink skips building the last level).
        val task = TaskEngine.run(tb, p, TaskEngineConfig(1), new CollectingSink).outcome
        assert(task.embeddings == Reference.count(tb, p), s"seed=$seed")
        for (threads <- Seq(1, 4)) {
          val bfs = BfsEngine.run(tb, p, threads).outcome
          assert(bfs.embeddings == task.embeddings, s"seed=$seed threads=$threads")
          assert(bfs.counters == task.counters, s"seed=$seed threads=$threads")
        }
      }
    }
  }

  test("a level thread's failure is rethrown at one and at four threads") {
    // Step 2's pair names order position 7 of a 2-hyperedge prefix, so
    // every expansion at that level throws.
    val steps = plan.steps.clone()
    steps(1) = steps(1).copy(pairs = Array(PairSpec(7, 0, 1)))
    val broken = plan.copy(steps = steps)
    for (threads <- Seq(1, 4))
      intercept[ArrayIndexOutOfBoundsException](BfsEngine.run(t, broken, threads))
  }

  test("memory cap triggers the OOM stand-in") {
    val data = TestGraphs.random(40, 200, 1, 3, 5)
    val tb = HyperedgeTables.build(data)
    TestGraphs.sampleQuery(data, 3, 6).foreach { query =>
      val p = Plan.generate(query, tb)
      val r = BfsEngine.run(tb, p, maxBytes = 64)
      assert(r.memoryExceeded)
      assert(!r.outcome.completed)
    }
  }

  test("peak memory grows with materialised intermediates vs task engine") {
    // On a result-heavy workload BFS peak should exceed the task engine's
    // LIFO queue peak (the Exp-5 claim).
    val data = TestGraphs.random(40, 300, 1, 3, 8)
    val tb = HyperedgeTables.build(data)
    TestGraphs.sampleQuery(data, 3, 9).foreach { query =>
      val p = Plan.generate(query, tb)
      val bfs = BfsEngine.run(tb, p)
      val task = TaskEngine.run(tb, p, TaskEngineConfig(1))
      assert(bfs.outcome.embeddings == task.outcome.embeddings)
      if (bfs.outcome.embeddings > 1000) {
        assert(bfs.peakLevelBytes > task.peakQueueBytes,
          s"bfs=${bfs.peakLevelBytes} task=${task.peakQueueBytes} emb=${bfs.outcome.embeddings}")
      }
    }
  }

  test("single-edge query needs no expansion") {
    val query = Hypergraph(Seq(0, 1), Seq(Seq(0, 1)))
    val r = BfsEngine.run(t, Plan.generate(query, t))
    assert(r.outcome.embeddings == 2)
  }

  test("timeout reports incomplete") {
    val data = TestGraphs.random(60, 400, 1, 3, 12)
    val tb = HyperedgeTables.build(data)
    TestGraphs.sampleQuery(data, 4, 13).foreach { query =>
      val r = BfsEngine.run(tb, Plan.generate(query, tb), timeoutNanos = 1L)
      assert(!r.outcome.completed)
    }
  }

  test("a timeout in the last level reports the embeddings completed so far") {
    // A 2-edge query has one EXPAND level; with a 1 ns deadline the
    // single-thread BFS stops after expanding the first scan edge.
    val data = TestGraphs.random(25, 60, 2, 4, 77)
    val tb = HyperedgeTables.build(data)
    val query = TestGraphs.sampleQuery(data, 2, 99).get
    val p = Plan.generate(query, tb)
    val first = tb.edgesOf(p.scanSignature)(0)
    val expected = TaskEngine.run(tb, p, TaskEngineConfig(1), seeds = Some(Array(first))).outcome.embeddings
    assert(expected > 0 && tb.edgesOf(p.scanSignature).length > 1) // precondition
    val r = BfsEngine.run(tb, p, timeoutNanos = 1L)
    assert(!r.outcome.completed && !r.memoryExceeded)
    assert(r.outcome.embeddings == expected)
  }
}
