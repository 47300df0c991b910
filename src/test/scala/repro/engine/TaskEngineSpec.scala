package repro.engine

import java.util.concurrent.atomic.AtomicLong
import org.scalatest.concurrent.{Signaler, ThreadSignaler, TimeLimits}
import org.scalatest.funsuite.AnyFunSuite
import org.scalatest.time.SpanSugar._
import repro.TestGraphs
import repro.core._

class TaskEngineSpec extends AnyFunSuite with TimeLimits {

  // Interrupts the test thread if a run hangs instead of failing.
  private implicit val signaler: Signaler = ThreadSignaler

  /** Counts like [[CountingSink]] but throws on its `failAt`-th embedding. */
  private final class ThrowingSink(failAt: Long) extends Sink {
    private val n = new AtomicLong
    def consume(emb: Array[Int]): Unit =
      if (n.incrementAndGet() == failAt) throw new IllegalStateException("sink failed")
    def count: Long = n.get()
  }

  private val h = Hypergraph.fig1Data
  private val t = HyperedgeTables.build(h)
  private val q = Hypergraph.fig1Query
  private val plan = Plan.fromOrder(q, Array(0, 1, 2))

  test("fig1 with 1 thread") {
    val r = TaskEngine.run(t, plan, TaskEngineConfig(1))
    assert(r.outcome.completed && r.outcome.embeddings == 2)
  }

  test("fig1 with several thread counts") {
    for (p <- Seq(2, 3, 4, 8)) {
      val r = TaskEngine.run(t, plan, TaskEngineConfig(p))
      assert(r.outcome.embeddings == 2, s"p=$p")
    }
  }

  test("collecting sink sees the exact tuples under parallelism") {
    val sink = new CollectingSink
    TaskEngine.run(t, plan, TaskEngineConfig(4), sink)
    assert(sink.results.toSet == Set(Vector(0, 2, 4), Vector(1, 3, 5)))
  }

  test("stealing off still computes the full result") {
    for (p <- Seq(1, 2, 4)) {
      val r = TaskEngine.run(t, plan, TaskEngineConfig(p, stealing = false))
      assert(r.outcome.embeddings == 2, s"p=$p nostl")
    }
  }

  test("agrees with sequential engine on random workloads, all thread counts") {
    for (seed <- 1 to 12) {
      val data = TestGraphs.random(20, 30, 2, 4, seed)
      val tb = HyperedgeTables.build(data)
      TestGraphs.sampleQuery(data, 3, seed * 3).foreach { query =>
        val p = Plan.generate(query, tb)
        // SequentialEngine is TaskEngine at p = 1, so it is also held to
        // the brute-force recount.
        val expected = SequentialEngine.run(tb, p).embeddings
        assert(expected == Reference.count(tb, p), s"seed=$seed sequential")
        for (threads <- Seq(1, 2, 4, 7); stealing <- Seq(true, false)) {
          val r = TaskEngine.run(tb, p, TaskEngineConfig(threads, stealing))
          assert(r.outcome.embeddings == expected,
            s"seed=$seed threads=$threads stealing=$stealing")
        }
      }
    }
  }

  test("per-worker stats account for all executed tasks") {
    // Emitting sink: tasks = scan seeds (2) + expansions spawned (2 at
    // step 1) + sinks (2).
    val collected = TaskEngine.run(t, plan, TaskEngineConfig(3), new CollectingSink)
    assert(collected.workers.map(_.tasks).sum == 6)
    // Count-only sink: the step-1 tasks count their extensions into the
    // sink, so the 2 complete embeddings are never queued.
    val counted = TaskEngine.run(t, plan, TaskEngineConfig(3), new CountingSink)
    assert(counted.workers.map(_.tasks).sum == 4)
    assert(counted.outcome.embeddings == 2)
  }

  test("peak queue bytes within the Theorem VI.1 bound") {
    for (seed <- 1 to 8) {
      val data = TestGraphs.random(25, 40, 2, 4, seed)
      val tb = HyperedgeTables.build(data)
      TestGraphs.sampleQuery(data, 3, seed * 5).foreach { query =>
        val p = Plan.generate(query, tb)
        val r = TaskEngine.run(tb, p, TaskEngineConfig(4))
        // Bound: O(ā_q · |E(q)|² · |E(H)|) task bytes (+ constant task
        // headers); use a generous constant factor of 64.
        val bound = 64L * (query.avgArity.ceil.toLong max 1) *
          query.numEdges * query.numEdges * data.numEdges
        assert(r.peakQueueBytes <= bound,
          s"seed=$seed peak=${r.peakQueueBytes} bound=$bound")
      }
    }
  }

  test("work stealing happens on skewed seeds (smoke)") {
    // Single scan seed with many expansions: without stealing only one
    // worker is busy; with stealing others pick up tasks.
    val data = TestGraphs.random(30, 120, 1, 3, 42)
    val tb = HyperedgeTables.build(data)
    TestGraphs.sampleQuery(data, 3, 7).foreach { query =>
      val p = Plan.generate(query, tb)
      val r = TaskEngine.run(tb, p, TaskEngineConfig(4))
      assert(r.outcome.embeddings == Reference.count(tb, p))
      // at least the result is right; steal counters are observable
      assert(r.workers.map(_.steals).sum >= 0)
    }
  }

  test("timeout aborts and reports incomplete") {
    val data = TestGraphs.random(60, 400, 1, 3, 11)
    val tb = HyperedgeTables.build(data)
    TestGraphs.sampleQuery(data, 4, 23).foreach { query =>
      val p = Plan.generate(query, tb)
      val r = TaskEngine.run(tb, p, TaskEngineConfig(4), timeoutNanos = 1L)
      assert(!r.outcome.completed)
    }
  }

  test("a failing sink fails a 1-worker run instead of completing it") {
    failAfter(30.seconds) {
      val e = intercept[IllegalStateException](TaskEngine.run(t, plan, TaskEngineConfig(1), new ThrowingSink(1)))
      assert(e.getMessage == "sink failed")
    }
  }

  test("a failing sink fails a multi-worker run instead of hanging it") {
    val data = TestGraphs.random(25, 60, 2, 4, 77)
    val tb = HyperedgeTables.build(data)
    val query = TestGraphs.sampleQuery(data, 3, 99).get
    val p = Plan.generate(query, tb)
    assert(Reference.count(tb, p) > 10) // precondition: work left after the failure
    failAfter(30.seconds) {
      val e = intercept[IllegalStateException](TaskEngine.run(tb, p, TaskEngineConfig(4), new ThrowingSink(5)))
      assert(e.getMessage == "sink failed")
    }
  }

  test("a 1-worker run sinks on the calling thread") {
    val threads = java.util.concurrent.ConcurrentHashMap.newKeySet[Thread]()
    val sink = new Sink {
      private val n = new AtomicLong
      def consume(emb: Array[Int]): Unit = { threads.add(Thread.currentThread()); n.incrementAndGet() }
      def count: Long = n.get()
    }
    val r = TaskEngine.run(t, plan, TaskEngineConfig(1), sink)
    assert(r.outcome.embeddings == 2)
    assert(threads.size == 1 && threads.contains(Thread.currentThread()))
  }

  test("seeds split into two halves give counts that sum to the unseeded count") {
    val data = TestGraphs.random(25, 60, 2, 4, 77)
    val tb = HyperedgeTables.build(data)
    val query = TestGraphs.sampleQuery(data, 3, 99).get
    val p = Plan.generate(query, tb)
    val scan = tb.edgesOf(p.scanSignature)
    val (left, right) = scan.splitAt(scan.length / 2)
    assert(left.nonEmpty && right.nonEmpty)
    for (threads <- Seq(1, 3)) {
      def seeded(s: Array[Int]) = TaskEngine.run(tb, p, TaskEngineConfig(threads), seeds = Some(s)).outcome.embeddings
      val all = TaskEngine.run(tb, p, TaskEngineConfig(threads)).outcome.embeddings
      assert(all == Reference.count(tb, p))
      assert(seeded(left) + seeded(right) == all, s"threads=$threads")
    }
  }

  test("rejects zero threads") {
    assertThrows[IllegalArgumentException] {
      TaskEngine.run(t, plan, TaskEngineConfig(0))
    }
  }

  test("more workers than scan seeds still completes") {
    // partition {A,B} has 2 seeds; 8 workers → 6 start idle and must steal
    // or exit cleanly.
    val r = TaskEngine.run(t, plan, TaskEngineConfig(8))
    assert(r.outcome.embeddings == 2)
  }

  test("empty scan partition terminates immediately") {
    val query = Hypergraph(Seq(1, 1), Seq(Seq(0, 1))) // sig {B,B} absent
    val r = TaskEngine.run(t, Plan.generate(query, t), TaskEngineConfig(4))
    assert(r.outcome.completed && r.outcome.embeddings == 0)
  }

  test("single-edge query sinks straight from scan") {
    val query = Hypergraph(Seq(0, 1), Seq(Seq(0, 1)))
    val r = TaskEngine.run(t, Plan.generate(query, t), TaskEngineConfig(3))
    assert(r.outcome.embeddings == 2)
  }

  test("contiguous share seeding covers every seed exactly once") {
    // With stealing off and 3 workers, the 2 seeds go to distinct shares
    // and both embeddings are still found.
    val collected = TaskEngine.run(t, plan, TaskEngineConfig(3, stealing = false), new CollectingSink)
    assert(collected.outcome.embeddings == 2)
    assert(collected.workers.map(_.tasks).sum == 6)
    val counted = TaskEngine.run(t, plan, TaskEngineConfig(3, stealing = false), new CountingSink)
    assert(counted.outcome.embeddings == 2)
    assert(counted.workers.map(_.tasks).sum == 4)
  }

  test("deterministic counts across repeated parallel runs") {
    val data = TestGraphs.random(25, 60, 2, 4, 77)
    val tb = HyperedgeTables.build(data)
    TestGraphs.sampleQuery(data, 3, 99).foreach { query =>
      val p = Plan.generate(query, tb)
      val counts = (1 to 5).map(_ => TaskEngine.run(tb, p, TaskEngineConfig(6)).outcome.embeddings)
      assert(counts.distinct.size == 1)
    }
  }
}
