package repro.engine

import scala.collection.mutable.ArrayBuffer
import org.scalatest.funsuite.AnyFunSuite
import repro.TestGraphs
import repro.core._

class ExpanderSpec extends AnyFunSuite {

  test("countExtensions and expand agree on counts and counters on random seeds") {
    var prefixes = 0
    for (seed <- 1 to 20; k <- Seq(3, 4)) {
      val data = TestGraphs.random(20, 30, 2, 5, seed)
      val tb = HyperedgeTables.build(data)
      TestGraphs.sampleQuery(data, k, seed * 13 + k).foreach { query =>
        val plan = Plan.generate(query, tb)
        val emitting = new MatchCounters
        val counting = new MatchCounters
        val expander = new Expander(tb, plan, emitting)
        val counter = new Expander(tb, plan, counting)
        // Every valid prefix of every step, each expanded both ways.
        var frontier: Seq[Array[Int]] = tb.edgesOf(plan.scanSignature).toSeq.map(Array(_))
        while (frontier.nonEmpty && frontier.head.length < plan.numEdges) {
          val next = ArrayBuffer.empty[Array[Int]]
          frontier.foreach { emb =>
            val before = next.length
            expander.expand(emb)(next += _)
            assert(counter.countExtensions(emb) == next.length - before, s"seed=$seed emb=${emb.toSeq}")
            assert(counting.snapshot == emitting.snapshot, s"seed=$seed emb=${emb.toSeq}")
            prefixes += 1
          }
          frontier = next.toSeq
        }
      }
    }
    assert(prefixes > 100) // the seeds exercise both paths
  }

  test("the fused count-only SINK gives the emitting run's count and counters") {
    for (seed <- 1 to 12) {
      val data = TestGraphs.random(20, 30, 2, 4, seed)
      val tb = HyperedgeTables.build(data)
      TestGraphs.sampleQuery(data, 3, seed * 5).foreach { query =>
        val plan = Plan.generate(query, tb)
        val collected = SequentialEngine.run(tb, plan, new CollectingSink)
        val counted = SequentialEngine.run(tb, plan, new CountingSink)
        assert(counted.embeddings == collected.embeddings && counted.counters == collected.counters, s"seed=$seed")
        for (p <- Seq(1, 4)) {
          val task = TaskEngine.run(tb, plan, TaskEngineConfig(p), new CountingSink).outcome
          assert(task.embeddings == collected.embeddings && task.counters == collected.counters, s"seed=$seed p=$p")
        }
      }
    }
  }

  /** Runs `body` on a new thread, whose per-thread scratch starts fresh. */
  private def onFreshThread(body: => Unit): Unit = {
    var failure: Throwable = null
    val t = new Thread(() => try body catch { case e: Throwable => failure = e })
    t.start(); t.join()
    if (failure != null) throw failure
  }

  // A generated graph with many more vertices than Fig 1, and a q3 on it.
  private lazy val big = HyperedgeTables.build(TestGraphs.random(600, 900, 2, 4, 21))
  private lazy val bigPlan = Plan.generate(TestGraphs.sampleQuery(big.graph, 3, 5).get, big)
  private lazy val bigCount = Reference.count(big, bigPlan)
  private lazy val fig1 = HyperedgeTables.build(Hypergraph.fig1Data)
  private lazy val fig1Plan = Plan.generate(Hypergraph.fig1Query, fig1)

  test("a thread's scratch outlives runs over graphs of different sizes, in both orders") {
    assert(bigCount > 0 && Reference.count(fig1, fig1Plan) == 2)
    val runs = Seq((big, bigPlan, bigCount), (fig1, fig1Plan, 2L))
    for (first <- runs.indices) onFreshThread {
      for (k <- 0 until 4) {
        val (tb, plan, expected) = runs((first + k) % 2)
        assert(SequentialEngine.run(tb, plan, new CollectingSink).embeddings == expected, s"first=$first k=$k")
        assert(SequentialEngine.run(tb, plan).embeddings == expected, s"first=$first k=$k counting")
      }
    }
  }

  test("a run after one whose sink threw mid-run counts right") {
    val throwing = new Sink {
      private var n = 0L
      def consume(emb: Array[Int]): Unit = { n += 1; if (n == bigCount / 2) throw new IllegalStateException("sink failed") }
      def count: Long = n
    }
    assert(bigCount >= 4) // precondition: the failure is mid-run
    onFreshThread {
      assert(intercept[IllegalStateException](SequentialEngine.run(big, bigPlan, throwing)).getMessage == "sink failed")
      assert(SequentialEngine.run(big, bigPlan, new CollectingSink).embeddings == bigCount)
      assert(SequentialEngine.run(fig1, fig1Plan, new CollectingSink).embeddings == 2)
    }
  }

  test("a sink that is not count-only rejects add") {
    assertThrows[UnsupportedOperationException](new CollectingSink().add(1))
    val s = new CountingSink
    s.add(5); s.consume(Array(0))
    assert(s.countOnly && s.count == 6)
  }
}
