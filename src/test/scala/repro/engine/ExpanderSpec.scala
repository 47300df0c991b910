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

  test("a sink that is not count-only rejects add") {
    assertThrows[UnsupportedOperationException](new CollectingSink().add(1))
    val s = new CountingSink
    s.add(5); s.consume(Array(0))
    assert(s.countOnly && s.count == 6)
  }
}
