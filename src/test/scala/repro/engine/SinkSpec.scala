package repro.engine

import org.scalatest.funsuite.AnyFunSuite

class SinkSpec extends AnyFunSuite {

  test("counting sink counts") {
    val s = new CountingSink
    (1 to 100).foreach(_ => s.consume(Array(1)))
    assert(s.count == 100)
  }

  test("counting sink is thread-safe") {
    val s = new CountingSink
    val ts = (1 to 8).map(_ => new Thread(() => (1 to 10000).foreach(_ => s.consume(Array(0)))))
    ts.foreach(_.start()); ts.foreach(_.join())
    assert(s.count == 80000)
  }

  test("collecting sink preserves tuples") {
    val s = new CollectingSink
    s.consume(Array(1, 2))
    s.consume(Array(3, 4))
    assert(s.results.toSet == Set(Vector(1, 2), Vector(3, 4)))
    assert(s.count == 2)
  }

  test("collecting sink is thread-safe") {
    val s = new CollectingSink
    val ts = (0 until 4).map(t => new Thread(() => (0 until 5000).foreach(i => s.consume(Array(t, i)))))
    ts.foreach(_.start()); ts.foreach(_.join())
    assert(s.count == 20000)
    assert(s.results.distinct.size == 20000)
  }

  test("operator chain renders for a single-edge plan") {
    val h = repro.core.Hypergraph(Seq(0, 0), Seq(Seq(0, 1)))
    val p = repro.core.Plan.fromOrder(h, Array(0))
    val chain = Operator.chain(p)
    assert(chain == Seq(Operator.Scan(h.signature(0)), Operator.SinkOp))
  }

  test("match counters snapshot is consistent") {
    val c = new MatchCounters
    c.candidates += 10; c.filtered += 5; c.validated += 3
    assert(c.snapshot == ((10L, 5L, 3L)))
  }
}
