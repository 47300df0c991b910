package repro.engine

import java.util.concurrent.atomic.LongAdder
import repro.core._

/** The dataflow model of Section VI-A: a plan compiles to a direct path
  * SCAN(e₁) → EXPAND(e₂) → … → EXPAND(eₙ) → SINK. Operators here are
  * descriptive; the engines interpret them ([[SequentialEngine]],
  * [[TaskEngine]], [[BfsEngine]]), all expanding through [[Expander]]. The
  * Spark tier runs SCAN as a DataFrame stage and EXPAND* → SINK as one
  * [[SequentialEngine]] run per SCAN partition.
  */
sealed trait Operator
object Operator {
  /** Iterates the hyperedge table with the first query hyperedge's signature. */
  final case class Scan(signature: Signature) extends Operator
  /** Expands each input partial embedding by one hyperedge (Sections V-B/V-C). */
  final case class Expand(step: ExpandStep) extends Operator
  /** Consumes complete embeddings (count or collect). */
  case object SinkOp extends Operator

  /** The operator chain for a plan (used for display/tests). */
  def chain(plan: Plan): Seq[Operator] =
    Scan(plan.scanSignature) +: plan.steps.map(Expand(_)).toSeq :+ SinkOp
}

/** Terminal consumer of complete embeddings. Implementations must be
  * thread-safe: the task engine sinks from every worker.
  */
trait Sink {
  def consume(emb: Array[Int]): Unit
  def count: Long
}

/** Counts embeddings (the paper's default metric — I/O-free). */
final class CountingSink extends Sink {
  private val n = new LongAdder
  def consume(emb: Array[Int]): Unit = n.increment()
  def count: Long = n.sum()
}

/** Collects embeddings — test/case-study use only, results must fit in heap. */
final class CollectingSink extends Sink {
  private val buf = scala.collection.mutable.ArrayBuffer.empty[Array[Int]]
  def consume(emb: Array[Int]): Unit = buf.synchronized { buf += emb }
  def count: Long = buf.synchronized { buf.length.toLong }
  /** Embeddings as hyperedge-id tuples in matching order. */
  def results: Seq[Vector[Int]] = buf.synchronized { buf.map(_.toVector).toSeq }
}

/** Enumeration-phase counters backing Exp-3 (Fig 9). */
final class MatchCounters {
  val candidates = new LongAdder // Algorithm-4 outputs, all steps
  val filtered   = new LongAdder // survived Observation V.5, all steps
  val validated  = new LongAdder // survived full validation, all steps
  def snapshot: (Long, Long, Long) = (candidates.sum(), filtered.sum(), validated.sum())
}

/** One EXPAND application shared by every engine: generate candidates,
  * validate, emit extensions, maintain counters. Scratch buffers are
  * per-thread, so one Expander serves all workers allocation-free (bar
  * the emitted embeddings themselves).
  */
final class Expander(tables: HyperedgeTables, plan: Plan, counters: MatchCounters) {

  private val maxArity: Int =
    if (plan.steps.isEmpty) 1 else plan.steps.iterator.map(_.signature.arity).max

  private final class Local {
    val scratch = new CandidateGen.Scratch
    val keys = new Array[Long](maxArity)
  }
  private val locals = ThreadLocal.withInitial[Local](() => new Local)

  /** Expand `emb` (length = current position) by the next query hyperedge.
    * Uses the packed-profile hot path of [[Validation]] (identical
    * semantics to Algorithm 5; equivalence is unit-tested).
    */
  def expand(emb: Array[Int])(emit: Array[Int] => Unit): Unit = {
    val step = plan.steps(emb.length - 1)
    val local = locals.get()
    val scratch = local.scratch
    CandidateGen.candidatesInto(tables, step, emb, scratch)
    counters.candidates.add(scratch.na)
    val arity = step.signature.arity // candidates carry S(e_q), same arity
    val keys = local.keys
    var i = 0
    while (i < scratch.na) {
      val c = scratch.a(i)
      var dup = false
      var j = 0
      while (j < emb.length && !dup) { dup = emb(j) == c; j += 1 }
      if (!dup) {
        val fresh = Validation.profileKeys(tables, step, emb, c, keys)
        if (Validation.freshCountOk(step, fresh)) {
          counters.filtered.increment()
          if (Validation.profileKeysOk(step, keys, arity)) {
            counters.validated.increment()
            val next = java.util.Arrays.copyOf(emb, emb.length + 1)
            next(emb.length) = c
            emit(next)
          }
        }
      }
      i += 1
    }
  }
}
