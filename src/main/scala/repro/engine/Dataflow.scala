package repro.engine

import java.util.concurrent.atomic.LongAdder
import repro.core._

/** The dataflow model of Section VI-A: a plan compiles to a direct path
  * SCAN(e₁) → EXPAND(e₂) → … → EXPAND(eₙ) → SINK. Operators here are
  * descriptive; the engines interpret them ([[TaskEngine]], whose
  * one-worker form is [[SequentialEngine]], and [[BfsEngine]]), all
  * expanding through [[Expander]]. The Spark tier splits the SCAN's
  * hyperedges across Spark tasks and runs EXPAND* → SINK as one
  * [[SequentialEngine]] run (the task engine at p = 1 on the Spark task's
  * thread) per slice.
  *
  * SINK is the paper's I/O-free counter. When the sink only counts
  * ([[Sink.countOnly]]), the task engine fuses the last EXPAND into it: a
  * partial embedding one hyperedge short of complete is handed to
  * [[Expander.countExtensions]], which counts its valid extensions without
  * building them, and the count goes to [[Sink.add]].
  * [[BfsEngine]], the Exp-5 comparison point, materialises every level.
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
  /** True if the sink needs only the number of embeddings: the engines
    * then count the last step's extensions and [[add]] them instead of
    * building and consuming each one.
    */
  def countOnly: Boolean = false
  /** Adds `n` embeddings that were counted, not built. Called only when
    * [[countOnly]] is true.
    */
  def add(n: Long): Unit = throw new UnsupportedOperationException("this sink consumes embeddings")
}

/** Counts embeddings (the paper's default metric — I/O-free). */
final class CountingSink extends Sink {
  private val n = new LongAdder
  def consume(emb: Array[Int]): Unit = n.increment()
  def count: Long = n.sum()
  override def countOnly: Boolean = true
  override def add(k: Long): Unit = n.add(k)
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
  * per-thread and belong to `object Expander`, so one Expander serves all
  * workers allocation-free (bar the emitted embeddings themselves), and a
  * thread's scratch, the dense vertex-mask array included, outlives the run
  * (later runs on that thread, such as the Spark tasks of one executor
  * thread, reuse it). The counters are updated once per expansion.
  *
  * An `emit` callback must not re-enter an Expander on the same thread:
  * every Expander on a thread shares that thread's scratch. The engines
  * only queue what `emit` hands them.
  */
final class Expander(tables: HyperedgeTables, plan: Plan, counters: MatchCounters) {

  private val maxArity: Int =
    if (plan.steps.isEmpty) 1 else plan.steps.iterator.map(_.signature.arity).max

  /** Expand `emb` (length = current position) by the next query hyperedge,
    * emitting each valid extension as a new array.
    */
  def expand(emb: Array[Int])(emit: Array[Int] => Unit): Unit = { extend(emb, emit); () }

  /** The number of valid extensions of `emb`: the same candidate loop and
    * counters as [[expand]], but no extension is built. The engines call it
    * for the last step when the sink only counts (the fused SINK).
    */
  def countExtensions(emb: Array[Int]): Long = extend(emb, null)

  /** Algorithm 4, then per candidate the duplicate reject, Observation
    * V.5 and Theorem V.2 on the shared vertices (see [[Validation]]);
    * `emit` may be null. Returns the number of valid candidates.
    */
  private def extend(emb: Array[Int], emit: Array[Int] => Unit): Long = {
    val step = plan.steps(emb.length - 1)
    val local = Expander.locals.get()
    val scratch = local.scratch
    CandidateGen.candidatesInto(tables, step, emb, scratch)
    val arity = step.signature.arity // candidates carry S(e_q), same arity
    if (local.keys.length < maxArity) local.keys = new Array[Long](maxArity)
    val keys = local.keys
    var filtered = 0L
    var valid = 0L
    var i = 0
    while (i < scratch.na) {
      val c = scratch.a(i)
      var dup = false
      var j = 0
      while (j < emb.length && !dup) { dup = emb(j) == c; j += 1 }
      if (!dup) {
        val fresh = Validation.sharedProfileKeys(tables, step, scratch.masks, c, keys)
        if (Validation.freshCountOk(step, fresh)) {
          filtered += 1
          if (Validation.sharedKeysOk(step, keys, arity - fresh)) {
            valid += 1
            if (emit != null) {
              val next = java.util.Arrays.copyOf(emb, emb.length + 1)
              next(emb.length) = c
              emit(next)
            }
          }
        }
      }
      i += 1
    }
    counters.candidates.add(scratch.na)
    counters.filtered.add(filtered)
    counters.validated.add(valid)
    valid
  }
}

object Expander {
  private final class Local {
    val scratch = new CandidateGen.Scratch
    var keys = new Array[Long](0) // grown to the expanding plan's largest arity
  }
  private val locals = ThreadLocal.withInitial[Local](() => new Local)
}
