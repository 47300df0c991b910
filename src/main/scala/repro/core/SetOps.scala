package repro.core

import scala.collection.mutable.ArrayBuffer

/** Set operations over sorted, duplicate-free Int arrays: membership by
  * binary search, and the intersection the match-by-vertex baselines use
  * (merge, with a galloping fallback when sizes are lopsided). The paper's
  * own engine uses scalar (non-SIMD) set ops, and so does this one.
  * HGMatch's candidate generation (Section V-B) does not use them: it
  * takes its posting-list unions and intersections with per-edge stamps
  * in [[CandidateGen]].
  */
object SetOps {

  val empty: Array[Int] = Array.emptyIntArray

  /** Intersection of two sorted distinct arrays. */
  def intersect(a: Array[Int], b: Array[Int]): Array[Int] = {
    if (a.length == 0 || b.length == 0) return empty
    // Gallop when one side is much smaller: probe each small element into
    // the large side by binary search.
    if (a.length * 32L < b.length) return gallop(a, b)
    if (b.length * 32L < a.length) return gallop(b, a)
    val out = new ArrayBuffer[Int](math.min(a.length, b.length))
    var i = 0; var j = 0
    while (i < a.length && j < b.length) {
      val x = a(i); val y = b(j)
      if (x == y) { out += x; i += 1; j += 1 }
      else if (x < y) i += 1
      else j += 1
    }
    out.toArray
  }

  private def gallop(small: Array[Int], large: Array[Int]): Array[Int] = {
    val out = new ArrayBuffer[Int](small.length)
    var lo = 0
    var i = 0
    while (i < small.length && lo < large.length) {
      val x = small(i)
      val pos = java.util.Arrays.binarySearch(large, lo, large.length, x)
      if (pos >= 0) { out += x; lo = pos + 1 }
      else lo = -pos - 1
      i += 1
    }
    out.toArray
  }

  /** Membership test on a sorted distinct array. */
  def contains(a: Array[Int], x: Int): Boolean =
    java.util.Arrays.binarySearch(a, x) >= 0
}
