package repro.core

import org.scalatest.funsuite.AnyFunSuite
import scala.util.Random

class SetOpsSpec extends AnyFunSuite {

  private def sortedSet(rnd: Random, n: Int, max: Int): Array[Int] =
    Array.fill(n)(rnd.nextInt(max)).distinct.sorted

  test("intersect of disjoint sets is empty") {
    assert(SetOps.intersect(Array(1, 3, 5), Array(2, 4, 6)).isEmpty)
  }

  test("intersect basic") {
    assert(SetOps.intersect(Array(1, 2, 3, 7), Array(2, 3, 9)).toSeq == Seq(2, 3))
  }

  test("intersect with empty") {
    assert(SetOps.intersect(Array.emptyIntArray, Array(1)).isEmpty)
    assert(SetOps.intersect(Array(1), Array.emptyIntArray).isEmpty)
  }

  test("galloping path: lopsided sizes") {
    val big = (0 until 10000 by 2).toArray // evens
    val small = Array(2, 3, 4001, 4002, 9998)
    assert(SetOps.intersect(small, big).toSeq == Seq(2, 4002, 9998))
    assert(SetOps.intersect(big, small).toSeq == Seq(2, 4002, 9998))
  }

  test("contains via binary search") {
    val a = Array(1, 4, 9, 100)
    assert(SetOps.contains(a, 9))
    assert(!SetOps.contains(a, 8))
    assert(!SetOps.contains(Array.emptyIntArray, 0))
  }

  test("property: ops agree with scala Set semantics (200 random pairs)") {
    val rnd = new Random(3)
    for (_ <- 1 to 200) {
      val a = sortedSet(rnd, rnd.nextInt(40), 60)
      val b = sortedSet(rnd, rnd.nextInt(40), 60)
      val (sa, sb) = (a.toSet, b.toSet)
      assert(SetOps.intersect(a, b).toSet == (sa & sb))
    }
  }

  test("property: results stay sorted and distinct (100 random pairs)") {
    val rnd = new Random(4)
    for (_ <- 1 to 100) {
      val a = sortedSet(rnd, rnd.nextInt(50), 80)
      val b = sortedSet(rnd, rnd.nextInt(50), 80)
      val r = SetOps.intersect(a, b)
      assert(r.toSeq == r.toSeq.distinct.sorted)
    }
  }
}
