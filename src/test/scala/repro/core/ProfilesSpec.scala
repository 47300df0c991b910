package repro.core

import org.scalatest.funsuite.AnyFunSuite

class ProfilesSpec extends AnyFunSuite {

  test("key packs label in the high half and positions in the low half") {
    val k = Profiles.key(3, Seq(0, 2))
    assert(k == (3L << 32 | 0b101L))
  }

  test("label 0 with position 0 is distinct from empty-ish keys") {
    assert(Profiles.key(0, Seq(0)) == 1L)
    assert(Profiles.key(1, Seq(0)) == (1L << 32 | 1L))
  }

  test("position 31 fits without overflow into the label half") {
    val k = Profiles.key(0, Seq(31))
    assert(k == (1L << 31))
    assert((k >>> 32) == 0L) // still label 0
  }

  test("large labels do not collide with position bits") {
    val a = Profiles.key(Int.MaxValue, Seq(0))
    val b = Profiles.key(Int.MaxValue - 1, Seq(0))
    assert(a != b)
    assert((a >>> 32) == Int.MaxValue.toLong)
  }

  test("key is order-insensitive in positions") {
    assert(Profiles.key(5, Seq(3, 1, 2)) == Profiles.key(5, Seq(1, 2, 3)))
  }

  test("distinct position sets give distinct keys for equal labels") {
    assert(Profiles.key(2, Seq(0, 1)) != Profiles.key(2, Seq(0, 2)))
  }

  test("key matches canonical Profile identity") {
    val ps = Seq((1, Seq(0, 3)), (1, Seq(0, 3)), (0, Seq(2)))
    val keys = ps.map { case (label, positions) => Profiles.key(label, positions) }
    assert(keys(0) == keys(1))
    assert(keys(0) != keys(2))
  }
}
