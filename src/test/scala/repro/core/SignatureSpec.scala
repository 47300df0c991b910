package repro.core

import org.scalatest.funsuite.AnyFunSuite
import scala.util.Random

class SignatureSpec extends AnyFunSuite {

  test("signature canonicalises order") {
    assert(Signature.of(Seq(2, 0, 1)) == Signature.of(Seq(0, 1, 2)))
  }

  test("signature is a multiset, not a set") {
    assert(Signature.of(Seq(0, 0, 1)) != Signature.of(Seq(0, 1)))
    assert(Signature.of(Seq(0, 0, 1)) == Signature.of(Seq(0, 1, 0)))
  }

  test("arity equals number of labels") {
    assert(Signature.of(Seq(3, 3, 1, 2)).arity == 4)
  }

  test("count of a label") {
    val s = Signature.of(Seq(0, 0, 2))
    assert(s.count(0) == 2)
    assert(s.count(2) == 1)
    assert(s.count(5) == 0)
  }

  test("multi-digit labels do not collide in keys") {
    assert(Signature.of(Seq(0, 11)).key != Signature.of(Seq(0, 1, 1)).key)
  }

  test("signature of a hyperedge matches its vertex labels (Fig 1)") {
    val h = Hypergraph.fig1Data
    assert(h.signature(0) == Signature.of(Seq(0, 1)))       // e1 {A,B}
    assert(h.signature(2) == Signature.of(Seq(0, 0, 2)))    // e3 {A,A,C}
    assert(h.signature(4) == Signature.of(Seq(0, 0, 1, 2))) // e5 {A,A,B,C}
  }

  test("property: key is order-insensitive (100 random multisets)") {
    val rnd = new Random(1)
    for (_ <- 1 to 100) {
      val ls = List.fill(1 + rnd.nextInt(8))(rnd.nextInt(10))
      assert(Signature.of(ls).key == Signature.of(rnd.shuffle(ls)).key)
    }
  }

  test("equal signatures have equal hashCodes") {
    assert(Signature.of(Seq(1, 2, 2)).hashCode == Signature.of(Seq(2, 1, 2)).hashCode)
  }
}
