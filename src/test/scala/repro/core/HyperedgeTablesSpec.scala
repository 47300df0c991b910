package repro.core

import org.scalatest.funsuite.AnyFunSuite
import repro.data.{HgConfig, HypergraphGen}

class HyperedgeTablesSpec extends AnyFunSuite {

  private val h = Hypergraph.fig1Data
  private val t = HyperedgeTables.build(h)

  private val sigAB = Signature.of(Seq(0, 1))
  private val sigAAC = Signature.of(Seq(0, 0, 2))
  private val sigAABC = Signature.of(Seq(0, 0, 1, 2))

  test("Table I: three partitions with the paper's signatures") {
    assert(t.partitions.keySet == Set(sigAB, sigAAC, sigAABC))
  }

  test("Table I: partition {A,B} holds e1,e2 (ids 0,1)") {
    assert(t.edgesOf(sigAB).toSeq == Seq(0, 1))
  }

  test("Table I: partition {A,A,C} holds e3,e4 (ids 2,3)") {
    assert(t.edgesOf(sigAAC).toSeq == Seq(2, 3))
  }

  test("Table I: partition {A,A,B,C} holds e5,e6 (ids 4,5)") {
    assert(t.edgesOf(sigAABC).toSeq == Seq(4, 5))
  }

  private def incident(v: Int, sig: Signature): Array[Int] = Reference.incident(t, v, sig)

  test("Table I: inverted index posting lists ascend") {
    for (v <- 0 until h.numVertices; sig <- t.partitions.keys) {
      val pl = incident(v, sig).toSeq
      assert(pl == pl.sorted.distinct)
    }
  }

  test("Table I: inverted index of partition 3 (Example V.1 lookups)") {
    assert(incident(0, sigAABC).toSeq == Seq(4)) // he(v0, s) = {e5}
    assert(incident(1, sigAABC).toSeq == Seq(4))
    assert(incident(4, sigAABC).toSeq == Seq(4))
    assert(incident(5, sigAABC).toSeq == Seq(5))
  }

  test("incident returns empty for unknown vertex or signature") {
    assert(incident(0, sigAB).isEmpty)        // v0 not in any {A,B} edge
    assert(incident(0, Signature.of(Seq(7))).isEmpty)
  }

  test("cardinality is the partition row count (Def V.2)") {
    assert(t.cardinality(sigAB) == 2)
    assert(t.cardinality(sigAAC) == 2)
    assert(t.cardinality(sigAABC) == 2)
    assert(t.cardinality(Signature.of(Seq(0, 0))) == 0)
  }

  test("every hyperedge lands in exactly one partition") {
    val all = t.partitions.values.flatMap(_.edgeIds).toSeq.sorted
    assert(all == (0 until h.numEdges))
  }

  test("posting lists cover exactly the incidences of the partition") {
    t.partitions.foreach { case (sig, p) =>
      val fromPostings = (0 until h.numVertices).flatMap(v => incident(v, sig).map(e => (v, e))).toSet
      val fromEdges = p.edgeIds.flatMap(e => h.edges(e).map(v => (v, e))).toSet
      assert(fromPostings == fromEdges, s"partition $sig")
    }
  }

  test("storage size is O(avg arity * |E|): counts all incidences") {
    // 18 incidences * 4B + signature headers (2+3+4 labels * 4B)
    assert(t.storageBytes == 18 * 4 + (2 + 3 + 4) * 4)
  }

  test("index size counts each edge a(e) times (Section IV-C analysis)") {
    // every incidence appears once in a posting list
    val postingEntries = (for (v <- 0 until h.numVertices; sig <- t.partitions.keys.toSeq) yield incident(v, sig).length).sum
    assert(postingEntries == 18)
  }

  test("indexBytes counts the four CSR arrays, 4 bytes per entry") {
    val entries = t.runOff.length + t.runPart.length + t.runStart.length + t.postings.length
    assert(t.indexBytes == 4L * entries)
    // |V|+1 offsets, one run per (vertex, partition) pair plus the end, Σa(e) postings
    val runs = (0 until h.numVertices).map(v => h.incidence(v).map(h.signature).distinct.length).sum
    assert(entries == (h.numVertices + 1) + runs + (runs + 1) + 18)
  }

  test("incident(v, s) is he(v) restricted to signature s on generated graphs") {
    for (seed <- 1L to 8L) {
      val gen = HypergraphGen.generate(HgConfig("prop", numVertices = 60, numEdges = 90,
        numLabels = 4, maxArity = 6, meanArity = 3.0, labelCoherence = 0.5, seed = seed))
      // One more vertex, in no hyperedge.
      val g = Hypergraph(gen.labels.toSeq :+ 0, gen.edges.toSeq.map(_.toSeq))
      assert(g.incidence(g.numVertices - 1).isEmpty)
      val tg = HyperedgeTables.build(g)
      val absent = Signature.of(Seq(99))
      assert(tg.partitionId(absent) == -1)
      for (v <- 0 until g.numVertices) {
        assert(Reference.incident(tg, v, absent).isEmpty)
        tg.partitions.keys.foreach { sig =>
          assert(Reference.incident(tg, v, sig).toSeq == g.incidence(v).filter(g.signature(_) == sig).toSeq,
            s"seed $seed v$v $sig")
        }
      }
    }
  }

  test("index and storage sizes are the same order (Exp-1 observation)") {
    val ratio = t.indexBytes.toDouble / t.storageBytes
    assert(ratio > 0.5 && ratio < 4.0)
  }

  test("build is deterministic") {
    val t2 = HyperedgeTables.build(h)
    assert(t2.partitions.keySet == t.partitions.keySet)
    t.partitions.keys.foreach { sig =>
      assert(t2.edgesOf(sig).toSeq == t.edgesOf(sig).toSeq)
    }
  }

  test("build time is recorded") {
    assert(t.buildNanos > 0)
  }
}
