package repro.jobs

import org.apache.spark.sql.SparkSession
import repro.core.Plan
import repro.data.KnowledgeBase
import repro.engine.{CollectingSink, SequentialEngine}
import repro.spark.{HGMatchSpark, HypergraphDF}

/** The Section VII-D case study: question answering over a (synthetic)
  * JF17K-style hypergraph knowledge base. Prints the embedding counts of
  * the two Fig-13 queries from both the local and the Spark engine.
  *
  * Note on counts: both query hypergraphs have one automorphism swapping
  * their two hyperedges, so each real-world answer appears as two
  * hyperedge-tuple embeddings.
  */
object CaseStudyJob {
  def main(args: Array[String]): Unit = {
    val spark = SparkSession.builder()
      .master(sys.env.getOrElse("SPARK_MASTER", "local[*]"))
      .appName("hgmatch-casestudy")
      .getOrCreate()
    spark.sparkContext.setLogLevel("WARN")
    try {
      val kb = KnowledgeBase.generate()
      println(s"knowledge base: ${kb.graph}")
      val tables = repro.core.HyperedgeTables.build(kb.graph)
      val hdf = HypergraphDF.build(spark, kb.graph)

      for ((name, q, planted) <- Seq(
          ("Q1 players/teams/matches", KnowledgeBase.query1, kb.plantedQuery1),
          ("Q2 actors/characters/seasons", KnowledgeBase.query2, kb.plantedQuery2))) {
        val sink = new CollectingSink
        val local = SequentialEngine.run(tables, Plan.generate(q, tables), sink)
        val dist = HGMatchSpark.countEmbeddings(spark, hdf, q)
        println(f"$name: local=${local.embeddings} spark=$dist planted=$planted (x2 for edge-swap automorphism = ${2L * planted})")
        require(local.embeddings == dist, "engines disagree!")
      }
    } finally spark.stop()
  }
}
