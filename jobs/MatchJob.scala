package repro.jobs

import org.apache.spark.sql.SparkSession
import repro.core.Plan
import repro.data.{Datasets, QuerySampler, QuerySetting}
import repro.engine.SequentialEngine
import repro.spark.{HGMatchSpark, HypergraphDF}

/** Runs one random query of a given setting on a dataset through BOTH the
  * distributed Spark engine and the local sequential engine and prints the
  * (matching) embedding counts.
  *
  * Args: [dataset=WT] [setting=q2] [seed=7]
  */
object MatchJob {
  def main(args: Array[String]): Unit = {
    val dataset = args.headOption.getOrElse("WT")
    val settingName = args.lift(1).getOrElse("q2")
    val seed = args.lift(2).map(_.toLong).getOrElse(7L)
    val setting = QuerySetting.all.find(_.name == settingName)
      .getOrElse(throw new IllegalArgumentException(s"unknown setting $settingName"))

    val spark = SparkSession.builder()
      .master(sys.env.getOrElse("SPARK_MASTER", "local[*]"))
      .appName("hgmatch-match")
      .getOrCreate()
    spark.sparkContext.setLogLevel("WARN")
    try {
      val g = Datasets.graph(dataset)
      val tables = Datasets.tables(dataset)
      val query = QuerySampler.sample(g, setting, 1, seed).headOption
        .getOrElse(throw new IllegalStateException("sampler produced no query"))
      println(s"dataset=$dataset $g")
      println(s"query=$query edges=${query.edges.map(_.mkString("{", ",", "}")).mkString(" ")}")

      val local = SequentialEngine.run(tables, Plan.generate(query, tables))
      println(f"local sequential: embeddings=${local.embeddings} in ${local.elapsedNanos / 1e6}%.1f ms")

      val hdf = HypergraphDF.build(spark, g)
      val t0 = System.nanoTime()
      val distributed = HGMatchSpark.countEmbeddings(spark, hdf, query)
      println(f"spark dataflow:   embeddings=$distributed in ${(System.nanoTime() - t0) / 1e6}%.1f ms")
      require(local.embeddings == distributed, "engines disagree!")
    } finally spark.stop()
  }
}
