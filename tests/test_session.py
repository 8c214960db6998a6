"""The test session is the session that ``jobs/_session.get_session``
builds for the jobs and the benchmark, so the tests run the same Spark
set-up as every recorded number. Only the shuffle partitions differ: the
``sparks`` fixture lowers them for the tiny test graphs."""
import os


def test_session_is_get_session(sparks):
    conf = sparks.sparkContext.getConf()
    assert conf.get("spark.ui.showConsoleProgress") == "false"
    assert conf.get("spark.ui.enabled") == "false"
    assert conf.get("spark.driver.memory") == os.environ.get("SPARK_DRIVER_MEM", "8g")
    assert sparks.sparkContext.master == os.environ.get("SPARK_MASTER", "local[*]")
    assert sparks.conf.get("spark.sql.execution.arrow.pyspark.enabled") == "true"
    assert sparks.conf.get("spark.sql.autoBroadcastJoinThreshold") == "-1"
    assert sparks.conf.get("spark.sql.shuffle.partitions") == "16"
