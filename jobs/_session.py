"""The one SparkSession builder: pytest's ``spark`` fixture (the root
conftest.py), the jobs and ``perfbench/run.py`` all start Spark here.

The session is local[*], with automatic broadcast joins disabled
(``autoBroadcastJoinThreshold=-1``, so the baselines' joins exercise
real shuffles), Arrow on, and a fixed 32 shuffle partitions, which the
test fixtures override for their tiny graphs (``sparks``). The engine
broadcasts ``adj`` and the label table into its joins by explicit hint,
which overrides the threshold, and reads ``adj`` from the copy that
``SparkGraph.load`` caches once per load. The console progress bar is
off, so a job's stderr holds its ``[cell]`` records rather than
progress-bar redraws.
"""
from __future__ import annotations

import os

from pyspark.sql import SparkSession


def get_session(app: str) -> SparkSession:
    os.environ.setdefault(
        "PYSPARK_SUBMIT_ARGS",
        f"--master {os.environ.get('SPARK_MASTER', 'local[*]')} "
        f"--driver-memory {os.environ.get('SPARK_DRIVER_MEM', '8g')} "
        "--conf spark.driver.host=127.0.0.1 "
        "--conf spark.ui.enabled=false "
        "--conf spark.ui.showConsoleProgress=false pyspark-shell",
    )
    spark = (
        SparkSession.builder.appName(app)
        .config("spark.sql.shuffle.partitions", 32)
        .config("spark.sql.execution.arrow.pyspark.enabled", "true")
        .config("spark.sql.autoBroadcastJoinThreshold", -1)
        .getOrCreate()
    )
    spark.sparkContext.setLogLevel("ERROR")
    return spark
