import sys

import pytest
from pyspark.sql import SparkSession

from jobs._session import get_session


@pytest.fixture(scope="session")
def spark() -> SparkSession:
    """The one local-mode SparkSession of the whole test session: the
    session that the jobs and the benchmark run on (``jobs/_session.py``),
    with its master and driver memory from ``SPARK_MASTER`` and
    ``SPARK_DRIVER_MEM``. Test fixtures set their own shuffle partitions
    (``sparks``, ``sparkb``)."""
    s = get_session("repro")
    sc = s.sparkContext
    print(
        f"[conftest] SPARK_DRIVER_MEM={sc.getConf().get('spark.driver.memory')} "
        f"master={sc.master} defaultParallelism={sc.defaultParallelism}",
        file=sys.stderr,
    )
    yield s
    s.stop()
