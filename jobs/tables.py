"""spark-submit entrypoint: record paper tables.

Usage: python jobs/tables.py TABLE [TABLE ...]
       (or spark-submit jobs/tables.py TABLE [TABLE ...])

TABLE is one of fig1 table2 table3 table4 table5 table6 fig10 table1.
Each table's cells come from ``repro.experiments.CATALOG``; its results
go to ``results/<table>.json`` with the engine commit, and its markdown
is printed (see EXPERIMENTS.md). ``table1`` is derived from the saved
table3, table4, table5 and fig10 results, so name it after them.
"""
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).parent))
from _session import get_session

from repro.experiments import TABLES, record


def main(tables: list[str]) -> None:
    if not tables or set(tables) - set(TABLES):
        sys.exit(f"usage: python jobs/tables.py TABLE [TABLE ...]\n"
                 f"tables: {' '.join(TABLES)}")
    spark = get_session("tables")
    try:
        record(spark, tables, Path(__file__).resolve().parent.parent / "results")
    finally:
        spark.stop()


if __name__ == "__main__":
    main(sys.argv[1:])
