"""Benchmark fixtures: session-cached lite datasets.

``test_cells.py`` times a named subset of the paper-table cells in
``repro.experiments.CATALOG``; the complete tables (every cell, with
the '—' budget and 'n/a' skipped cells) are produced by
``python jobs/tables.py`` and recorded in EXPERIMENTS.md.
"""
from __future__ import annotations

import pytest

from repro.graph import datasets
from repro.harness import SparkGraph


@pytest.fixture(scope="session")
def sparkb(spark):
    spark.conf.set("spark.sql.shuffle.partitions", "32")
    return spark


@pytest.fixture(scope="session")
def dataset(sparkb):
    """Dataset name → loaded lite graph, loaded on first use."""
    loaded: dict[str, SparkGraph] = {}

    def get(name: str) -> SparkGraph:
        if name not in loaded:
            loaded[name] = SparkGraph.load(sparkb, datasets.dataset(name))
        return loaded[name]

    yield get
    for sg in loaded.values():
        sg.unload()
