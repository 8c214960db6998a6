"""G-Miner-style task-oriented baseline (§6.4, Table 5).

G-Miner is a distributed task-queue system where expert users write
purpose-built algorithms over a low-level subgraph task structure. Each
task carries a vertex and its materialized adjacency list (plus, for
labeled matching, label indexes built during preprocessing — the paper
notes these indexes are why G-Miner ran out of disk on Friendster).

Only the two applications G-Miner ships are reproduced, as in the
paper: 3-clique counting and labeled-p2 (triangle) matching.
"""
from __future__ import annotations

from typing import TYPE_CHECKING

import numpy as np
import pandas as pd
from pyspark.sql import DataFrame, functions as F

from ..core.pattern import Pattern
from .common import BaselineMetrics

if TYPE_CHECKING:
    from ..harness import SparkGraph


def gminer_triangle_count(g: SparkGraph) -> BaselineMetrics:
    """Purpose-built 3-clique counting over per-vertex tasks.

    Faithful to G-Miner's cost structure: a task for vertex ``v``
    carries its *materialized* candidate subgraph — v's adjacency list
    plus the adjacency list of every neighbor (each list is duplicated
    into deg-many tasks, the data blow-up the paper attributes to
    G-Miner's task queue) — and the triangle counting itself is local
    per-task computation over those shipped lists. The tasks start from
    the loaded graph's cached sorted adjacency list per vertex (``adj``),
    as PRG's matching does."""
    edges = g.edges
    m = BaselineMetrics()
    tasks = g.adj.select("src", F.col("nb").alias("nbrs"))
    # ship each neighbor's adjacency list into the task (duplication!)
    nbr_adj = tasks.select(
        F.col("src").alias("a"), F.col("nbrs").alias("nbrs_a")
    )
    pairs = (
        edges.where(F.col("src") < F.col("dst"))
        .join(tasks, on="src")
        .join(nbr_adj, on=F.col("dst") == F.col("a"))
        .select("src", "nbrs", "a", "nbrs_a")
    )

    # local per-task computation: triangles (src < a < b) closed inside
    # the shipped subgraph data
    @F.pandas_udf("long")
    def local_count(nbrs: pd.Series, a: pd.Series, nbrs_a: pd.Series) -> pd.Series:
        out = np.empty(len(a), dtype=np.int64)
        for i in range(len(a)):
            av = int(a.iloc[i])
            mine = np.asarray(nbrs.iloc[i])
            theirs = np.asarray(nbrs_a.iloc[i])
            out[i] = np.intersect1d(
                mine[mine > av], theirs[theirs > av]
            ).size
        return pd.Series(out)

    m.result = int(
        pairs.select(
            local_count(F.col("nbrs"), F.col("a"), F.col("nbrs_a")).alias("c")
        )
        .agg(F.sum("c"))
        .collect()[0][0]
        or 0
    )
    return m


def gminer_match_labeled_triangle(g: SparkGraph, pattern: Pattern) -> BaselineMetrics:
    """Purpose-built labeled-triangle (p2) matching.

    G-Miner pre-indexes vertices by label during graph loading; the
    index build (a materialized label->vertices table) is part of the
    measured work, as in the paper. The match itself is a hand-rolled
    three-way join specialized to a triangle with three labels."""
    if pattern.n != 3 or len(pattern.edges) != 3:
        raise ValueError("G-Miner's matching app only supports labeled triangles")
    la, lb, lc = (pattern.labels[v] for v in range(3))
    edges, labels = g.edges, g.labels
    m = BaselineMetrics()
    # preprocessing: label index
    index = labels.groupBy("label").agg(F.collect_list("v").alias("vs")).cache()
    index.count()

    def labeled(col: str, lab) -> DataFrame:
        return labels.where(F.col("label") == F.lit(lab)).select(
            F.col("v").alias(col)
        )

    e01 = edges.select(F.col("src").alias("x0"), F.col("dst").alias("x1"))
    e12 = edges.select(F.col("src").alias("x1"), F.col("dst").alias("x2"))
    e02 = edges.select(F.col("src").alias("x0"), F.col("dst").alias("x2"))
    df = (
        e01.join(labeled("x0", la), on="x0")
        .join(labeled("x1", lb), on="x1")
        .join(e12, on="x1")
        .join(labeled("x2", lc), on="x2")
        .join(e02, on=["x0", "x2"], how="inner")
    )
    raw = df.count()
    # hand-rolled dedup: each triangle is found once per label-preserving
    # automorphism of the query triangle
    n_auto = len(pattern.automorphisms())
    assert raw % n_auto == 0
    m.result = raw // n_auto
    index.unpersist()
    return m
