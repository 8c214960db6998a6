"""Experiment harness: the loaded graph, cell timing and markdown tables.

A cell is a thunk over a :class:`SparkGraph`, the one loaded form of a
data graph that every baseline and table cell takes; ``run_cell`` times
it and maps resource exhaustion (:class:`BudgetExceeded`) to the paper's
'—' marker. A cell the reproduction does not attempt is *skipped* and
rendered 'n/a'.
"""
from __future__ import annotations

import time
from dataclasses import dataclass
from functools import cached_property
from typing import Callable, Optional

import numpy as np
from pyspark import Broadcast
from pyspark.sql import DataFrame, SparkSession

from .baseline.common import BudgetExceeded, adjacency_dict
from .graph.gengraph import Graph

#: Explored-embedding budget for baseline systems: the deterministic
#: laptop-scale analog of the paper's OOM / disk / 5-hour limits.
BASELINE_BUDGET = 2_000_000

OK, BUDGET, SKIPPED = "ok", "budget", "skipped"
#: How a cell without a time renders: '—' ran out of budget (the
#: paper's OOM / timeout), 'n/a' was never attempted.
MARKERS = {BUDGET: "—", SKIPPED: "n/a"}


@dataclass
class Cell:
    """The outcome of one table cell."""

    seconds: Optional[float] = None
    value: object = None
    status: str = OK  # OK, BUDGET or SKIPPED

    def fmt_time(self) -> str:
        return MARKERS.get(self.status) or f"{self.seconds:.2f}"

    def fmt_value(self) -> str:
        return MARKERS.get(self.status) or str(self.value)


def run_cell(fn: Callable[[], object]) -> Cell:
    """Time a thunk; budget exhaustion becomes the '—' cell."""
    t0 = time.perf_counter()
    try:
        value = fn()
    except BudgetExceeded:
        return Cell(status=BUDGET)
    return Cell(seconds=time.perf_counter() - t0, value=value)


def check_graph(g: Graph) -> None:
    """The graph contract the engine and the baselines assume: a
    symmetric ``edges(src, dst)`` with no self-loop and no duplicate row,
    and at most one label row per vertex. Raises ``ValueError``. Runs in
    pandas on the driver copies, so it starts no Spark job."""
    src = g.edges_pdf.src.to_numpy(dtype=np.int64)
    dst = g.edges_pdf.dst.to_numpy(dtype=np.int64)
    if (src == dst).any():
        raise ValueError(f"{g.name}: self-loop at vertex {int(src[src == dst][0])}")
    width = int(max(src.max(initial=0), dst.max(initial=0))) + 1
    fwd = np.sort(src * width + dst)
    if (fwd[1:] == fwd[:-1]).any():
        raise ValueError(f"{g.name}: duplicate edge row")
    if not np.array_equal(fwd, np.sort(dst * width + src)):
        raise ValueError(f"{g.name}: edge table is not symmetric")
    if g.labels_pdf is not None and g.labels_pdf.v.duplicated().any():
        raise ValueError(f"{g.name}: a vertex has more than one label row")


@dataclass
class SparkGraph:
    """A dataset loaded into the session: the cached symmetric edge table
    and optional cached label table, the driver-side ``graph`` they came
    from, and per-load broadcasts of its adjacency and label map, built
    on first use. ``unload`` drops all of them."""

    graph: Graph
    edges: DataFrame
    labels: Optional[DataFrame]

    @staticmethod
    def load(spark: SparkSession, g: Graph) -> "SparkGraph":
        check_graph(g)
        edges = g.to_spark(spark).cache()
        edges.count()
        labels = g.labels_to_spark(spark)
        if labels is not None:
            labels = labels.cache()
            labels.count()
        return SparkGraph(graph=g, edges=edges, labels=labels)

    @cached_property
    def adj_b(self) -> Broadcast:
        """``{vertex: neighbour frozenset}``, broadcast once per load."""
        return self._broadcast(adjacency_dict(self.graph.edges_pdf))

    @cached_property
    def labels_b(self) -> Broadcast:
        """``{vertex: label}`` (empty when unlabeled), broadcast once per load."""
        return self._broadcast(self.graph.label_dict())

    def _broadcast(self, value) -> Broadcast:
        return self.edges.sparkSession.sparkContext.broadcast(value)

    def unload(self) -> None:
        for name in ("adj_b", "labels_b"):
            b = self.__dict__.pop(name, None)
            if b is not None:
                b.destroy()
        self.edges.unpersist()
        if self.labels is not None:
            self.labels.unpersist()


def markdown_table(headers: list[str], rows: list[list[str]]) -> str:
    out = ["| " + " | ".join(headers) + " |",
           "|" + "|".join(["---"] * len(headers)) + "|"]
    for r in rows:
        out.append("| " + " | ".join(str(x) for x in r) + " |")
    return "\n".join(out)


def speedup(prg: Cell, other: Cell) -> str:
    """other/prg time ratio; the other cell's marker when it has no time
    ('—': failed where Peregrine succeeded)."""
    if other.status != OK:
        return MARKERS[other.status]
    if prg.status != OK or prg.seconds == 0:
        return "—"
    return f"{other.seconds / prg.seconds:.1f}x"
