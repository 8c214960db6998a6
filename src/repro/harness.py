"""Experiment harness: times table cells and renders markdown tables.

A cell is a thunk; ``run_cell`` times it and maps resource exhaustion
(:class:`BudgetExceeded`) to the paper's '—' marker. A cell the
reproduction does not attempt is *skipped* and rendered 'n/a'.
"""
from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Callable, Optional

from pyspark.sql import DataFrame, SparkSession

from .baseline.common import BudgetExceeded
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


@dataclass
class SparkGraph:
    """A dataset loaded into the session: cached symmetric edge table,
    optional cached label table, plus the driver-side pandas copies the
    baselines and oracle need."""

    graph: Graph
    edges: DataFrame
    labels: Optional[DataFrame]

    @staticmethod
    def load(spark: SparkSession, g: Graph) -> "SparkGraph":
        edges = g.to_spark(spark).cache()
        edges.count()
        labels = g.labels_to_spark(spark)
        if labels is not None:
            labels = labels.cache()
            labels.count()
        return SparkGraph(graph=g, edges=edges, labels=labels)

    def unload(self) -> None:
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
