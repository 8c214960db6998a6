"""Per-cell timings for a named subset of the paper-table catalog.

Each benchmark runs one cell of ``repro.experiments.CATALOG`` by name —
PRG and a baseline on the same row where the table has one — for one
round (``benchmark.pedantic``): a cell is itself a multi-second Spark
pipeline, and repeated rounds would only measure cache warmth.
"""
import pytest

from repro.experiments import CATALOG
from repro.harness import run_cell

CELLS = [
    "fig1/4-Clique/PA/PRG",
    "fig1/4-Clique/PA/ABQ",
    "fig1/3-Motif/PA/PRG",
    "fig1/3-Motif/PA/RS",
    "table3/3-Motifs/MI/PRG",
    "table3/3-Motifs/MI/ABQ",
    "table3/3-Motifs/MI/RS",
    "table3/4-Cliques/PA/PRG",
    "table3/4-Cliques/PA/ABQ",
    "table3/40-FSM/MI/PRG",
    "table3/40-FSM/MI/ABQ",
    "table4/5-Cliques/PA/PRG",
    "table4/5-Cliques/PA/FCL",
    "table4/Match p1/PA/PRG",
    "table4/Match p1/PA/FCL",
    "table5/3-Cliques/OK/PRG",
    "table5/3-Cliques/OK/GM",
    "table5/Match p2/MI/PRG",
    "table5/Match p2/MI/GM",
    "table6/Anti-Vertex p7/OK/PRG",
    "table6/Anti-Edge p8/OK/PRG",
    "fig10/4-Motifs/MI/PRG",
    "fig10/4-Motifs/MI/PRG-U",
]


@pytest.mark.parametrize("name", CELLS)
def test_cell(benchmark, dataset, name):
    spec = CATALOG[name]
    sg = dataset(spec.data)
    cell = benchmark.pedantic(run_cell, args=(lambda: spec.run(sg),),
                              rounds=1, iterations=1)
    print(f"\n[{name}] {cell.fmt_time()} s")
