"""Tests for the harness and table runners (cheap paths only — the full
table sweeps are exercised by the benchmarks)."""
import json
import time

import pytest

from repro.baseline.common import BudgetExceeded
from repro.experiments import load_cells, run_table2, save_cells, summarize_table1
from repro.harness import (
    BUDGET,
    SKIPPED,
    Cell,
    SparkGraph,
    markdown_table,
    run_cell,
    speedup,
)
from repro.patterns_eval import EVAL_PATTERNS, P7, P8


class TestRunCell:
    def test_times_and_returns(self):
        c = run_cell(lambda: 42)
        assert c.value == 42 and c.seconds is not None and c.seconds >= 0

    def test_budget_becomes_dash(self):
        def boom():
            raise BudgetExceeded("too much")

        c = run_cell(boom)
        assert c.seconds is None
        assert c.fmt_time() == "—" and c.fmt_value() == "—"

    def test_other_exceptions_propagate(self):
        with pytest.raises(RuntimeError):
            run_cell(lambda: (_ for _ in ()).throw(RuntimeError("x")))


class TestFormatting:
    def test_markdown_table(self):
        md = markdown_table(["a", "b"], [["1", "2"], ["3", "4"]])
        lines = md.splitlines()
        assert lines[0] == "| a | b |"
        assert lines[1] == "|---|---|"
        assert len(lines) == 4

    def test_speedup(self):
        assert speedup(Cell(seconds=2.0), Cell(seconds=10.0)) == "5.0x"
        assert speedup(Cell(seconds=2.0), Cell(status=BUDGET)) == "—"
        assert speedup(Cell(seconds=2.0), Cell(status=SKIPPED)) == "n/a"
        assert speedup(Cell(status=BUDGET), Cell(seconds=1.0)) == "—"


class TestSerialization:
    def test_roundtrip_preserves_seconds(self, tmp_path):
        cells = {"table4/3-Motifs/MI/PRG": Cell(1.5, {"wedge": 42}),
                 "table4/3-Motifs/MI/FCL": Cell(status=BUDGET),
                 "table4/3-Motifs/OK/FCL": Cell(status=SKIPPED)}
        save_cells(tmp_path / "t.json", "abc1234", cells)
        commit, back = load_cells(tmp_path / "t.json")
        assert commit == "abc1234"
        assert back == cells

    def test_serialized_is_json_safe(self, tmp_path):
        weird = {(1, 2): object()}
        with pytest.raises(TypeError):
            save_cells(tmp_path / "t.json", "c", {"table4/3-Motifs/MI/PRG": Cell(0.1, weird)})
        assert not (tmp_path / "t.json").exists()

    def test_summary_works_on_deserialized(self, tmp_path):
        cells = {"table4/3-Motifs/MI/PRG": Cell(1.0, 1),
                 "table4/3-Motifs/MI/FCL": Cell(5.0, 1)}
        save_cells(tmp_path / "t.json", "c", cells)
        md, s = summarize_table1(load_cells(tmp_path / "t.json")[1])
        by = {r["system"]: r for r in s}
        assert by["Fractal (FCL)"]["max"] == "5.0x"


class TestSparkGraph:
    def test_load_unload(self, sparks):
        from repro.graph.gengraph import powerlaw_graph

        sg = SparkGraph.load(sparks, powerlaw_graph(50, 120, seed=1))
        assert sg.edges.is_cached
        assert sg.labels is None
        sg.unload()

    @pytest.mark.parametrize("edges,labels,error", [
        ([(0, 1), (1, 0), (1, 2)], None, "not symmetric"),
        ([(0, 1), (1, 0), (1, 1)], None, "self-loop"),
        ([(0, 1), (1, 0), (0, 1), (1, 0)], None, "duplicate edge"),
        ([(0, 1), (1, 0)], [(0, 1), (1, 1), (1, 2)], "more than one label"),
    ], ids=["asymmetric", "self-loop", "duplicate-edge", "two-labels"])
    def test_load_rejects_graph_contract_violation(self, sparks, edges, labels, error):
        import pandas as pd

        from repro.graph.gengraph import Graph

        g = Graph("bad", pd.DataFrame(edges, columns=["src", "dst"]),
                  None if labels is None else pd.DataFrame(labels, columns=["v", "label"]))
        with pytest.raises(ValueError, match=error):
            SparkGraph.load(sparks, g)


class TestTable2:
    def test_runs_and_renders(self):
        md, rows = run_table2()
        assert "| MI |" in md and "| FR |" in md
        assert len(rows) == 5
        json.dumps(rows, allow_nan=False)


class TestEvalPatterns:
    def test_all_eight_defined(self):
        assert set(EVAL_PATTERNS) == {f"p{i}" for i in range(1, 9)}

    def test_p7_is_constrained_triangle(self):
        assert P7.anti_vertices and len(P7.edges) == 3

    def test_p8_has_anti_edge(self):
        assert P8.anti_edges and not P8.anti_vertices

    def test_p2_fully_labeled(self):
        assert all(l is not None for l in EVAL_PATTERNS["p2"].labels)


class TestTable1Summary:
    def test_summary_from_synthetic_rows(self):
        results = {
            "table3/3-Motifs/MI/PRG": Cell(1.0, 1),
            "table3/3-Motifs/MI/ABQ": Cell(10.0, 1),
            "table3/3-Motifs/MI/RS": Cell(status=BUDGET),
            "table3/3-Motifs/PA/PRG": Cell(2.0, 1),
            "table3/3-Motifs/PA/ABQ": Cell(4.0, 1),
            "table3/3-Motifs/PA/RS": Cell(40.0, 1),
            "table4/3-Motifs/MI/PRG": Cell(1.0, 1),
            "table4/3-Motifs/MI/FCL": Cell(3.0, 1),
            "table5/3-Cliques/MI/PRG": Cell(1.0, 1),
            "table5/3-Cliques/MI/GM": Cell(status=BUDGET),
            "fig10/4-Motifs/MI/PRG": Cell(1.0, 1),
            "fig10/4-Motifs/MI/PRG-U": Cell(8.0, 1),
        }
        md, rows = summarize_table1(results)
        by = {r["system"]: r for r in rows}
        assert by["Arabesque (ABQ)"]["min"] == "2.0x"
        assert by["Arabesque (ABQ)"]["max"] == "10.0x"
        assert by["RStream (RS)"]["failed"] == 1
        assert by["G-Miner (GM)"]["failed"] == 1
        assert by["PRG-U (no sym. breaking)"]["max"] == "8.0x"

    def test_skipped_cells_not_counted(self):
        """Only a cell that ran out of budget failed; a cell that was
        never attempted is neither a failure nor comparable."""
        results = {
            "table3/4-Motifs/MI/PRG": Cell(1.0, 1),
            "table3/4-Motifs/MI/ABQ": Cell(status=BUDGET),
            "table3/4-Motifs/MI/RS": Cell(status=BUDGET),
            "table3/4-Motifs/OK/PRG": Cell(1.0, 1),
            "table3/4-Motifs/OK/ABQ": Cell(status=SKIPPED),
            "table3/4-Motifs/OK/RS": Cell(status=SKIPPED),
            "table3/40-FSM/MI/PRG": Cell(1.0, 1),
            "table3/40-FSM/MI/ABQ": Cell(2.0, 1),
            "table3/40-FSM/MI/RS": Cell(status=SKIPPED),
        }
        _, rows = summarize_table1(results)
        by = {r["system"]: r for r in rows}
        assert (by["Arabesque (ABQ)"]["failed"], by["Arabesque (ABQ)"]["cells"]) == (1, 1)
        assert (by["RStream (RS)"]["failed"], by["RStream (RS)"]["cells"]) == (1, 0)
