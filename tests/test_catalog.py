"""The paper-table cell catalog: drift guards, the declared skipped set,
and the tables' count claims on tiny graphs (counters and answers, never
times)."""
from collections import Counter

import pytest

from benchmarks.test_cells import CELLS
from repro.experiments import (
    CATALOG,
    disagreements,
    load_cells,
    render,
    run_table2,
    run_table,
    save_cells,
    specs,
    summarize_table1,
)
from repro.harness import OK, SKIPPED, Cell, SparkGraph

#: Each table's header row as rendered before the catalog existed.
PARENT_HEADERS = {
    "fig1": "| App | System | Total matches | vs result | Canonicality | Isomorphism | Result |",
    "table2": "| G | |V(G)| | |E(G)| | |L(G)| | Max deg | Avg deg |",
    "table3": "| App | G | PRG (s) | ABQ (s) | RS (s) | ABQ/PRG | RS/PRG |",
    "table4": "| App | G | PRG (s) | FCL (s) | FCL/PRG |",
    "table5": "| App | G | PRG (s) | GM (s) | GM/PRG |",
    "table6": "| G | 14-Clique exists (s) | found? | Anti-Vertex p7 (s) | p7 count "
              "| Anti-Edge p8 (s) | p8 count |",
    "fig10": "| App | G | PRG (s) | PRG-U (s) | PRG-U/PRG |",
    "table1": "| vs system | min speedup | max speedup | comparable cells "
              "| cells failed (budget) where PRG succeeded |",
}
CELL_TABLES = ("fig1", "table3", "table4", "table5", "table6", "fig10")


def _synthetic() -> dict[str, Cell]:
    profile = dict(explored=2, canonicality=1, isomorphism=1, result=1)
    return {
        n: Cell(status=SKIPPED) if s.run is None
        else Cell(1.0, profile if s.table == "fig1" else 1)
        for n, s in CATALOG.items()
    }


class TestDriftGuard:
    def test_bench_cells_in_catalog(self):
        assert CELLS and not set(CELLS) - set(CATALOG)
        assert len(set(CELLS)) == len(CELLS)
        assert all(CATALOG[n].run is not None for n in CELLS)

    @pytest.mark.parametrize("table", sorted(PARENT_HEADERS))
    def test_tables_render_parent_header(self, table):
        if table == "table1":
            md = summarize_table1(_synthetic())[0]
        elif table == "table2":
            md = run_table2()[0]
        else:
            md = render(table, _synthetic())
        assert md.splitlines()[0] == PARENT_HEADERS[table]


def test_skipped_cells_are_declared_set():
    """Skipped: ABQ/RS/FCL on OK and FR, and RS FSM (the paper's 'x')."""
    skipped = {n for n, s in CATALOG.items() if s.run is None}
    on_large = {n for n, s in CATALOG.items()
                if s.system in ("ABQ", "RS", "FCL") and s.graph in ("OK", "FR")}
    rs_fsm = {n for n, s in CATALOG.items()
              if s.system == "RS" and s.app.endswith("-FSM")}
    assert len(rs_fsm) == 6
    assert skipped == on_large | rs_fsm
    assert Counter(CATALOG[n].table for n in skipped) == {"table3": 26, "table4": 18}


# -- the catalog on tiny graphs --------------------------------------------
@pytest.fixture(scope="module")
def tiny_results(sparks, tiny_unlabeled, tiny_labeled):
    """Run a table's cells with the labeled datasets replaced by
    ``tiny_labeled`` and the unlabeled ones by ``tiny_unlabeled``."""
    lab = SparkGraph.load(sparks, tiny_labeled)
    unl = SparkGraph.load(sparks, tiny_unlabeled)
    graphs = {"MI": lab, "PA-labeled": lab, "PA": unl, "OK": unl, "FR": unl}
    memo: dict[str, dict[str, Cell]] = {}

    def get(table):
        if table not in memo:
            memo[table] = run_table(sparks, table, graphs)
        return memo[table]

    yield get
    lab.unload()
    unl.unload()


@pytest.mark.parametrize("table", CELL_TABLES)
def test_every_system_returns_prgs_answer(tiny_results, table):
    results = tiny_results(table)
    assert set(results) == {s.name for s in specs(table)}
    ran = {n for n, s in CATALOG.items() if s.table == table and s.run is not None}
    assert {n for n, c in results.items() if c.status == OK} == ran
    assert disagreements(results) == []


@pytest.mark.parametrize("table", CELL_TABLES)
def test_cell_values_round_trip(tiny_results, table, tmp_path):
    """Every cell value is JSON-native: the results file gives back the
    cells as they were run."""
    results = tiny_results(table)
    save_cells(tmp_path / "t.json", "c", results)
    assert load_cells(tmp_path / "t.json")[1] == results


@pytest.mark.parametrize("app", ["4-Clique", "3-Motif"])
def test_fig1_counters(tiny_results, app):
    """PRG explores exactly its result with no checks; every
    pattern-oblivious system explores at least the result and runs
    canonicality checks. Isomorphism checks run wherever a system must
    identify each match's pattern; RS and FCL count 4-cliques natively
    (0 isomorphism checks, as in the paper's Fig. 1b)."""
    results = tiny_results("fig1")
    v = {s: results[f"fig1/{app}/PA/{s}"].value for s in ("PRG", "ABQ", "RS", "FCL")}
    assert v["PRG"]["result"] > 0
    assert v["PRG"]["explored"] == v["PRG"]["result"]
    for system in ("ABQ", "RS", "FCL"):
        assert v[system]["explored"] >= v[system]["result"]
        assert v[system]["canonicality"] > 0
        native = app == "4-Clique" and system != "ABQ"
        assert (v[system]["isomorphism"] == 0) if native else v[system]["isomorphism"] > 0
