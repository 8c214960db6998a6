"""The paper's evaluation as one catalog of named cells (DESIGN.md §4).

A cell is one (table, app, graph, system) measurement of Figs. 1b/1c,
Tables 3–6 or Fig. 10. ``CATALOG`` maps each cell's name
(``table/app/graph/system``) to its :class:`Spec`; a spec without a
thunk is *skipped*, a cell the reproduction deliberately does not
attempt. ``run_table`` runs a table's cells, ``render`` lays the results
out as the table's markdown, ``summarize_table1`` derives Table 1 from
the Tables 3–5 and Fig. 10 results, and ``record`` does all of it for
``jobs/tables.py``.

Systems:
  PRG  — the pattern-aware engine (this reproduction's core)
  PRG-U — PRG without symmetry breaking (Figure 10 / AutoMine model)
  ABQ  — Arabesque stand-in  (BFS filter-process, baseline.bfs mode=abq)
  RS   — RStream stand-in    (relational BFS, baseline.bfs mode=rs)
  FCL  — Fractal stand-in    (DFS tasks, baseline.dfs)
  GM   — G-Miner stand-in    (purpose-built tasks, baseline.purpose)
"""
from __future__ import annotations

import json
import subprocess
import sys
from dataclasses import asdict, dataclass, field
from pathlib import Path
from typing import Callable, Optional

from pyspark.sql import SparkSession

from .baseline import bfs, dfs, purpose
from .baseline.common import BaselineMetrics
from .core import mining
from .core.matcher import MatchStats, count_matches
from .core.pattern import clique, generate_all_vertex_induced
from .graph import datasets
from .harness import (
    BASELINE_BUDGET,
    BUDGET,
    OK,
    SKIPPED,
    Cell,
    SparkGraph,
    markdown_table,
    run_cell,
    speedup,
)
from .patterns_eval import EVAL_PATTERNS, P2, P7, P8

#: Every table ``record`` knows, in an order that runs Table 1 last.
TABLES = ("fig1", "table2", "table3", "table4", "table5", "table6", "fig10", "table1")

#: FSM thresholds on both labeled graphs: scaled-down analogs of the
#: paper's 2K–4K (Mico) and 20K–23K (Patents) supports.
FSM_TAUS = (40, 30, 20)

GRAPHS = ("MI", "PA", "OK", "FR")
SMALL = ("MI", "PA")

Thunk = Callable[[SparkGraph], object]


@dataclass(frozen=True)
class Spec:
    """One cell of a paper table; ``run`` is None for a skipped cell."""

    table: str
    app: str
    graph: str  # the table's G column
    system: str
    run: Optional[Thunk] = field(default=None, compare=False, repr=False)
    dataset: str = ""  # the dataset the cell loads, when it is not ``graph``

    @property
    def name(self) -> str:
        return "/".join((self.table, self.app, self.graph, self.system))

    @property
    def data(self) -> str:
        return self.dataset or self.graph


# ---------------------------------------------------------------------------
# Each app once, per system. Every system returns PRG's answer in PRG's form.
# ---------------------------------------------------------------------------
def _named_motifs(k: int, counts: dict) -> dict[str, int]:
    """A baseline's ``{str(canonical key): count}`` as ``count_motifs``'
    ``{motif name: count}``."""
    return {mining.motif_name(p): counts.get(str(p.canonical_key()), 0)
            for p in generate_all_vertex_induced(k)}


def _motifs(k: int) -> dict[str, Thunk]:
    def bfs_run(mode):
        return lambda sg: _named_motifs(k, bfs.bfs_count_motifs(
            sg, k, mode=mode, budget=BASELINE_BUDGET).result)

    return {
        "PRG": lambda sg: mining.count_motifs(sg.edges, k),
        "PRG-U": lambda sg: mining.count_motifs(sg.edges, k, symmetry_breaking=False),
        "ABQ": bfs_run("abq"),
        "RS": bfs_run("rs"),
        "FCL": lambda sg: _named_motifs(k, dfs.dfs_count_motifs(
            sg, k, budget=BASELINE_BUDGET).result),
    }


def _cliques(k: int) -> dict[str, Thunk]:
    def bfs_run(mode):
        return lambda sg: bfs.bfs_count_cliques(
            sg, k, mode=mode, budget=BASELINE_BUDGET).result

    impls = {
        "PRG": lambda sg: mining.count_cliques(sg.edges, k),
        "ABQ": bfs_run("abq"),
        "RS": bfs_run("rs"),
        "FCL": lambda sg: dfs.dfs_count_cliques(sg, k, budget=BASELINE_BUDGET).result,
    }
    if k == 3:
        impls["GM"] = lambda sg: purpose.gminer_triangle_count(sg).result
    return impls


def _fsm(tau: int) -> dict[str, Thunk]:
    def prg(symmetry_breaking):
        return lambda sg: {str(key): s for key, s in mining.fsm(
            sg.edges, sg.labels, tau, symmetry_breaking=symmetry_breaking,
        ).by_key().items()}

    # RS has no FSM cell: RStream runs out of memory on FSM (the paper's 'x').
    return {
        "PRG": prg(True),
        "PRG-U": prg(False),
        "ABQ": lambda sg: bfs.bfs_fsm(sg, tau, budget=BASELINE_BUDGET).result,
        # DFS budgets are per task (the worker-memory analog); a small
        # per-task budget makes resource exhaustion report quickly
        # instead of grinding every task to its full individual budget.
        "FCL": lambda sg: dfs.dfs_fsm(
            sg, tau, budget=BASELINE_BUDGET // dfs.TASKS).result,
    }


def _match(pname: str) -> dict[str, Thunk]:
    pat = EVAL_PATTERNS[pname]
    # 5-vertex patterns make the pattern-oblivious DFS enumerate all
    # connected 5-sets — tens of millions even on MI-lite; the small
    # per-task budget reports the blow-up as '—'
    budget = BASELINE_BUDGET if pat.n <= 4 else BASELINE_BUDGET // dfs.TASKS
    impls = {
        "PRG": lambda sg: count_matches(sg.edges, pat, labels=sg.labels),
        "FCL": lambda sg: dfs.dfs_match_pattern(sg, pat, budget=budget).result,
    }
    if pat is P2:  # G-Miner's matching app is specific to labeled p2
        impls["GM"] = lambda sg: purpose.gminer_match_labeled_triangle(sg, P2).result
    return impls


def _profile(m: BaselineMetrics) -> dict:
    result = sum(m.result.values()) if isinstance(m.result, dict) else m.result
    return dict(explored=m.explored, canonicality=m.canonicality,
                isomorphism=m.isomorphism, result=result)


def _profiles(k: int, motifs: bool) -> dict[str, Thunk]:
    """Figure 1b (4-cliques) / 1c (3-motifs) counters, run to completion
    (``budget=None``): the counts are the experiment."""
    patterns = list(generate_all_vertex_induced(k)) if motifs else [clique(k)]

    def prg(sg):
        stats = MatchStats()
        n = sum(count_matches(sg.edges, p, induced=motifs, stats=stats)
                for p in patterns)
        # a pattern-aware plan runs no per-match canonicality or
        # isomorphism computation
        return dict(explored=stats.matches_explored, canonicality=0,
                    isomorphism=0, result=n)

    def bfs_run(mode):
        fn = bfs.bfs_count_motifs if motifs else bfs.bfs_count_cliques
        return lambda sg: _profile(fn(sg, k, mode=mode, budget=None))

    fcl = dfs.dfs_count_motifs if motifs else dfs.dfs_count_cliques
    return {
        "PRG": prg,
        "ABQ": bfs_run("abq"),
        "RS": bfs_run("rs"),
        "FCL": lambda sg: _profile(fcl(sg, k, budget=None)),
    }


_CONSTRAINED = {
    "14-Clique exists": lambda sg: mining.exists_clique(sg.edges, 14),
    "Anti-Vertex p7": lambda sg: count_matches(sg.edges, P7),
    "Anti-Edge p8": lambda sg: count_matches(sg.edges, P8),
}


# ---------------------------------------------------------------------------
# The catalog
# ---------------------------------------------------------------------------
def _catalog() -> dict[str, Spec]:
    specs: list[Spec] = []

    def row(table, app, graph, impls, systems, dataset=""):
        for system in systems:
            run = impls.get(system)
            if system in ("ABQ", "RS", "FCL") and graph in ("OK", "FR"):
                # the paper's OOM / out-of-disk cells: the budget would be
                # exhausted at once, so only PRG is attempted on OK/FR
                run = None
            specs.append(Spec(table, app, graph, system, run, dataset))

    # Figure 1b/1c — profiling counts on Patents(-lite)
    for app, impls in (("4-Clique", _profiles(4, motifs=False)),
                       ("3-Motif", _profiles(3, motifs=True))):
        row("fig1", app, "PA", impls, ("PRG", "ABQ", "RS", "FCL"))

    # Tables 3 and 4 — PRG vs breadth-first (ABQ, RS) and depth-first (FCL)
    for table, systems in (("table3", ("PRG", "ABQ", "RS")), ("table4", ("PRG", "FCL"))):
        for k in (3, 4):
            for g in GRAPHS:
                row(table, f"{k}-Motifs", g, _motifs(k), systems)
        for g in ("MI", "PA-labeled"):
            for tau in FSM_TAUS:
                row(table, f"{tau}-FSM", g, _fsm(tau), systems)
        for k in (3, 4, 5):
            for g in GRAPHS:
                row(table, f"{k}-Cliques", g, _cliques(k), systems)
    # Table 4 pattern matching: p6 on MI/PA only (as in the paper); the
    # labeled p2 on the labeled graphs, PA-labeled standing in for PA
    for pname in ("p1", "p2", "p3", "p4", "p5", "p6"):
        for g in SMALL if pname in ("p2", "p6") else GRAPHS:
            row("table4", f"Match {pname}", g, _match(pname), ("PRG", "FCL"),
                dataset="PA-labeled" if pname == "p2" and g == "PA" else "")

    # Table 5 — PRG vs purpose-built G-Miner
    for g in GRAPHS:
        row("table5", "3-Cliques", g, _cliques(3), ("PRG", "GM"))
    for g in SMALL:
        row("table5", "Match p2", g, _match("p2"), ("PRG", "GM"),
            dataset="PA-labeled" if g == "PA" else "")

    # Table 6 — constrained mining
    for g in GRAPHS:
        for app, fn in _CONSTRAINED.items():
            row("table6", app, g, {"PRG": fn}, ("PRG",))

    # Figure 10 — symmetry breaking on/off: 4-motifs (MI, PA and the
    # dense OK, where the redundant |Aut| copies dominate), low-support FSM
    for g in ("MI", "PA", "OK"):
        row("fig10", "4-Motifs", g, _motifs(4), ("PRG", "PRG-U"))
    for g in ("MI", "PA-labeled"):
        row("fig10", f"{FSM_TAUS[-1]}-FSM", g, _fsm(FSM_TAUS[-1]), ("PRG", "PRG-U"))

    return {s.name: s for s in specs}


CATALOG: dict[str, Spec] = _catalog()


def specs(table: str) -> list[Spec]:
    return [s for s in CATALOG.values() if s.table == table]


def _peer(s: Spec, system: str) -> str:
    return "/".join((s.table, s.app, s.graph, system))


# ---------------------------------------------------------------------------
# Runner
# ---------------------------------------------------------------------------
def run_table(
    spark: SparkSession, table: str,
    graphs: Optional[dict[str, SparkGraph]] = None,
    path: Optional[Path] = None,
) -> dict[str, Cell]:
    """Run every cell of ``table`` on the lite datasets, or on ``graphs``
    (dataset name → loaded graph) when given. Returns ``{name: Cell}``;
    skipped cells are not run. With ``path``, the cells so far are saved
    there after each one, so a run cut short keeps what finished."""
    loaded = {}
    if graphs is None:
        need = {s.data for s in specs(table) if s.run is not None}
        loaded = graphs = {n: SparkGraph.load(spark, g)
                           for n, g in datasets.all_datasets().items() if n in need}
    commit = engine_commit() if path else ""
    results = {}
    for s in specs(table):
        if s.run is None:
            results[s.name] = Cell(status=SKIPPED)
        else:
            results[s.name] = c = run_cell(lambda: s.run(graphs[s.data]))
            print(f"[cell] {s.name}: {c.fmt_time()}", file=sys.stderr, flush=True)
        if path:
            save_cells(path, commit, results)
    for sg in loaded.values():
        sg.unload()
    return results


def disagreements(results: dict[str, Cell]) -> list[str]:
    """Cells whose answer differs from PRG's in the same row: the systems
    differ only in the work they do."""
    def answer(s, c):
        return c.value["result"] if s.table == "fig1" else c.value

    bad = []
    for name, c in results.items():
        s = CATALOG[name]
        prg = results.get(_peer(s, "PRG"))
        if c.status == OK and prg is not None and prg.status == OK \
                and answer(s, c) != answer(s, prg):
            bad.append(name)
    return bad


# ---------------------------------------------------------------------------
# Renderer: each table's markdown columns
# ---------------------------------------------------------------------------
def _vs(*others: str):
    """'App | G | PRG (s) | X (s) … | X/PRG …', one row per (app, graph)."""
    headers = ["App", "G", "PRG (s)", *[f"{o} (s)" for o in others],
               *[f"{o}/PRG" for o in others]]

    def fmt(key, c):
        return [*key, c["PRG"].fmt_time(), *[c[o].fmt_time() for o in others],
                *[speedup(c["PRG"], c[o]) for o in others]]

    return headers, lambda s: (s.app, s.graph), lambda s: s.system, fmt


def _fig1_row(key, c):
    v = c[""].value
    ratio = f"{v['explored'] / max(v['result'], 1):.1f}x" if v["explored"] else "1.0x"
    return [*key, v["explored"], ratio, v["canonicality"], v["isomorphism"], v["result"]]


def _table6_row(key, c):
    return [*key, *[x for app in _CONSTRAINED
                    for x in (c[app].fmt_time(), c[app].fmt_value())]]


#: table → (headers, row key, column key, row formatter)
_LAYOUTS = {
    "fig1": (["App", "System", "Total matches", "vs result", "Canonicality",
              "Isomorphism", "Result"],
             lambda s: (s.app, s.system), lambda s: "", _fig1_row),
    "table3": _vs("ABQ", "RS"),
    "table4": _vs("FCL"),
    "table5": _vs("GM"),
    "table6": (["G", "14-Clique exists (s)", "found?", "Anti-Vertex p7 (s)",
                "p7 count", "Anti-Edge p8 (s)", "p8 count"],
               lambda s: (s.graph,), lambda s: s.app, _table6_row),
    "fig10": _vs("PRG-U"),
}


def render(table: str, results: dict[str, Cell]) -> str:
    headers, row_key, col_key, fmt = _LAYOUTS[table]
    rows: dict[tuple, dict[str, Cell]] = {}
    for s in specs(table):
        rows.setdefault(row_key(s), {})[col_key(s)] = results[s.name]
    return markdown_table(headers, [fmt(k, c) for k, c in rows.items()])


# ---------------------------------------------------------------------------
# Table 2 — dataset statistics
# ---------------------------------------------------------------------------
def run_table2() -> tuple[str, list[dict]]:
    import pandas as pd

    pdf = datasets.dataset_stats()
    rows = pdf.to_dict("records")
    md = markdown_table(
        ["G", "|V(G)|", "|E(G)|", "|L(G)|", "Max deg", "Avg deg"],
        [[r["G"], r["V"], r["E"],
          "—" if pd.isna(r["L"]) else int(r["L"]), r["max_deg"], r["avg_deg"]]
         for r in rows],
    )
    return md, rows


# ---------------------------------------------------------------------------
# Table 1 — performance summary over the Tables 3–5 and Fig. 10 cells
# ---------------------------------------------------------------------------
#: (row label, source table, system compared with PRG)
TABLE1_ROWS = (
    ("Arabesque (ABQ)", "table3", "ABQ"),
    ("RStream (RS)", "table3", "RS"),
    ("Fractal (FCL)", "table4", "FCL"),
    ("G-Miner (GM)", "table5", "GM"),
    ("PRG-U (no sym. breaking)", "fig10", "PRG-U"),
)


def summarize_table1(results: dict[str, Cell]) -> tuple[str, list[dict]]:
    """Speedup range over the cells both systems finished, and the cells
    that ran out of budget where PRG finished. Skipped cells count in
    neither."""
    summary = []
    for label, table, system in TABLE1_ROWS:
        ratios, failed = [], 0
        for s in specs(table):
            c, prg = results.get(s.name), results.get(_peer(s, "PRG"))
            if s.system != system or c is None or prg is None or prg.status != OK:
                continue
            if c.status == OK and prg.seconds:
                ratios.append(c.seconds / prg.seconds)
            failed += c.status == BUDGET
        summary.append(dict(
            system=label,
            min=f"{min(ratios):.1f}x" if ratios else "—",
            max=f"{max(ratios):.1f}x" if ratios else "—",
            cells=len(ratios), failed=failed,
        ))
    md = markdown_table(
        ["vs system", "min speedup", "max speedup", "comparable cells",
         "cells failed (budget) where PRG succeeded"],
        [[s["system"], s["min"], s["max"], s["cells"], s["failed"]]
         for s in summary],
    )
    return md, summary


# ---------------------------------------------------------------------------
# Results files
# ---------------------------------------------------------------------------
#: The code a cell measures; the harness and this catalog only drive it.
ENGINE = ("src/repro/core", "src/repro/baseline", "src/repro/graph",
          "src/repro/patterns_eval.py")


def engine_commit() -> str:
    """The last commit that changed the engine, with '+dirty' when the
    engine's files differ from it."""
    def git(*args):
        return subprocess.run(
            ["git", *args, "--", *[f":(top){p}" for p in ENGINE]],
            cwd=Path(__file__).parent, capture_output=True, text=True,
        ).stdout.strip()

    commit = git("log", "-1", "--format=%h") or "unknown"
    return commit + ("+dirty" if git("status", "--porcelain") else "")


def _save(path: Path, commit: str, **payload) -> None:
    path.write_text(json.dumps({"engine_commit": commit, **payload}, indent=1))


def save_cells(path: Path, commit: str, results: dict[str, Cell]) -> None:
    def jsonable(v):
        try:
            json.dumps(v)
            return v
        except TypeError:  # e.g. dicts keyed by tuples
            return repr(v)

    _save(path, commit, cells={
        n: {**asdict(c), "value": jsonable(c.value)} for n, c in results.items()})


def load_cells(path: Path) -> tuple[str, dict[str, Cell]]:
    data = json.loads(path.read_text())
    return data["engine_commit"], {n: Cell(**c) for n, c in data["cells"].items()}


def _table1(out: Path) -> tuple[str, str, list[dict]]:
    commits, results = {}, {}
    for _, t, _ in TABLE1_ROWS:
        commits[t], cells = load_cells(out / f"{t}.json")
        results.update(cells)
    if len(set(commits.values())) != 1 or any(c.endswith("+dirty") for c in commits.values()):
        raise SystemExit(f"Table 1 needs its sources from one engine commit: {commits}")
    md, rows = summarize_table1(results)
    return md, commits["table3"], rows


def record(spark: SparkSession, tables: list[str], out: Path) -> None:
    """Run each table in ``tables`` (names from ``TABLES``), write
    ``out/<table>.json`` with the engine commit and print its markdown.
    Table 1 is derived from the saved Tables 3–5 and Fig. 10 results."""
    out.mkdir(exist_ok=True)
    for t in tables:
        path, bad = out / f"{t}.json", []
        if t == "table1":
            md, commit, rows = _table1(out)
            _save(path, commit, rows=rows)
        elif t == "table2":
            md, rows = run_table2()
            _save(path, engine_commit(), rows=rows)
        else:
            results = run_table(spark, t, path=path)
            md, bad = render(t, results), disagreements(results)
        print(f"## {t}\n\n{md}\n", flush=True)
        if bad:
            raise SystemExit(f"{t}: answers differ from PRG's in {bad}")
