"""Tests for the pattern -> DuckDB SQL compiler, checked directly in
DuckDB against the pure-Python reference (no Spark needed here; the
matcher-vs-SQL checks live in test_matcher.py)."""
import duckdb
import pandas as pd
import pytest

from repro.core.pattern import Pattern, chain, clique, star
from repro.core.plan import vertex_induced_rewrite
from repro.graph.gengraph import from_edge_list, powerlaw_graph
from repro.oracle_sql import _vertex_orbits, count_sql, matches_sql, mni_support_sql
from repro.reference import RefGraph, ref_count, ref_matches, ref_mni_support

from .conftest import CONSTRAINED_PATTERNS, FIG6_EDGES, PLAIN_PATTERNS


def _duck_count(sql: str, edges_pdf: pd.DataFrame, labels_pdf=None) -> int:
    con = duckdb.connect()
    try:
        con.register("edges", edges_pdf)
        if labels_pdf is not None:
            con.register("labels", labels_pdf)
        return int(con.execute(sql).fetchone()[0])
    finally:
        con.close()


@pytest.fixture(scope="module")
def graph():
    return powerlaw_graph(60, 160, seed=3)


@pytest.fixture(scope="module")
def fig6_g():
    return from_edge_list(FIG6_EDGES)


class TestCountSql:
    @pytest.mark.parametrize("name", sorted(PLAIN_PATTERNS))
    def test_plain_counts(self, name, graph):
        p = PLAIN_PATTERNS[name]
        rg = RefGraph(graph.edge_tuples())
        got = _duck_count(count_sql(p), graph.edges_pdf)
        assert got == ref_count(rg, p)

    @pytest.mark.parametrize("name", ["wedge", "path4", "cycle4", "diamond", "clique4"])
    def test_induced_counts(self, name, graph):
        p = vertex_induced_rewrite(PLAIN_PATTERNS[name])
        rg = RefGraph(graph.edge_tuples())
        got = _duck_count(count_sql(p), graph.edges_pdf)
        assert got == ref_count(rg, p)

    @pytest.mark.parametrize("name", sorted(CONSTRAINED_PATTERNS))
    def test_constrained_counts(self, name, graph):
        p = CONSTRAINED_PATTERNS[name]
        rg = RefGraph(graph.edge_tuples())
        got = _duck_count(count_sql(p), graph.edges_pdf)
        assert got == ref_count(rg, p)

    @pytest.mark.parametrize("name", ["triangle", "wedge", "diamond"])
    def test_no_symmetry_breaking_counts_all_copies(self, name, graph):
        p = PLAIN_PATTERNS[name]
        rg = RefGraph(graph.edge_tuples())
        got = _duck_count(
            count_sql(p, symmetry_breaking=False), graph.edges_pdf
        )
        assert got == ref_count(rg, p, symmetry_breaking=False)

    def test_labeled_count(self):
        g = from_edge_list(
            [(0, 1), (1, 2), (0, 2), (2, 3)], labels={0: 1, 1: 2, 2: 3, 3: 1}
        )
        p = clique(3).with_labels([1, 2, 3])
        got = _duck_count(count_sql(p), g.edges_pdf, g.labels_pdf)
        assert got == ref_count(RefGraph(g.edge_tuples(), g.label_dict()), p)


class TestMatchesSql:
    @pytest.mark.parametrize("name", ["triangle", "wedge", "diamond", "pe", "p8"])
    def test_rows_equal_reference(self, name, fig6_g):
        p = {**PLAIN_PATTERNS, **CONSTRAINED_PATTERNS}[name]
        con = duckdb.connect()
        try:
            con.register("edges", fig6_g.edges_pdf)
            rows = con.execute(matches_sql(p)).fetchall()
        finally:
            con.close()
        got = sorted(tuple(int(x) for x in r) for r in rows)
        want = sorted(ref_matches(RefGraph(fig6_g.edge_tuples()), p))
        assert got == want


class TestMniSql:
    @pytest.mark.parametrize("name", ["edge", "wedge", "triangle", "star4"])
    def test_support(self, name, graph):
        p = PLAIN_PATTERNS[name]
        got = _duck_count(mni_support_sql(p), graph.edges_pdf)
        assert got == ref_mni_support(RefGraph(graph.edge_tuples()), p)

    def test_orbits_partition_vertices(self):
        for p in PLAIN_PATTERNS.values():
            orbs = _vertex_orbits(p)
            flat = [v for o in orbs for v in o]
            assert sorted(flat) == list(p.regular_vertices)
