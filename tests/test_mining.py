"""Tests for the mining applications (§3.2, Figure 4)."""
import collections

import pytest
from pyspark.sql import functions as F

from repro.core.matcher import count_matches
from repro.core.mining import (
    cc_exceeds,
    count_cliques,
    count_motifs,
    exists_pattern,
    fsm,
    global_clustering_coefficient,
    motif_name,
)
from repro.core.pattern import Pattern, chain, clique, generate_all_vertex_induced, star
from repro.oracle import assert_equivalent
from repro.oracle_sql import count_sql
from repro.reference import RefGraph, ref_count, ref_fsm

from .conftest import ref_of


class TestMotifCounting:
    def test_3motifs_vs_reference(self, small):
        got = count_motifs(small.edges, 3)
        rg = ref_of(small.graph)
        assert got["triangle"] == ref_count(rg, clique(3), induced=True)
        assert got["wedge"] == ref_count(rg, star(3), induced=True)

    def test_4motifs_vs_reference(self, small):
        got = count_motifs(small.edges, 4)
        rg = ref_of(small.graph)
        assert len(got) == 6
        for p in generate_all_vertex_induced(4):
            assert got[motif_name(p)] == ref_count(rg, p, induced=True)

    def test_3motif_sum_is_connected_triples(self, small):
        """Every connected 3-set is exactly one motif: wedge+triangle =
        #connected 3-sets (cross-checked via the DFS enumerator)."""
        from repro.baseline.dfs import dfs_count_motifs

        got = count_motifs(small.edges, 3)
        m = dfs_count_motifs(small, 3)
        assert sum(got.values()) == sum(m.result.values())

    def test_motifs_without_symmetry_breaking_match(self, fig6):
        assert count_motifs(fig6.edges, 3) == count_motifs(
            fig6.edges, 3, symmetry_breaking=False
        )

    def test_3motifs_oracle(self, small):
        got = count_motifs(small.edges, 3)
        cnt_df = small.edges.sparkSession.createDataFrame(
            [(int(got["triangle"]),)], "cnt long"
        )
        assert_equivalent(
            cnt_df, count_sql(clique(3), induced=True), edges=small.graph.edges_pdf
        )


class TestCliqueCounting:
    @pytest.mark.parametrize("k", [3, 4, 5])
    def test_vs_reference(self, k, small):
        assert count_cliques(small.edges, k) == ref_count(ref_of(small.graph), clique(k))

    def test_vs_networkx(self, small):
        import networkx as nx
        g = nx.Graph(small.graph.edge_tuples())
        want = sum(1 for c in nx.enumerate_all_cliques(g) if len(c) == 4)
        assert count_cliques(small.edges, 4) == want

    def test_clique_edge_equals_vertex_induced(self, small):
        assert count_cliques(small.edges, 4) == count_matches(
            small.edges, clique(4), induced=True
        )


class TestExistence:
    def test_existing_pattern_found(self, small):
        assert exists_pattern(small.edges, clique(3))

    def test_absent_pattern_not_found(self, fig6):
        assert not exists_pattern(fig6.edges, clique(4))

    @pytest.mark.parametrize("k", [6, 10, 14])
    def test_large_clique_existence_terminates(self, k, fig6):
        from repro.core.mining import exists_clique
        assert not exists_clique(fig6.edges, k)

    def test_existence_matches_count(self, small):
        for k in (3, 4, 5, 6):
            assert exists_pattern(small.edges, clique(k)) == (
                count_cliques(small.edges, k) > 0
            )

    def test_staged_existence_agrees_with_counts(self, small):
        from repro.core.mining import exists_clique
        for k in (3, 5, 7):
            assert exists_clique(small.edges, k) == (count_cliques(small.edges, k) > 0)


class TestClusteringCoefficient:
    def test_cc_value(self, small):
        rg = ref_of(small.graph)
        want = 3.0 * ref_count(rg, clique(3)) / ref_count(rg, star(3))
        assert global_clustering_coefficient(small.edges) == pytest.approx(want)

    def test_cc_exceeds(self, small):
        cc = global_clustering_coefficient(small.edges)
        assert cc_exceeds(small.edges, cc / 2)
        assert not cc_exceeds(small.edges, cc * 2)

    def test_cc_empty_wedges(self, sparks):
        import pandas as pd

        edges = sparks.createDataFrame(
            pd.DataFrame({"src": [0, 1], "dst": [1, 0]})
        )
        assert global_clustering_coefficient(edges) == 0.0


class TestFSM:
    @pytest.mark.parametrize("tau", [10, 5])
    def test_vs_bruteforce(self, tau, small_lab):
        got = fsm(small_lab.edges, small_lab.labels, threshold=tau)
        want = ref_fsm(RefGraph(small_lab.graph.edge_tuples(), small_lab.graph.label_dict()), tau)
        assert got.by_key() == want

    def test_every_frequent_meets_threshold(self, small_lab):
        got = fsm(small_lab.edges, small_lab.labels, threshold=8)
        assert all(s >= 8 for s in got.frequent.values())
        assert all(2 <= len(p.edges) <= 3 for p in got.frequent)

    def test_threshold_monotonicity(self, small_lab):
        """Higher threshold -> subset of frequent patterns."""
        lo = fsm(small_lab.edges, small_lab.labels, threshold=6).by_key()
        hi = fsm(small_lab.edges, small_lab.labels, threshold=12).by_key()
        assert set(hi) <= set(lo)
        for k, s in hi.items():
            assert lo[k] == s

    def test_huge_threshold_empty(self, small_lab):
        got = fsm(small_lab.edges, small_lab.labels, threshold=10**6)
        assert got.frequent == {}

    def test_max_edges_2_only_wedges(self, small_lab):
        got = fsm(small_lab.edges, small_lab.labels, threshold=8, max_edges=2)
        assert all(len(p.edges) == 2 for p in got.frequent)

    def test_prgu_fsm_identical(self, small_lab):
        """Figure 10: disabling symmetry breaking changes work, not
        results — also for FSM supports."""
        a = fsm(small_lab.edges, small_lab.labels, threshold=8).by_key()
        b = fsm(small_lab.edges, small_lab.labels, threshold=8, symmetry_breaking=False).by_key()
        assert a == b

    def test_supports_take_one_search_and_one_action(self, small_lab, monkeypatch):
        """Canonical labelings come from the structure's automorphisms
        inside the Spark aggregation: one canonical search per structure,
        no per-labeling isomorphism map and a single Spark action — and
        the patterns so built are already canonical."""
        from pyspark.sql.classic.dataframe import DataFrame

        from repro.core import mining
        calls = collections.Counter()

        def counted(name, fn):
            def wrapper(*args, **kwargs):
                calls[name] += 1
                return fn(*args, **kwargs)

            return wrapper

        monkeypatch.setattr(Pattern, "canonical", counted("canonical", Pattern.canonical))
        monkeypatch.setattr(mining, "_iso_map", counted("_iso_map", mining._iso_map))
        for action in ("collect", "count", "take", "toPandas"):
            monkeypatch.setattr(
                DataFrame, action, counted("action", getattr(DataFrame, action))
            )
        assert mining._discover_supports(small_lab.edges, small_lab.labels, chain(4))
        assert calls["canonical"] <= 1
        assert calls["_iso_map"] == 0
        assert calls["action"] == 1
        got = fsm(small_lab.edges, small_lab.labels, threshold=8, max_edges=3)
        assert got.frequent
        assert all(p == p.canonical() for p in got.frequent)

    @pytest.mark.parametrize(
        "bad", [{"labels": None}, {"max_edges": 1}], ids=["no-labels", "max-edges-1"]
    )
    def test_bad_input_raises(self, bad, small_lab):
        kwargs = {"labels": small_lab.labels, "threshold": 8, **bad}
        with pytest.raises(ValueError):
            fsm(small_lab.edges, **kwargs)
