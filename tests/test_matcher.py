"""End-to-end tests for the DataFrame matching engine.

Every count is triple-checked: Spark engine == pure-Python reference,
and Spark result == DuckDB via ``assert_equivalent`` over SQL generated
from the same pattern (the mandated oracle path).
"""
import re

import pytest
from pyspark.sql import functions as F

from repro.core.matcher import count_matches, match_df
from repro.core.mining import _discover_supports
from repro.core.pattern import Pattern, chain, clique, star
from repro.core.plan import vertex_induced_rewrite
from repro.oracle import assert_equivalent
from repro.oracle_sql import count_sql, matches_sql, mni_support_sql
from repro.patterns_eval import EVAL_PATTERNS
from repro.reference import ref_count, ref_matches, ref_mni_support

from .conftest import (
    CONSTRAINED_PATTERNS,
    LABELED_PATTERNS,
    PLAIN_PATTERNS,
    ref_of,
)


def _check_count(g, pattern):
    """One engine count on the loaded graph ``g``, verified against
    reference and DuckDB."""
    got = count_matches(g.edges, pattern, labels=g.labels)
    assert got == ref_count(ref_of(g.graph), pattern), "engine != reference"
    cnt_df = match_df(g.edges, pattern, labels=g.labels).agg(
        F.count("*").alias("cnt")
    )
    assert_equivalent(cnt_df, count_sql(pattern), edges=g.graph.edges_pdf)
    return got


class TestPlainPatterns:
    @pytest.mark.parametrize("name", sorted(PLAIN_PATTERNS))
    def test_edge_induced_small(self, name, small):
        _check_count(small, PLAIN_PATTERNS[name])

    @pytest.mark.parametrize(
        "name", ["edge", "wedge", "triangle", "path4", "cycle4", "diamond", "clique4"]
    )
    def test_vertex_induced_small(self, name, small):
        _check_count(small, vertex_induced_rewrite(PLAIN_PATTERNS[name]))

    @pytest.mark.parametrize("name", ["triangle", "diamond", "clique4", "house"])
    def test_edge_induced_fig6(self, name, fig6):
        _check_count(fig6, PLAIN_PATTERNS[name])


class TestConstrainedPatterns:
    @pytest.mark.parametrize("name", sorted(CONSTRAINED_PATTERNS))
    def test_constrained_small(self, name, small):
        _check_count(small, CONSTRAINED_PATTERNS[name])

    @pytest.mark.parametrize("name", ["pc", "pd", "pe", "p7"])
    def test_constrained_fig6(self, name, fig6):
        _check_count(fig6, CONSTRAINED_PATTERNS[name])

    def test_p8_equals_induced_diamond(self, small):
        """§6.5: p8 is the vertex-induced chordal square."""
        assert count_matches(small.edges, EVAL_PATTERNS["p8"]) == count_matches(
            small.edges, vertex_induced_rewrite(EVAL_PATTERNS["p1"])
        )

    def test_anti_vertex_requires_outside_witness_absence(self, small):
        """p7 count = triangles minus triangles contained in a 4-clique
        (every triangle in a 4-clique has the 4th vertex as witness)."""
        triangles = count_matches(small.edges, clique(3))
        maximal = count_matches(small.edges, EVAL_PATTERNS["p7"])
        assert 0 <= maximal <= triangles


class TestLabeledPatterns:
    @pytest.mark.parametrize("name", sorted(LABELED_PATTERNS))
    def test_labeled_counts(self, name, small_lab):
        p = LABELED_PATTERNS[name]
        got = count_matches(small_lab.edges, p, labels=small_lab.labels)
        assert got == ref_count(ref_of(small_lab.graph), p)
        cnt_df = match_df(small_lab.edges, p, labels=small_lab.labels).agg(
            F.count("*").alias("cnt")
        )
        assert_equivalent(
            cnt_df, count_sql(p),
            edges=small_lab.graph.edges_pdf, labels=small_lab.graph.labels_pdf,
        )

    def test_unlabeled_pattern_ignores_label_table(self, small_lab):
        assert count_matches(small_lab.edges, clique(3), labels=small_lab.labels) == count_matches(
            small_lab.edges, clique(3)
        )

    def test_labeled_pattern_without_table_raises(self, small):
        with pytest.raises(ValueError):
            count_matches(small.edges, clique(3).with_labels([1, 2, 3]))


class TestSymmetryBreaking:
    @pytest.mark.parametrize(
        "name", ["wedge", "triangle", "star4", "cycle4", "diamond", "clique4"]
    )
    def test_prgu_counts_equal(self, name, small):
        """PRG-U (no symmetry breaking) must produce identical counts —
        Figure 10's correctness precondition."""
        p = PLAIN_PATTERNS[name]
        assert count_matches(small.edges, p, symmetry_breaking=False) == count_matches(
            small.edges, p
        )

    @pytest.mark.parametrize("name", ["wedge", "triangle", "clique4"])
    def test_prgu_raw_rows_are_aut_multiples(self, name, small):
        p = PLAIN_PATTERNS[name]
        raw = match_df(small.edges, p, symmetry_breaking=False).count()
        n = count_matches(small.edges, p)
        assert raw == n * len(p.automorphisms())

    def test_no_duplicate_matches(self, small):
        df = match_df(small.edges, clique(3))
        assert df.count() == df.distinct().count()


class TestEnumeration:
    @pytest.mark.parametrize("name", ["triangle", "wedge", "diamond", "pe"])
    def test_rows_equal_reference(self, name, fig6):
        p = {**PLAIN_PATTERNS, **CONSTRAINED_PATTERNS}[name]
        rows = match_df(fig6.edges, p).collect()
        got = sorted(tuple(int(x) for x in r) for r in rows)
        assert got == sorted(ref_matches(ref_of(fig6.graph), p))

    @pytest.mark.parametrize("name", ["triangle", "diamond"])
    def test_rows_equal_sql(self, name, small):
        """Full row-level equivalence against DuckDB (same symmetry
        breaking on both sides)."""
        p = PLAIN_PATTERNS[name]
        assert_equivalent(match_df(small.edges, p), matches_sql(p), edges=small.graph.edges_pdf)


class TestEvalPatterns:
    @pytest.mark.parametrize("name", ["p1", "p3", "p4", "p5", "p6", "p7", "p8"])
    def test_unlabeled_eval_patterns(self, name, small):
        _check_count(small, EVAL_PATTERNS[name])

    def test_p2_labeled(self, small_lab):
        p = EVAL_PATTERNS["p2"]
        got = count_matches(small_lab.edges, p, labels=small_lab.labels)
        assert got == ref_count(ref_of(small_lab.graph), p)


class TestMNISupport:
    @pytest.mark.parametrize("name", ["edge", "wedge", "triangle", "star4", "path4"])
    def test_support_vs_reference_and_sql(self, name, small_lab):
        """FSM's MNI aggregation finds every labeling of the structure that
        occurs, each with the reference's and DuckDB's support. star4's
        labelings with repeated leaf labels keep nontrivial
        automorphisms, so their symmetric leaves must share a domain."""
        import duckdb
        shape = PLAIN_PATTERNS[name]
        got = _discover_supports(small_lab.edges, small_lab.labels, shape)
        rg = ref_of(small_lab.graph)
        assert set(got) == {
            shape.with_labels([rg.labels[v] for v in m]).canonical()
            for m in ref_matches(rg, shape)
        }
        con = duckdb.connect()
        try:
            con.register("edges", small_lab.graph.edges_pdf)
            con.register("labels", small_lab.graph.labels_pdf)
            for q, support in got.items():
                assert support == ref_mni_support(rg, q), q
                assert support == con.execute(mni_support_sql(q)).fetchone()[0], q
        finally:
            con.close()


class TestPlanIntegration:
    def test_match_columns_named_by_vertex(self, small):
        df = match_df(small.edges, chain(4))
        assert df.columns == ["v0", "v1", "v2", "v3"]

    def test_anti_vertex_columns_excluded(self, small):
        df = match_df(small.edges, EVAL_PATTERNS["p7"])
        assert df.columns == ["v0", "v1", "v2"]


class TestCompiledPlan:
    def test_clique5_plan_joins_only_for_adjacency_arrays(self, small):
        """Candidates are intersections of bound vertices' adjacency
        arrays, so the optimized plan joins ``adj`` once per vertex whose
        array a later step reads (3 for the 5-clique), not once per
        pattern edge (10)."""
        df = match_df(small.edges, clique(5))
        plan = df._jdf.queryExecution().optimizedPlan().toString()
        assert len(re.findall(r"\bJoin\b", plan)) <= 4
