"""Property-based tests (hypothesis): canonical-form invariance, plan
invariants, reference-vs-SQL consistency on random graphs, and the Spark
engine's rows against the reference on random labeled, constrained
patterns (few examples: each one runs Spark jobs)."""
import random

import duckdb
import pandas as pd
import pytest
from hypothesis import given, settings, strategies as st

from repro.core.matcher import count_matches, match_df
from repro.core.mining import _iso_map
from repro.core.pattern import Pattern, _norm_edge
from repro.core.plan import break_symmetries, generate_plan, min_connected_vertex_cover
from repro.graph.gengraph import from_edge_list
from repro.oracle_sql import count_sql
from repro.reference import RefGraph, ref_count, ref_matches


@st.composite
def connected_patterns(draw):
    """Random connected unlabeled pattern with 2..5 vertices."""
    n = draw(st.integers(2, 5))
    # random spanning tree + extra edges
    rnd = random.Random(draw(st.integers(0, 10**6)))
    edges = set()
    for v in range(1, n):
        edges.add(_norm_edge(v, rnd.randrange(v)))
    pairs = [(a, b) for a in range(n) for b in range(a + 1, n) if (a, b) not in edges]
    for e in pairs:
        if draw(st.booleans()):
            edges.add(e)
    return Pattern.of(n, edges)


@st.composite
def labeled_patterns(draw):
    """A random connected pattern with wildcard/int labels, one anti-edge
    when the pattern is not a clique, and sometimes an anti-vertex."""
    p = draw(connected_patterns())
    labels = draw(st.lists(st.sampled_from([None, 0, 1]), min_size=p.n, max_size=p.n))
    pairs = [
        (a, b) for a in range(p.n) for b in range(a + 1, p.n) if (a, b) not in p.edges
    ]
    anti = [draw(st.sampled_from(pairs))] if pairs else []
    q = Pattern.of(p.n, p.edges, anti, labels)
    if draw(st.booleans()):
        q = q.add_anti_vertex(sorted(draw(st.sets(st.integers(0, p.n - 1), min_size=1))))
    return q


@st.composite
def small_graphs(draw):
    """Random connected-ish data graph with <= 14 vertices."""
    n = draw(st.integers(4, 14))
    rnd = random.Random(draw(st.integers(0, 10**6)))
    edges = [(v, rnd.randrange(v)) for v in range(1, n)]
    extra = draw(st.integers(0, 2 * n))
    for _ in range(extra):
        a, b = rnd.randrange(n), rnd.randrange(n)
        if a != b:
            edges.append((min(a, b), max(a, b)))
    return sorted(set(_norm_edge(a, b) for a, b in edges))


class TestPatternProperties:
    @settings(max_examples=60, deadline=None)
    @given(labeled_patterns(), st.integers(0, 10**6))
    def test_canonical_key_invariant_under_relabeling(self, p, seed):
        rnd = random.Random(seed)
        perm = list(range(p.n))
        rnd.shuffle(perm)
        labels = [None] * p.n
        for v in range(p.n):
            labels[perm[v]] = p.labels[v]
        q = Pattern.of(
            p.n,
            {_norm_edge(perm[a], perm[b]) for a, b in p.edges},
            {_norm_edge(perm[a], perm[b]) for a, b in p.anti_edges},
            labels,
            {perm[v] for v in p.anti_vertices},
        )
        assert p.canonical_key() == q.canonical_key()
        assert p.canonical() == q.canonical()
        assert q._relabel(_iso_map(q, q.canonical())) == q.canonical()

    @settings(max_examples=60, deadline=None)
    @given(labeled_patterns())
    def test_automorphism_count_matches_networkx(self, p):
        """|Aut(p)| from VF2 self-isomorphisms that keep labels, keep
        anti-vertices apart from regular ones and edges apart from
        anti-edges — independent of ``_maps_onto``."""
        import networkx as nx
        from networkx.algorithms.isomorphism import GraphMatcher

        g = nx.Graph()
        g.add_nodes_from(
            (v, {"label": (p.labels[v], v in p.anti_vertices)}) for v in range(p.n)
        )
        g.add_edges_from(p.edges, kind="edge")
        g.add_edges_from(p.anti_edges, kind="anti")
        gm = GraphMatcher(
            g, g,
            node_match=lambda a, b: a["label"] == b["label"],
            edge_match=lambda a, b: a["kind"] == b["kind"],
        )
        assert len(p.automorphisms()) == sum(1 for _ in gm.isomorphisms_iter())

    @settings(max_examples=60, deadline=None)
    @given(connected_patterns())
    def test_automorphism_count_divides_factorial(self, p):
        import math

        assert math.factorial(p.n) % len(p.automorphisms()) == 0

    @settings(max_examples=60, deadline=None)
    @given(connected_patterns())
    def test_symmetry_breaking_leaves_identity(self, p):
        po = break_symmetries(p)
        survivors = [
            a for a in p.automorphisms() if all(a[u] < a[v] for u, v in po)
        ]
        assert survivors == [tuple(range(p.n))]

    @settings(max_examples=60, deadline=None)
    @given(connected_patterns())
    def test_cover_is_minimal_cover(self, p):
        import itertools

        cover = min_connected_vertex_cover(p)
        cset = set(cover)
        assert all(a in cset or b in cset for a, b in p.edges)
        # no *connected* cover of smaller size exists
        for smaller in itertools.combinations(range(p.n), len(cover) - 1):
            sset = set(smaller)
            if all(a in sset or b in sset for a, b in p.edges):
                adj = {v: set(p.get_neighbors(v)) & sset for v in smaller}
                seen = {smaller[0]} if smaller else set()
                stack = list(seen)
                while stack:
                    for w in adj[stack.pop()]:
                        if w not in seen:
                            seen.add(w)
                            stack.append(w)
                assert seen != sset or not smaller

    @settings(max_examples=40, deadline=None)
    @given(connected_patterns())
    def test_plan_vertex_order_covers_all(self, p):
        plan = generate_plan(p)
        assert sorted(plan.vertex_order) == list(p.regular_vertices)


class TestReferenceVsSqlProperties:
    @settings(max_examples=25, deadline=None)
    @given(connected_patterns(), small_graphs())
    def test_sql_equals_reference(self, p, edges):
        if not edges:
            return
        g = from_edge_list(edges)
        rg = RefGraph(g.edge_tuples())
        con = duckdb.connect()
        try:
            con.register("edges", g.edges_pdf)
            got = int(con.execute(count_sql(p)).fetchone()[0])
        finally:
            con.close()
        assert got == ref_count(rg, p)

    @settings(max_examples=20, deadline=None)
    @given(connected_patterns(), small_graphs())
    def test_symmetry_break_count_times_aut(self, p, edges):
        if not edges:
            return
        rg = RefGraph(edges)
        a = ref_count(rg, p, symmetry_breaking=True)
        b = ref_count(rg, p, symmetry_breaking=False)
        assert b == a * len(p.automorphisms())

    @settings(max_examples=20, deadline=None)
    @given(connected_patterns(), small_graphs())
    def test_induced_counts_via_theorem31(self, p, edges):
        from repro.core.plan import vertex_induced_rewrite

        if not edges:
            return
        rg = RefGraph(edges)
        assert ref_count(rg, p, induced=True) == ref_count(
            rg, vertex_induced_rewrite(p)
        )


class TestEngineProperties:
    @settings(max_examples=25, deadline=None)
    @given(
        p=labeled_patterns(),
        edges=small_graphs(),
        seed=st.integers(0, 10**6),
        induced=st.booleans(),
    )
    def test_rows_equal_reference(self, sparks, p, edges, seed, induced):
        """``match_df`` rows and ``count_matches`` equal the brute-force
        reference for patterns with labels, anti-edges and anti-vertices."""
        rnd = random.Random(seed)
        n = max(max(e) for e in edges) + 1
        g = from_edge_list(edges, labels={v: rnd.randrange(2) for v in range(n)})
        e, lab = g.to_spark(sparks), g.labels_to_spark(sparks)
        want = sorted(ref_matches(RefGraph(g.edge_tuples(), g.label_dict()), p, induced))
        rows = match_df(e, p, labels=lab, induced=induced).collect()
        assert sorted(tuple(r) for r in rows) == want
        assert count_matches(e, p, labels=lab, induced=induced) == len(want)
