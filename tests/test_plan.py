"""Unit tests for exploration-plan generation (§4.1–4.3, Figure 5)."""
import hashlib
import itertools

import networkx as nx
import pytest

from repro.core.pattern import Pattern, chain, clique, generate_all_vertex_induced, star
from repro.core.plan import (
    break_symmetries,
    generate_plan,
    min_connected_vertex_cover,
    vertex_induced_rewrite,
)
from repro.patterns_eval import EVAL_PATTERNS

from .conftest import CONSTRAINED_PATTERNS, LABELED_PATTERNS, PLAIN_PATTERNS

ALL_PATTERNS = {**PLAIN_PATTERNS, **CONSTRAINED_PATTERNS}


class TestSymmetryBreaking:
    @pytest.mark.parametrize("name", sorted(ALL_PATTERNS))
    def test_exactly_one_automorphic_image_survives(self, name):
        """The defining property (§4.1): of all automorphic images of a
        match, exactly one satisfies the partial ordering. Checked on
        the pattern's self-match: #{σ in Aut(p) : σ(u) < σ(v) for all
        (u,v) in po} must be 1 (the canonical representative)."""
        p = ALL_PATTERNS[name]
        po = break_symmetries(p)
        ok = [
            a for a in p.automorphisms()
            if all(a[u] < a[v] for u, v in po)
        ]
        assert len(ok) == 1

    @pytest.mark.parametrize("name", sorted(ALL_PATTERNS))
    def test_orders_are_acyclic(self, name):
        po = break_symmetries(ALL_PATTERNS[name])
        # topological order must exist
        import graphlib

        ts = graphlib.TopologicalSorter()
        for a, b in po:
            ts.add(b, a)
        list(ts.static_order())  # raises on cycle

    def test_triangle_total_order(self):
        assert break_symmetries(clique(3)) == ((0, 1), (0, 2), (1, 2))

    def test_diamond_matches_paper_example(self):
        """Figure 6's worked example: the chordal square gets
        u0<u3 (endpoints) and u1<u2 (the chord)."""
        d = Pattern.of(4, [(0, 1), (0, 2), (1, 2), (1, 3), (2, 3)])
        assert set(break_symmetries(d)) == {(0, 3), (1, 2)}

    def test_chain_breaks_reversal(self):
        assert break_symmetries(chain(4)) == ((0, 3),)

    def test_asymmetric_pattern_needs_no_orders(self):
        p = Pattern.of(4, [(0, 1), (0, 2), (1, 2), (2, 3)])  # tailed triangle
        assert break_symmetries(p) == ((0, 1),)

    def test_labels_reduce_orders(self):
        assert break_symmetries(clique(3).with_labels([1, 2, 3])) == ()

    def test_anti_vertex_affects_orders(self):
        """§4.3: p_e's anti-vertex makes u1 asymmetric with u0/u2, so
        only the 0<->2 symmetry is broken."""
        pe = clique(3).add_anti_vertex([0, 2])
        assert break_symmetries(pe) == ((0, 2),)


class TestVertexCover:
    @pytest.mark.parametrize("name", sorted(ALL_PATTERNS))
    def test_cover_covers_and_connected(self, name):
        p = ALL_PATTERNS[name]
        cover = min_connected_vertex_cover(p)
        cset = set(cover)
        for a, b in p.edges:
            assert a in cset or b in cset
        for a, b in p.anti_edges:
            if a not in p.anti_vertices and b not in p.anti_vertices:
                assert a in cset or b in cset
        assert not cset & p.anti_vertices
        # connectivity over regular edges
        if len(cover) > 1:
            adj = {v: set(p.get_neighbors(v)) & cset for v in cover}
            seen = {cover[0]}
            stack = [cover[0]]
            while stack:
                for w in adj[stack.pop()]:
                    if w not in seen:
                        seen.add(w)
                        stack.append(w)
            assert seen == cset

    @pytest.mark.parametrize(
        "p,size",
        [
            (chain(2), 1),
            (star(4), 1),
            (clique(3), 2),
            (clique(4), 3),
            (chain(4), 2),
            (Pattern.of(4, [(0, 1), (0, 2), (1, 2), (1, 3), (2, 3)]), 2),
        ],
    )
    def test_known_cover_sizes(self, p, size):
        assert len(min_connected_vertex_cover(p)) == size

    def test_diamond_core_is_chord(self):
        """Paper §4.1: the diamond's core is the chord {u1, u2}."""
        d = Pattern.of(4, [(0, 1), (0, 2), (1, 2), (1, 3), (2, 3)])
        assert min_connected_vertex_cover(d) == (1, 2)

    def test_anti_vertex_excluded_from_core(self):
        """§4.3: anti-vertices do not impact the core."""
        p7 = clique(3).add_anti_vertex([0, 1, 2])
        assert min_connected_vertex_cover(p7) == min_connected_vertex_cover(clique(3))

    def test_anti_edge_is_covered(self):
        """§4.2: one endpoint of a regular-regular anti-edge joins the
        cover so its adjacency list is available for the difference."""
        pa = Pattern.of(4, [(0, 1), (1, 2), (2, 3), (0, 3)]).add_anti_edge(1, 3)
        cover = set(min_connected_vertex_cover(pa))
        assert 1 in cover or 3 in cover


class TestMatchingOrders:
    def test_diamond_has_single_order(self):
        """Paper §4.1: the diamond core has exactly one matching order,
        and the engine binds the core in it."""
        d = Pattern.of(4, [(0, 1), (0, 2), (1, 2), (1, 3), (2, 3)])
        plan = generate_plan(d)
        assert plan.vertex_order[:2] == (1, 2)

    def test_orders_respect_partial_order(self):
        """Every condition ``(a, b)`` has ``a < b`` and the core is
        ascending, so the core in id order respects the partial order
        (and is the first permutation of the core that does)."""
        for (name, p), rewrite in itertools.product(ALL_PATTERNS.items(), (False, True)):
            q = vertex_induced_rewrite(p) if rewrite else p
            plan = generate_plan(q)
            assert all(a < b for a, b in plan.partial_orders), (name, rewrite)
            assert plan.core == tuple(sorted(plan.core)), (name, rewrite)

    def test_core_order_is_first_consistent_permutation(self):
        """The core in id order is the first permutation of the core, in
        ``itertools.permutations`` order, that the partial order allows."""
        for (name, p), rewrite in itertools.product(ALL_PATTERNS.items(), (False, True)):
            q = vertex_induced_rewrite(p) if rewrite else p
            plan = generate_plan(q)
            first = next(
                seq for seq in itertools.permutations(plan.core)
                if all(
                    seq.index(a) < seq.index(b)
                    for a, b in plan.partial_orders
                    if a in seq and b in seq
                )
            )
            assert plan.core == first, (name, rewrite)


class TestPlan:
    @pytest.mark.parametrize("name", sorted(ALL_PATTERNS))
    def test_vertex_order_prefix_connected(self, name):
        p = ALL_PATTERNS[name]
        plan = generate_plan(p)
        order = plan.vertex_order
        assert set(order) == set(p.regular_vertices)
        bound = set()
        for i, v in enumerate(order):
            if i:
                assert set(p.get_neighbors(v)) & bound
            bound.add(v)

    @pytest.mark.parametrize("name", sorted(PLAIN_PATTERNS))
    def test_induced_plan_adds_anti_edges(self, name):
        p = PLAIN_PATTERNS[name]
        n_missing = sum(
            1
            for a, b in itertools.combinations(p.regular_vertices, 2)
            if not p.are_connected(a, b)
        )
        q = vertex_induced_rewrite(p)
        assert len(q.anti_edges) == len(p.anti_edges) + n_missing

    def test_core_first_in_vertex_order(self):
        for p in PLAIN_PATTERNS.values():
            plan = generate_plan(p)
            k = len(plan.core)
            assert set(plan.vertex_order[:k]) == set(plan.core)


class TestTheorem31:
    """Theorem 3.1: vertex-induced matches of p == edge-induced matches
    of p' (p plus anti-edges on non-adjacent pairs)."""

    @pytest.mark.parametrize("name", ["wedge", "path4", "cycle4", "diamond"])
    def test_rewrite_on_reference(self, name):
        """The reference's count of p' times |Aut(p)| equals networkx's
        count of induced subgraph isomorphisms onto p, which shares no
        code with the rewrite."""
        from repro.reference import RefGraph, ref_count

        from .conftest import FIG6_EDGES

        p = PLAIN_PATTERNS[name]
        gm = nx.algorithms.isomorphism.GraphMatcher(
            nx.Graph(FIG6_EDGES), nx.Graph(list(p.edges))
        )
        n_induced = sum(1 for _ in gm.subgraph_isomorphisms_iter())
        got = ref_count(RefGraph(FIG6_EDGES), vertex_induced_rewrite(p))
        assert got * len(p.automorphisms()) == n_induced

    def test_rewrite_is_noop_for_cliques(self):
        assert vertex_induced_rewrite(clique(4)).anti_edges == frozenset()


#: sha256 of ``(name, partial_orders, core, vertex_order)`` for every
#: pinned pattern, plain and Theorem 3.1-rewritten. The plans decide the
#: Spark jobs every query runs: a change here must be deliberate.
PLAN_DIGEST = "abceafa7190e4ddf09f5f0d5ddd8345b602d4cc9f7d7c6ce7bb16eaf136970bb"


def test_plans_are_pinned():
    """The test zoo, p1–p8 and the 3- and 4-vertex motifs keep their
    plans."""
    pinned = {**PLAIN_PATTERNS, **CONSTRAINED_PATTERNS, **LABELED_PATTERNS, **EVAL_PATTERNS}
    pinned |= {
        f"motif{k}-{i}": p
        for k in (3, 4)
        for i, p in enumerate(generate_all_vertex_induced(k))
    }
    rows = []
    for name, p in sorted(pinned.items()):
        for q in (p, vertex_induced_rewrite(p)):
            plan = generate_plan(q)
            rows.append((name, plan.partial_orders, plan.core, plan.vertex_order))
    assert hashlib.sha256(repr(rows).encode()).hexdigest() == PLAN_DIGEST
