"""Unit tests for exploration-plan generation (§4.1–4.3, Figure 5)."""
import itertools

import pytest

from repro.core.pattern import Pattern, chain, clique, star
from repro.core.plan import (
    _core_order,
    break_symmetries,
    generate_plan,
    min_connected_vertex_cover,
    vertex_induced_rewrite,
)

from .conftest import CONSTRAINED_PATTERNS, PLAIN_PATTERNS

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
        assert _core_order(plan.core, plan.partial_orders) == (1, 2)
        assert plan.vertex_order[:2] == (1, 2)

    def test_orders_respect_partial_order(self):
        for name, p in ALL_PATTERNS.items():
            plan = generate_plan(p)
            po = [
                (a, b)
                for a, b in plan.partial_orders
                if a in plan.core and b in plan.core
            ]
            seq = _core_order(plan.core, plan.partial_orders)
            pos = {v: i for i, v in enumerate(seq)}
            for a, b in po:
                assert pos[a] < pos[b], (name, seq, (a, b))

    def test_core_order_is_first_consistent_permutation(self):
        """The core order is the first permutation of the core, in
        ``itertools.permutations`` order, that the partial order allows."""
        for (name, p), induced in itertools.product(ALL_PATTERNS.items(), (False, True)):
            plan = generate_plan(p, induced=induced)
            first = next(
                seq for seq in itertools.permutations(plan.core)
                if all(
                    seq.index(a) < seq.index(b)
                    for a, b in plan.partial_orders
                    if a in seq and b in seq
                )
            )
            assert _core_order(plan.core, plan.partial_orders) == first, (name, induced)


class TestPlan:
    @pytest.mark.parametrize("name", sorted(ALL_PATTERNS))
    def test_vertex_order_prefix_connected(self, name):
        p = ALL_PATTERNS[name]
        plan = generate_plan(p)
        order = plan.vertex_order
        assert set(order) == set(plan.pattern.regular_vertices)
        bound = set()
        for i, v in enumerate(order):
            if i:
                assert set(plan.pattern.get_neighbors(v)) & bound
            bound.add(v)

    @pytest.mark.parametrize("name", sorted(PLAIN_PATTERNS))
    def test_induced_plan_adds_anti_edges(self, name):
        p = PLAIN_PATTERNS[name]
        plan = generate_plan(p, induced=True)
        n_missing = sum(
            1
            for a, b in itertools.combinations(p.regular_vertices, 2)
            if not p.are_connected(a, b)
        )
        assert len(plan.pattern.anti_edges) == len(p.anti_edges) + n_missing

    def test_plan_counts_automorphisms(self):
        assert generate_plan(clique(4)).num_automorphisms == 24

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
        from repro.reference import RefGraph, ref_count

        from .conftest import FIG6_EDGES

        p = PLAIN_PATTERNS[name]
        p_prime = vertex_induced_rewrite(p)
        g = RefGraph(FIG6_EDGES)
        assert ref_count(g, p, induced=True) == ref_count(g, p_prime, induced=False)

    def test_rewrite_is_noop_for_cliques(self):
        assert vertex_induced_rewrite(clique(4)).anti_edges == frozenset()
