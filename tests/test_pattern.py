"""Unit tests for the first-class Pattern construct (§3.1, Figure 2)."""
import itertools

import pytest

from repro.core.pattern import (
    Pattern,
    chain,
    clique,
    connected,
    extend_by_edge,
    generate_all_edge_induced,
    generate_all_vertex_induced,
    star,
)


class TestConstruction:
    def test_of_normalizes_edges(self):
        p = Pattern.of(3, [(1, 0), (2, 1)])
        assert p.edges == frozenset({(0, 1), (1, 2)})

    def test_self_loop_rejected(self):
        with pytest.raises(ValueError):
            Pattern.of(2, [(0, 0)])

    def test_out_of_range_rejected(self):
        with pytest.raises(ValueError):
            Pattern.of(2, [(0, 5)])

    def test_disconnected_rejected(self):
        with pytest.raises(ValueError):
            Pattern.of(4, [(0, 1), (2, 3)])

    def test_edge_and_anti_edge_conflict(self):
        with pytest.raises(ValueError):
            Pattern.of(2, [(0, 1)], anti_edges=[(0, 1)])

    def test_anti_vertex_must_have_anti_edge(self):
        with pytest.raises(ValueError):
            Pattern.of(3, [(0, 1)], anti_vertices=[2])

    def test_anti_vertex_cannot_have_regular_edge(self):
        with pytest.raises(ValueError):
            Pattern.of(3, [(0, 1), (1, 2)], anti_edges=[(0, 2)], anti_vertices=[2])

    def test_anti_edge_between_two_anti_vertices_rejected(self):
        with pytest.raises(ValueError):
            Pattern.of(
                4, [(0, 1)], anti_edges=[(0, 2), (1, 3), (2, 3)],
                anti_vertices=[2, 3],
            )

    def test_labels_length_checked(self):
        with pytest.raises(ValueError):
            Pattern.of(2, [(0, 1)], labels=[1])

    def test_anti_vertex_connectivity_counts(self):
        # 2 regular vertices joined only through an anti-vertex: invalid
        with pytest.raises(ValueError):
            Pattern.of(3, [], anti_edges=[(0, 2), (1, 2)], anti_vertices=[2])


class TestAccessors:
    def test_neighbors(self):
        p = clique(4)
        assert p.get_neighbors(0) == (1, 2, 3)

    def test_anti_neighbors(self):
        p = clique(3).add_anti_vertex([0, 2])
        assert p.get_anti_neighbors(3) == (0, 2)
        assert p.get_anti_neighbors(1) == ()

    def test_are_connected(self):
        p = chain(3)
        assert p.are_connected(0, 1) and not p.are_connected(0, 2)

    def test_labels(self):
        p = clique(3).with_labels([1, 2, 3])
        assert p.labels[2] == 3

    def test_regular_vertices_excludes_anti(self):
        p = clique(3).add_anti_vertex([0, 1])
        assert p.regular_vertices == (0, 1, 2)
        assert 3 in p.anti_vertices


class TestMutators:
    def test_add_edge_functional(self):
        p = chain(3)
        q = p.add_edge(0, 2)
        assert q.are_connected(0, 2) and not p.are_connected(0, 2)

    def test_add_edge_extends_vertex_set(self):
        q = chain(2).add_edge(1, 2)
        assert q.n == 3 and q.canonical() == chain(3).canonical()

    def test_remove_edge(self):
        assert clique(3).remove_edge(0, 2).canonical() == chain(3).canonical()

    def test_with_labels(self):
        assert clique(3).with_labels([None, 7, None]).labels == (None, 7, None)

    def test_add_anti_edge(self):
        q = Pattern.of(4, [(0, 1), (1, 2), (2, 3), (0, 3)]).add_anti_edge(0, 2)
        assert q.are_anti_adjacent(0, 2)

    def test_add_anti_vertex(self):
        q = clique(3).add_anti_vertex([0, 1, 2])
        assert q.anti_vertices == frozenset({3})
        assert q.get_anti_neighbors(3) == (0, 1, 2)


class TestGenerators:
    @pytest.mark.parametrize("k,expect", [(3, 2), (4, 6), (5, 21)])
    def test_vertex_induced_counts(self, k, expect):
        """Known counts of connected unlabeled graphs on k vertices."""
        assert len(generate_all_vertex_induced(k)) == expect

    @pytest.mark.parametrize("k,expect", [(2, 1), (3, 3), (4, 5)])
    def test_edge_induced_counts(self, k, expect):
        """Connected graphs with exactly k edges, no isolated vertices:
        2 edges -> wedge; 3 edges -> triangle, 3-path, 3-star; 4 edges ->
        square, tailed triangle, 4-path, 4-star, chevron(spider)."""
        assert len(generate_all_edge_induced(k)) == expect

    def test_edge_induced_2_is_wedge(self):
        (w,) = generate_all_edge_induced(2)
        assert w.canonical() == star(3).canonical()

    @pytest.mark.parametrize("k", [2, 3, 4, 5])
    def test_clique_edges(self, k):
        assert len(clique(k).edges) == k * (k - 1) // 2

    @pytest.mark.parametrize("k", [2, 3, 4, 5])
    def test_star_structure(self, k):
        p = star(k)
        assert len(p.edges) == k - 1
        assert p.get_neighbors(0) == tuple(range(1, k))

    @pytest.mark.parametrize("k", [2, 3, 4, 5])
    def test_chain_structure(self, k):
        p = chain(k)
        assert len(p.edges) == k - 1
        assert len(p.automorphisms()) == 2  # identity + reversal

    def test_star3_equals_chain3(self):
        assert star(3).canonical() == chain(3).canonical()

    def test_generators_validate(self):
        with pytest.raises(ValueError):
            star(1)
        with pytest.raises(ValueError):
            chain(1)


class TestCombinators:
    def test_extend_wedge_by_edge(self):
        """Fig. 4a step: wedge + 1 edge = {triangle, 3-path, 3-star}."""
        exts = extend_by_edge([star(3)])
        assert len(exts) == 3
        keys = {p.canonical_key() for p in exts}
        assert clique(3).canonical_key() in keys
        assert chain(4).canonical_key() in keys
        assert star(4).canonical_key() in keys

    def test_extend_by_edge_preserves_labels(self):
        exts = extend_by_edge([clique(3).with_labels([1, 2, 3])])
        for p in exts:
            labs = [l for l in p.labels if l is not None]
            assert sorted(labs) == [1, 2, 3]

    def test_extend_dedupes_across_inputs(self):
        exts = extend_by_edge([chain(4), star(4)])
        keys = [p.canonical_key() for p in exts]
        assert len(keys) == len(set(keys))


class TestConnected:
    def test_path_connects_its_vertices(self):
        assert connected(range(3), [(0, 1), (1, 2)])
        assert not connected(range(4), [(0, 1), (2, 3)])

    def test_edges_leaving_the_vertex_set_are_ignored(self):
        # 0 and 2 meet only through 1, which is not in the set
        assert not connected((0, 2), [(0, 1), (1, 2)])
        assert connected((0, 1), [(0, 1), (1, 2)])

    def test_no_vertex_or_one_is_connected(self):
        assert connected((), [])
        assert connected((5,), [])


class TestCanonical:
    @pytest.mark.parametrize("p", [chain(4), star(4), clique(4), clique(3)])
    def test_canonical_is_fixed_point(self, p):
        c = p.canonical()
        assert c.canonical_key() == p.canonical_key()
        assert c.canonical().canonical_key() == c.canonical_key()

    def test_relabelled_patterns_share_key(self):
        a = Pattern.of(4, [(0, 1), (1, 2), (2, 3)])
        b = Pattern.of(4, [(2, 0), (0, 3), (3, 1)])  # same path relabeled
        assert a.canonical_key() == b.canonical_key()

    def test_labels_distinguish(self):
        a = clique(3).with_labels([1, 1, 2])
        b = clique(3).with_labels([1, 2, 2])
        assert a.canonical_key() != b.canonical_key()

    def test_label_permutation_shares_key(self):
        a = clique(3).with_labels([1, 2, 3])
        b = clique(3).with_labels([3, 1, 2])
        assert a.canonical_key() == b.canonical_key()

    def test_anti_edges_distinguish_from_edges(self):
        square = Pattern.of(4, [(0, 1), (1, 2), (2, 3), (0, 3)])
        diamond = square.add_edge(0, 2)
        constrained = square.add_anti_edge(0, 2)
        assert diamond.canonical_key() != constrained.canonical_key()
        assert square.canonical_key() != constrained.canonical_key()

    def test_anti_vertex_distinguishes(self):
        assert (
            clique(3).add_anti_vertex([0, 1, 2]).canonical_key()
            != clique(3).canonical_key()
        )


class TestAutomorphisms:
    @pytest.mark.parametrize(
        "p,expect",
        [
            (clique(3), 6),
            (clique(4), 24),
            (star(4), 6),
            (chain(4), 2),
            (star(3), 2),
            (Pattern.of(4, [(0, 1), (1, 2), (2, 3), (0, 3)]), 8),  # square
        ],
    )
    def test_known_group_sizes(self, p, expect):
        assert len(p.automorphisms()) == expect

    def test_labels_break_symmetry(self):
        assert len(clique(3).with_labels([1, 2, 3]).automorphisms()) == 1
        assert len(clique(3).with_labels([1, 1, 2]).automorphisms()) == 2

    def test_anti_vertex_breaks_symmetry(self):
        """§4.3: p_e's triangle is not fully symmetric once the
        anti-vertex is attached to two of its corners."""
        pe = clique(3).add_anti_vertex([0, 2])
        autos = pe.automorphisms()
        assert len(autos) == 2  # only identity and the 0<->2 swap
        assert all(a[1] == 1 for a in autos)

    def test_automorphisms_form_group(self):
        autos = {a for a in star(4).automorphisms()}
        for a in autos:
            for b in autos:
                comp = tuple(a[b[i]] for i in range(len(a)))
                assert comp in autos


class TestIsomorphismVsNetworkx:
    """Cross-check canonical keys against networkx's VF2."""

    @pytest.mark.parametrize("seed", range(8))
    def test_random_pairs(self, seed):
        import random

        import networkx as nx

        rnd = random.Random(seed)
        n = rnd.randint(3, 6)
        attempt = 0
        while True:
            g = nx.gnp_random_graph(n, 0.6, seed=seed * 1000 + attempt)
            attempt += 1
            if nx.is_connected(g) and g.number_of_edges() > 0:
                break
        p = Pattern.of(n, list(g.edges()))
        perm = list(range(n))
        rnd.shuffle(perm)
        h = nx.relabel_nodes(g, dict(enumerate(perm)))
        q = Pattern.of(n, list(h.edges()))
        assert p.canonical_key() == q.canonical_key()
        assert nx.is_isomorphic(g, h)

    @pytest.mark.parametrize("k", [3, 4])
    def test_nonisomorphic_all_distinct(self, k):
        import networkx as nx

        pats = generate_all_vertex_induced(k)
        for a, b in itertools.combinations(pats, 2):
            ga = nx.Graph(list(a.edges))
            gb = nx.Graph(list(b.edges))
            assert not nx.is_isomorphic(ga, gb)
