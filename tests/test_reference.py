"""Tests for the pure-Python reference matcher — including the paper's
worked examples (Figure 3 semantics, Figure 6 data graph) and
cross-checks against networkx subgraph isomorphism counts."""
import pytest

from repro.core.pattern import Pattern, chain, clique, star
from repro.core.plan import vertex_induced_rewrite
from repro.reference import RefGraph, ref_count, ref_matches, ref_mni_support

from .conftest import FIG6_EDGES


@pytest.fixture(scope="module")
def fig6():
    return RefGraph(FIG6_EDGES)


class TestBasics:
    def test_single_edge(self, fig6):
        assert ref_count(fig6, chain(2)) == 8

    def test_triangle_count(self, fig6):
        import networkx as nx

        g = nx.Graph(FIG6_EDGES)
        assert ref_count(fig6, clique(3)) == sum(nx.triangles(g).values()) // 3

    def test_no_symmetry_breaking_multiplies_by_aut(self, fig6):
        for p in (clique(3), star(3), chain(4), clique(4)):
            a = ref_count(fig6, p, symmetry_breaking=True)
            b = ref_count(fig6, p, symmetry_breaking=False)
            assert b == a * len(p.automorphisms())

    def test_matches_are_unique(self, fig6):
        ms = ref_matches(fig6, clique(3))
        assert len(ms) == len(set(ms))

    def test_induced_le_noninduced(self, fig6):
        for p in (star(3), chain(4), Pattern.of(4, [(0, 1), (1, 2), (2, 3), (0, 3)])):
            assert ref_count(fig6, vertex_induced_rewrite(p)) <= ref_count(fig6, p)


class TestAntiEdgeSemantics:
    def test_anti_edge_excludes_adjacent(self, fig6):
        """A wedge whose endpoints must NOT be adjacent = wedges minus
        triangles' wedge slots."""
        open_wedge = star(3).add_anti_edge(1, 2)
        wedges = ref_count(fig6, star(3))
        triangles = ref_count(fig6, clique(3))
        # each triangle contains 3 wedges whose endpoints are adjacent
        assert ref_count(fig6, open_wedge) == wedges - 3 * triangles

    def test_anti_edge_match_endpoints_not_adjacent(self, fig6):
        p = star(3).add_anti_edge(1, 2)
        for m in ref_matches(fig6, p):
            v0, v1, v2 = m
            assert not fig6.has_edge(v1, v2)


class TestAntiVertexSemantics:
    def test_pe_example_from_paper(self, fig6):
        """§4.3's worked example (vertices renamed): the triangle
        {v0,v3,v5} of Figure 6 — pairs (v3,v5) and (v0,v5) have no
        common neighbor outside the triangle, but (v0,v3) do (v1).
        p_e (anti-vertex adjacent to u0,u2) must match the triangle
        with the 'no outside mutual friend' pair at (u0,u2)."""
        pe = clique(3).add_anti_vertex([0, 2])
        ms = [m for m in ref_matches(fig6, pe) if set(m) == {0, 3, 5}]
        # orders: u0<u2 broken; valid placements = the two pairs with no
        # outside common neighbor: (3,5) and (0,5)
        pairs = {(m[0], m[2]) for m in ms}
        assert pairs == {(3, 5), (0, 5)}

    def test_maximal_triangle(self):
        """p7 on a graph with one 4-clique: its 4 triangles are not
        maximal; a hanging triangle is."""
        g = RefGraph(
            [(0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3), (3, 4), (3, 5), (4, 5)]
        )
        p7 = clique(3).add_anti_vertex([0, 1, 2])
        assert ref_count(g, clique(3)) == 5
        assert ref_count(g, p7) == 1  # only {3,4,5}

    def test_pd_isolated_center(self):
        """p_d: the wedge center has no neighbors beyond its match."""
        g = RefGraph([(0, 1), (1, 2), (1, 3), (4, 0), (4, 2)])
        pd = Pattern.of(3, [(0, 1), (1, 2)]).add_anti_vertex([1])
        # the wedge center must have degree exactly 2 (no neighbors
        # beyond its match): vertices 0, 2, 4 qualify; vertex 1 (degree
        # 3) does not
        centers = {m[1] for m in ref_matches(g, pd)}
        assert centers == {0, 2, 4}


class TestMNISupport:
    def test_single_edge_support(self):
        g = RefGraph([(0, 1), (0, 2), (0, 3)])
        # edge pattern: every vertex can map to either endpoint
        assert ref_mni_support(g, chain(2)) == 4
        # wedge: center domain {0}, endpoint domain {1,2,3} -> support 1
        assert ref_mni_support(g, star(3)) == 1

    def test_labels_restrict_support(self):
        g = RefGraph([(0, 1), (1, 2), (2, 3)], labels={0: 1, 1: 2, 2: 1, 3: 2})
        p = chain(2).with_labels([1, 2])
        # matches: (0,1), (2,1), (2,3) -> dom(u0)={0,2}, dom(u1)={1,3}
        assert ref_mni_support(g, p) == 2


class TestVsNetworkx:
    @pytest.mark.parametrize("seed", range(6))
    @pytest.mark.parametrize(
        "pname,pat",
        [
            ("triangle", clique(3)),
            ("wedge", star(3)),
            ("path4", chain(4)),
            ("clique4", clique(4)),
        ],
    )
    def test_counts_match_vf2(self, seed, pname, pat):
        import networkx as nx

        g = nx.gnp_random_graph(12, 0.35, seed=seed)
        rg = RefGraph(list(g.edges()) or [(0, 1)])
        gm = nx.algorithms.isomorphism.GraphMatcher(g, nx.Graph(list(pat.edges)))
        n_monos = sum(1 for _ in gm.subgraph_monomorphisms_iter())
        assert ref_count(rg, pat) * len(pat.automorphisms()) == n_monos
