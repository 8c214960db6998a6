"""Tests for the pattern-oblivious baselines: results must equal the
pattern-aware engine's; work counters must show the paper's blow-up
structure (Figure 1b/1c); budgets must behave like resource limits."""
import pytest

from repro.baseline.bfs import (
    bfs_count_cliques,
    bfs_count_motifs,
    bfs_enumerate,
    bfs_fsm,
)
from repro.baseline.common import (
    BudgetExceeded,
    adjacency_dict,
    count_pattern_in_set,
    encode_induced,
    encode_labeled_edge_embedding,
    is_canonical_embedding,
    is_clique,
)
from repro.baseline.dfs import (
    dfs_count_cliques,
    dfs_count_motifs,
    dfs_fsm,
    dfs_match_pattern,
)
from repro.baseline.purpose import (
    gminer_match_labeled_triangle,
    gminer_triangle_count,
)
from repro.core.matcher import count_matches, match_df
from repro.core.mining import count_cliques, count_motifs, fsm, motif_name
from repro.core.pattern import Pattern, chain, clique, star
from repro.graph.gengraph import from_edge_list, powerlaw_graph
from repro.harness import SparkGraph
from repro.patterns_eval import P1, P2, P5

from .conftest import FIG6_EDGES, ref_of


class TestCommon:
    def test_adjacency_dict(self, fig6_graph):
        adj = adjacency_dict(fig6_graph.edges_pdf)
        assert adj[0] == frozenset({1, 3, 5})

    def test_canonical_embedding_smallest_order(self, fig6_graph):
        adj = adjacency_dict(fig6_graph.edges_pdf)
        assert is_canonical_embedding((0, 1, 2), adj)
        assert not is_canonical_embedding((1, 0, 2), adj)  # (0,1,2) is smaller

    def test_canonical_unique_per_set(self, fig6_graph):
        import itertools

        adj = adjacency_dict(fig6_graph.edges_pdf)
        for vs in [(0, 1, 3), (0, 3, 5), (1, 2, 4)]:
            cands = [
                p
                for p in itertools.permutations(vs)
                if all(
                    any(p[i] in adj[p[j]] for j in range(i)) for i in range(1, len(p))
                )
            ]
            assert sum(1 for p in cands if is_canonical_embedding(p, adj)) == 1

    def test_encode_induced_distinguishes(self, fig6_graph):
        adj = adjacency_dict(fig6_graph.edges_pdf)
        assert encode_induced((0, 3, 5), adj) != encode_induced((0, 1, 5), adj)

    def test_encode_labeled_orbit_structure(self):
        code, mapped, orbits = encode_labeled_edge_embedding(
            frozenset({(7, 9), (9, 11)}), {7: 1, 9: 2, 11: 1}
        )
        assert set(mapped) == {7, 9, 11}
        assert len(orbits) == 3
        # endpoints share a label -> same orbit; center alone
        assert len(set(orbits)) == 2

    def test_is_clique(self, fig6_graph):
        adj = adjacency_dict(fig6_graph.edges_pdf)
        assert is_clique((0, 3, 5), adj)
        assert not is_clique((0, 1, 3, 5), adj)

    def test_count_pattern_in_set(self, fig6_graph):
        adj = adjacency_dict(fig6_graph.edges_pdf)
        assert count_pattern_in_set((0, 3, 5), adj, clique(3)) == 1
        assert count_pattern_in_set((0, 3, 5), adj, star(3)) == 3
        assert count_pattern_in_set((0, 1, 2), adj, clique(3)) == 0


def _operators(plan):
    """The operators of an executed plan, through adaptive-execution and
    query-stage wrappers but not into the plans that cached relations
    were built from."""
    yield plan
    kind = plan.getClass().getSimpleName()
    if kind == "AdaptiveSparkPlanExec":
        kids = [plan.executedPlan()]
    elif kind.endswith("QueryStageExec"):
        kids = [plan.plan()]
    else:
        seq = plan.children()
        kids = [seq.apply(i) for i in range(seq.size())]
    for k in kids:
        yield from _operators(k)


class TestLoadedGraph:
    def test_matching_reads_cached_adjacency_without_shuffle(self, sparks):
        """On a loaded graph ``match_df`` reads ``adj`` from the cache
        built at load and broadcasts it into every join: the executed
        plan scans only that in-memory relation and has no shuffle
        exchange and no sort-merge join. ``unload`` drops the cached
        ``adj``. (A graph of its own: loads of equal data share one cache
        entry, so unloading a fixture's twin would uncache the fixture.)"""
        g = SparkGraph.load(sparks, powerlaw_graph(80, 220, seed=15, name="own"))
        want = count_matches(g.edges, clique(4))
        df = match_df(g.edges, clique(4))
        assert want > 0 and len(df.collect()) == want
        ops = list(_operators(df._jdf.queryExecution().executedPlan()))
        kinds = [op.getClass().getSimpleName() for op in ops]
        scans = [op for op, k in zip(ops, kinds) if k.endswith("ScanExec")]
        assert len(scans) == 3  # adj as v0's rows, then v1's and v2's arrays
        for s in scans:
            assert s.getClass().getSimpleName() == "InMemoryTableScanExec"
            assert "collect_list" in s.relation().cacheBuilder().cachedPlan().toString()
        assert "ShuffleExchangeExec" not in kinds
        assert "SortMergeJoinExec" not in kinds
        assert kinds.count("BroadcastHashJoinExec") == 2
        assert g.adj.storageLevel.useMemory
        g.unload()
        assert not g.adj.storageLevel.useMemory
        assert len(match_df(g.edges, clique(4)).collect()) == want

    def test_adjacency_broadcast_once_per_load(self, sparks, monkeypatch):
        """Two baseline runs on one loaded graph share its one adjacency
        broadcast, and unloading the graph destroys it. (Figure 6 with its
        vertex ids shifted: a graph of its own, as above.)"""
        from pyspark import SparkContext

        made = []
        broadcast = SparkContext.broadcast

        def counted(sc, value):
            made.append(broadcast(sc, value))
            return made[-1]

        monkeypatch.setattr(SparkContext, "broadcast", counted)
        g = SparkGraph.load(sparks, from_edge_list([(a + 6, b + 6) for a, b in FIG6_EDGES]))
        assert bfs_count_cliques(g, 3).result == dfs_count_cliques(g, 3).result == 2
        assert len(made) == 1
        assert made[0]._jbroadcast.isValid()
        g.unload()
        assert not made[0]._jbroadcast.isValid()


class TestBfsBaseline:
    @pytest.mark.parametrize("mode", ["abq", "rs"])
    def test_clique_counts_match_engine(self, mode, small):
        m = bfs_count_cliques(small, 4, mode=mode)
        assert m.result == count_cliques(small.edges, 4)

    @pytest.mark.parametrize("mode", ["abq", "rs"])
    def test_motif_counts_match_engine(self, mode, small):
        m = bfs_count_motifs(small, 3, mode=mode)
        prg = count_motifs(small.edges, 3)
        got = {}
        from repro.core.pattern import generate_all_vertex_induced

        for p in generate_all_vertex_induced(3):
            got[motif_name(p)] = m.result.get(str(p.canonical_key()), 0)
        assert got == prg

    def test_blowup_structure(self, small):
        """Figure 1b shape: pattern-oblivious exploration touches far
        more embeddings than there are results, and checks every one."""
        m = bfs_count_cliques(small, 4, mode="abq")
        assert m.explored > 5 * m.result
        assert m.canonicality > 0 and m.isomorphism == m.result

    def test_rs_explores_more_than_abq(self, small):
        """Figure 1c shape: no mid-stream canonical pruning (RStream)
        explores far more than level-pruned BFS (Arabesque)."""
        abq = bfs_count_motifs(small, 3, mode="abq")
        rs = bfs_count_motifs(small, 3, mode="rs")
        assert rs.explored > abq.explored
        assert rs.result == abq.result

    def test_budget_exceeded(self, small):
        with pytest.raises(BudgetExceeded):
            bfs_count_motifs(small, 4, budget=100)

    def test_fsm_matches_engine(self, small_lab):
        tau = 8
        m = bfs_fsm(small_lab, tau)
        prg = {str(k): v for k, v in fsm(small_lab.edges, small_lab.labels, tau).by_key().items()}
        assert m.result == prg

    def test_fsm_charges_work(self, small_lab):
        m = bfs_fsm(small_lab, threshold=8)
        assert m.explored > 0 and m.isomorphism > 0


class TestDfsBaseline:
    def test_clique_counts_match_engine(self, small):
        m = dfs_count_cliques(small, 4)
        assert m.result == count_cliques(small.edges, 4)

    def test_motif_counts_match_engine(self, small):
        m = dfs_count_motifs(small, 4)
        prg = count_motifs(small.edges, 4)
        from repro.core.pattern import generate_all_vertex_induced

        got = {
            motif_name(p): m.result.get(str(p.canonical_key()), 0)
            for p in generate_all_vertex_induced(4)
        }
        assert got == prg

    @pytest.mark.parametrize("pat", [P1, P5, clique(3), star(4)])
    def test_match_pattern(self, pat, small):
        m = dfs_match_pattern(small, pat)
        assert m.result == count_matches(small.edges, pat)

    def test_match_labeled_pattern(self, small_lab):
        m = dfs_match_pattern(small_lab, P2)
        assert m.result == count_matches(small_lab.edges, P2, labels=small_lab.labels)

    def test_explored_exceeds_results_for_cliques(self, small):
        """Figure 1b: Fractal explores ~188x the 4-clique count."""
        m = dfs_count_cliques(small, 4)
        assert m.explored > 3 * max(m.result, 1)

    def test_budget_exceeded(self, small):
        with pytest.raises(BudgetExceeded):
            dfs_count_motifs(small, 4, budget=50)

    def test_fsm_matches_engine(self, small_lab):
        tau = 8
        m = dfs_fsm(small_lab, tau)
        prg = {str(k): v for k, v in fsm(small_lab.edges, small_lab.labels, tau).by_key().items()}
        assert m.result == prg


class TestGMinerBaseline:
    def test_triangles_match_engine(self, small):
        m = gminer_triangle_count(small)
        assert m.result == count_cliques(small.edges, 3)

    def test_triangles_fig6(self, fig6):
        assert gminer_triangle_count(fig6).result == 2

    def test_labeled_p2_matches_engine(self, small_lab):
        m = gminer_match_labeled_triangle(small_lab, P2)
        assert m.result == count_matches(small_lab.edges, P2, labels=small_lab.labels)

    def test_rejects_non_triangle(self, small_lab):
        with pytest.raises(ValueError):
            gminer_match_labeled_triangle(small_lab, star(4).with_labels([1, 2, 3, 1]))
