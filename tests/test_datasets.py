"""Tests for the graph substrate and Table 2 stand-in datasets."""
import hashlib

import numpy as np
import pandas as pd
import pytest

from repro.graph.datasets import all_datasets, dataset, dataset_stats
from repro.graph.gengraph import from_edge_list, powerlaw_graph, with_labels
from repro.harness import SparkGraph

PINNED_DIGESTS = {
    "MI": "545ce37d50d7f8e3572df42a6a31ca0d736a50c5ec42e47c5ebb0aa55f1ac4c0",
    "PA": "acde9fc6349c88f20c3d08dd40fa8db16ebd59a9adb89bc9a85e9d182c070238",
    "PA-labeled": "bddb7142dd4541bcc8cb4f97dc41ad5766fa5059de4b113568259c662aa882fe",
    "OK": "80ab46b8e20ace35d4224180dfb919acb25c00a4cb5bea7ae2bda4093f12e7bb",
    "FR": "d49a914ccfd15c976aabbe29f6ac2d63123bd7417b8e3e3994d95b0b140db6ac",
}


class TestPowerlawGenerator:
    def test_deterministic(self):
        a = powerlaw_graph(200, 600, seed=1).edges_pdf
        b = powerlaw_graph(200, 600, seed=1).edges_pdf
        pd.testing.assert_frame_equal(a, b)

    def test_seed_changes_graph(self):
        a = powerlaw_graph(200, 600, seed=1).edges_pdf
        b = powerlaw_graph(200, 600, seed=2).edges_pdf
        assert not a.equals(b)

    def test_symmetric_no_self_loops(self):
        g = powerlaw_graph(200, 600, seed=3)
        e = g.edges_pdf
        assert (e.src != e.dst).all()
        rev = set(zip(e.dst, e.src))
        assert set(zip(e.src, e.dst)) == rev

    def test_no_duplicate_edges(self):
        e = powerlaw_graph(200, 600, seed=4).edges_pdf
        assert not e.duplicated().any()

    def test_edge_count_near_target(self):
        g = powerlaw_graph(300, 900, seed=5)
        assert 0.7 * 900 <= g.n_edges <= 900

    def test_degree_ordering(self):
        """§5.2: vertex ids are assigned in ascending degree order, so
        the symmetry-breaking '<' predicates prune along degree."""
        g = powerlaw_graph(300, 900, seed=6)
        deg = g.degrees().sort_index()
        assert (np.diff(deg.to_numpy()) >= 0).all()

    def test_heavy_tail(self):
        g = powerlaw_graph(1000, 5000, seed=7)
        deg = g.degrees()
        assert deg.max() > 5 * deg.mean()


class TestLabels:
    def test_with_labels_covers_all_vertices(self):
        g = with_labels(powerlaw_graph(200, 600, seed=8), 5, seed=8)
        vs = set(g.edges_pdf.src) | set(g.edges_pdf.dst)
        assert set(g.labels_pdf.v) == vs
        assert g.n_labels <= 5

    def test_labels_deterministic(self):
        a = with_labels(powerlaw_graph(100, 300, seed=9), 4, seed=9).labels_pdf
        b = with_labels(powerlaw_graph(100, 300, seed=9), 4, seed=9).labels_pdf
        pd.testing.assert_frame_equal(a, b)


class TestFromEdgeList:
    def test_dedupes_and_symmetrizes(self):
        g = from_edge_list([(0, 1), (1, 0), (1, 2), (2, 2)])
        assert g.n_edges == 2
        assert len(g.edges_pdf) == 4

    def test_labels_kept(self):
        g = from_edge_list([(0, 1)], labels={0: 1, 1: 2})
        assert g.label_dict() == {0: 1, 1: 2}

    @pytest.mark.parametrize("edges", [[], [(2, 2)]], ids=["empty", "loop_only"])
    def test_no_edge_gives_empty_table(self, edges):
        g = from_edge_list(edges)
        assert g.n_edges == 0
        assert list(g.edges_pdf.columns) == ["src", "dst"]
        assert (g.edges_pdf.dtypes == np.int64).all()


class TestDatasets:
    def test_all_present(self):
        ds = all_datasets()
        assert set(ds) == {"MI", "PA", "PA-labeled", "OK", "FR"}

    def test_relative_structure_matches_table2(self):
        """The lite graphs preserve Table 2's relative shape: FR largest,
        MI smallest and labeled, OK densest."""
        mi, pa, ok, fr = (dataset(n) for n in ("MI", "PA", "OK", "FR"))
        assert fr.n_vertices > pa.n_vertices > mi.n_vertices
        assert mi.n_labels is not None and pa.n_labels is None
        avg = lambda g: 2 * g.n_edges / g.n_vertices
        assert avg(ok) > avg(mi) and avg(ok) > avg(fr)

    def test_labeled_patents_smaller(self):
        assert dataset("PA-labeled").n_vertices < dataset("PA").n_vertices
        assert dataset("PA-labeled").n_labels == 10

    def test_stats_table_shape(self):
        stats = dataset_stats()
        assert all(list(r) == ["G", "V", "E", "L", "max_deg", "avg_deg"] for r in stats)
        assert len(stats) == 5

    def test_stats_consistency(self):
        stats = {r["G"]: r for r in dataset_stats()}
        mi = dataset("MI")
        assert stats["MI"]["V"] == mi.n_vertices
        assert stats["MI"]["E"] == mi.n_edges
        deg = mi.degrees()
        assert stats["MI"]["max_deg"] == deg.max()

    @pytest.mark.parametrize("name", sorted(PINNED_DIGESTS))
    def test_graph_data_pinned(self, name):
        """Each lite dataset is the same graph that ``results/*.json`` and
        the benchmark's cached oracle answers were computed on: a sha256
        of its sorted edge rows, then of its label rows by vertex."""
        g = all_datasets()[name]
        e = g.edges_pdf[["src", "dst"]].to_numpy(dtype=np.int64)
        h = hashlib.sha256(e[np.lexsort((e[:, 1], e[:, 0]))].tobytes())
        if g.labels_pdf is not None:
            lab = g.labels_pdf[["v", "label"]].to_numpy(dtype=np.int64)
            h.update(lab[np.argsort(lab[:, 0], kind="stable")].tobytes())
        assert h.hexdigest() == PINNED_DIGESTS[name]

    def test_caching(self):
        assert dataset("MI") is dataset("MI")

    def test_spark_roundtrip(self, sparks):
        g = dataset("MI")
        sg = SparkGraph.load(sparks, g)
        try:
            assert sg.edges.count() == len(g.edges_pdf)
            assert sg.labels.count() == len(g.labels_pdf)
        finally:
            sg.unload()
