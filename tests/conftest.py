"""Shared fixtures for the test suite.

``spark`` comes from the root conftest (one session-scoped local
session). Here we add tiny graphs, loaded as ``SparkGraph``s, and a
pattern zoo used across matcher/baseline/oracle tests, plus a
session-wide shuffle-partition reduction — the data is tiny and the
session's 32-partition shuffles would be pure scheduler overhead.
"""
from __future__ import annotations

import pytest

from repro.core.pattern import Pattern, chain, clique, star
from repro.graph.gengraph import Graph, from_edge_list, powerlaw_graph, with_labels
from repro.harness import SparkGraph
from repro.patterns_eval import P1, P2, P3, P4, P6, P7, P8
from repro.reference import RefGraph


@pytest.fixture(scope="session")
def sparks(spark):
    """Session spark with shuffle partitions tuned for tiny inputs."""
    spark.conf.set("spark.sql.shuffle.partitions", "16")
    return spark


# -- data graphs ----------------------------------------------------------
#: A data graph consistent with the paper's §4.3 worked example for
#: Figure 6 (vertices v1..v6 renamed 0..5): {v1,v4,v6} = {0,3,5} form a
#: triangle; pairs (v4,v6) and (v1,v6) have no common neighbor outside
#: the triangle, while (v1,v4) share v2 (=1). (Figure 6 itself is an
#: image not present in the text source.)
FIG6_EDGES = [(0, 1), (0, 3), (0, 5), (1, 2), (1, 3), (2, 4), (3, 5), (4, 5)]


@pytest.fixture(scope="session")
def fig6_graph() -> Graph:
    return from_edge_list(FIG6_EDGES, name="fig6")


@pytest.fixture(scope="session")
def small_unlabeled() -> Graph:
    return powerlaw_graph(80, 220, seed=5, name="small")


@pytest.fixture(scope="session")
def small_labeled() -> Graph:
    return with_labels(powerlaw_graph(70, 180, seed=6, name="small-lab"), 3, seed=6)


#: Tiny graphs that stand in for every dataset when the whole paper-table
#: catalog runs (tests/test_catalog.py): they hold 4- and 5-cliques and
#: labeled p2 triangles, yet the pattern-oblivious baselines enumerate
#: every connected 5-set of them in seconds.
@pytest.fixture(scope="session")
def tiny_unlabeled() -> Graph:
    return powerlaw_graph(30, 80, seed=1, name="tiny")


@pytest.fixture(scope="session")
def tiny_labeled() -> Graph:
    return with_labels(powerlaw_graph(30, 80, seed=2, name="tiny-lab"), 3, seed=2)


@pytest.fixture(scope="session")
def fig6(sparks, fig6_graph) -> SparkGraph:
    return SparkGraph.load(sparks, fig6_graph)


@pytest.fixture(scope="session")
def small(sparks, small_unlabeled) -> SparkGraph:
    return SparkGraph.load(sparks, small_unlabeled)


@pytest.fixture(scope="session")
def small_lab(sparks, small_labeled) -> SparkGraph:
    return SparkGraph.load(sparks, small_labeled)


def ref_of(g: Graph) -> RefGraph:
    return RefGraph(g.edge_tuples(), g.label_dict() or None)


# -- pattern zoo ----------------------------------------------------------
#: Unconstrained patterns: matched both edge- and vertex-induced.
PLAIN_PATTERNS = {
    "edge": chain(2),
    "wedge": star(3),
    "triangle": clique(3),
    "path4": chain(4),
    "star4": star(4),
    "cycle4": Pattern.of(4, [(0, 1), (1, 2), (2, 3), (0, 3)]),
    "tailed_triangle": P4,
    "diamond": P1,
    "clique4": clique(4),
    "house": P3,
    "chain5": chain(5),
    "near_clique5": P6,
}

#: Figure 3-style constrained patterns (anti-edges / anti-vertices).
CONSTRAINED_PATTERNS = {
    # p_a: unrelated pair with two mutual friends (square + anti-edge)
    "pa": Pattern.of(4, [(0, 1), (1, 2), (2, 3), (0, 3)]).add_anti_edge(1, 3),
    # p_b: square with both diagonals anti
    "pb": Pattern.of(4, [(0, 1), (1, 2), (2, 3), (0, 3)])
    .add_anti_edge(0, 2)
    .add_anti_edge(1, 3),
    # p_c: wedge whose endpoints share no other common neighbor
    "pc": Pattern.of(3, [(0, 1), (1, 2)]).add_anti_vertex([0, 2]),
    # p_d: chain whose center has no neighbors beyond its match
    "pd": Pattern.of(3, [(0, 1), (1, 2)]).add_anti_vertex([1]),
    # p_e: triangle where one pair has no outside mutual friend
    "pe": clique(3).add_anti_vertex([0, 2]),
    "p7": P7,
    "p8": P8,
}

LABELED_PATTERNS = {
    "p2": P2,
    "labeled_wedge": star(3).with_labels([1, 2, None]),
    "labeled_edge": chain(2).with_labels([1, 1]),
}
