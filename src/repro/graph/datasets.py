"""Table 2 stand-in datasets (laptop-scale substitutes, see DESIGN.md).

``DATASETS`` names each lite graph once, by its Table 2 column ``G``,
with the ``powerlaw_graph`` arguments and label count that build it
(``with_labels`` reuses the graph's seed). Relative structure mirrors
Table 2:

* ``MI``         — small, dense, labeled (Mico: 100K v / 1.1M e / 29 labels)
* ``PA``         — larger, sparse, unlabeled (Patents: 3.7M v / 16M e);
  ``PA-labeled`` is the smaller labeled variant (2.7M / 13M / 37 'year'
  labels)
* ``OK``         — dense social graph (Orkut: 3M v / 117M e)
* ``FR``         — largest and sparse (Friendster: 65M v / 1.8B e)

``dataset(name)`` builds a graph once per process; ``dataset_stats``
reproduces the Table 2 columns for the lite graphs.
"""
from __future__ import annotations

from functools import lru_cache
from typing import Optional

from .gengraph import Graph, powerlaw_graph, with_labels

#: name → (vertices, edges, alpha, seed, labels or None)
DATASETS: dict[str, tuple[int, int, float, int, Optional[int]]] = {
    "MI": (800, 3000, 0.5, 11, 8),
    "PA": (3000, 8000, 0.45, 22, None),
    "PA-labeled": (2500, 6500, 0.45, 23, 10),
    "OK": (2000, 12000, 0.5, 33, None),
    "FR": (9000, 18000, 0.45, 44, None),
}


@lru_cache(maxsize=None)
def dataset(name: str) -> Graph:
    n, m, alpha, seed, labels = DATASETS[name]
    g = powerlaw_graph(n, m, alpha=alpha, seed=seed, name=name)
    return g if labels is None else with_labels(g, labels, seed=seed)


def all_datasets() -> dict[str, Graph]:
    return {name: dataset(name) for name in DATASETS}


def dataset_stats() -> list[dict]:
    """Table 2 columns for the lite graphs, one JSON-ready record per
    graph: |V|, |E| (undirected), |L| (None for unlabeled), max degree,
    average degree."""
    rows = []
    for name, g in all_datasets().items():
        deg = g.degrees()
        rows.append(dict(G=name, V=g.n_vertices, E=g.n_edges, L=g.n_labels,
                         max_deg=int(deg.max()), avg_deg=round(float(deg.mean()), 1)))
    return rows
