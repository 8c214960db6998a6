"""Data-graph substrate: deterministic synthetic graphs + graph algebra.

The paper's data graphs (Mico, Patents, Orkut, Friendster; Table 2) are
0.1M–65M-vertex downloads we cannot use offline, so the lite datasets
are generated here with a Chung-Lu-style power-law sampler that keeps
the structural knobs the evaluation depends on: heavy-tailed degrees,
controllable density, optional vertex labels.

Graphs are built as pandas frames on the driver (lite graphs are ≤ tens
of thousands of edges); ``harness.SparkGraph.load`` hands them to Spark
as the symmetric edge table ``edges(src, dst)`` the matching engine
consumes. §5.2's degree-based vertex ordering is applied at
construction: vertex ids are reassigned in ascending-degree order, so
the engine's ``<`` symmetry-breaking predicates double as the paper's
degree-ordered pruning.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np
import pandas as pd


@dataclass
class Graph:
    """A data graph: symmetric pandas edge list + optional labels.

    ``edges_pdf`` holds BOTH directions of every undirected edge;
    ``labels_pdf`` is ``(v, label)`` or None for unlabeled graphs.
    """

    name: str
    edges_pdf: pd.DataFrame
    labels_pdf: Optional[pd.DataFrame] = None

    @property
    def n_vertices(self) -> int:
        return int(pd.concat([self.edges_pdf.src, self.edges_pdf.dst]).nunique())

    @property
    def n_edges(self) -> int:
        """Undirected edge count."""
        return len(self.edges_pdf) // 2

    @property
    def n_labels(self) -> Optional[int]:
        return None if self.labels_pdf is None else int(self.labels_pdf.label.nunique())

    def degrees(self) -> pd.Series:
        return self.edges_pdf.groupby("src").size()

    def edge_tuples(self) -> list[tuple[int, int]]:
        """One direction only, for the pure-Python reference."""
        half = self.edges_pdf[self.edges_pdf.src < self.edges_pdf.dst]
        return list(zip(half.src.astype(int), half.dst.astype(int)))

    def label_dict(self) -> dict[int, int]:
        if self.labels_pdf is None:
            return {}
        return dict(
            zip(self.labels_pdf.v.astype(int), self.labels_pdf.label.astype(int))
        )


def _degree_order(edges: np.ndarray) -> np.ndarray:
    """Relabel vertex ids so id order == ascending degree order (§5.2),
    ties broken by old id for determinism. Returns relabeled edges."""
    vs, counts = np.unique(edges.ravel(), return_counts=True)
    order = np.lexsort((vs, counts))  # ascending degree, then old id
    remap = np.empty(vs.max() + 1, dtype=np.int64)
    remap[vs[order]] = np.arange(len(vs))
    return remap[edges]


def _symmetric(e: np.ndarray) -> pd.DataFrame:
    """The symmetric edge table ``edges(src, dst)``, sorted, of distinct
    undirected edges ``e``: both directions of every row."""
    sym = np.concatenate([e, e[:, ::-1]])
    return (
        pd.DataFrame({"src": sym[:, 0], "dst": sym[:, 1]})
        .sort_values(["src", "dst"])
        .reset_index(drop=True)
    )


def powerlaw_graph(
    n: int,
    m: int,
    *,
    alpha: float = 0.9,
    seed: int = 0,
    name: str = "powerlaw",
) -> Graph:
    """Undirected simple power-law graph with ~``m`` edges on ≤ ``n``
    vertices (Chung-Lu endpoint sampling: endpoint probability ∝
    rank^-alpha). Deterministic in ``seed``."""
    g = np.random.default_rng(seed)
    w = 1.0 / np.arange(1, n + 1) ** alpha
    w /= w.sum()
    # oversample, then drop self-loops/duplicates down to ~m edges
    src = g.choice(n, size=int(m * 1.6), p=w)
    dst = g.choice(n, size=int(m * 1.6), p=w)
    keep = src != dst
    e = np.stack([src[keep], dst[keep]], axis=1)
    e.sort(axis=1)
    e = np.unique(e, axis=0)[:m]
    return Graph(name=name, edges_pdf=_symmetric(_degree_order(e)))


def with_labels(graph: Graph, n_labels: int, *, seed: int = 0) -> Graph:
    """Attach uniform synthetic labels 1..n_labels (the paper does the
    same to Orkut/Friendster for labeled p2 matching, §6.1)."""
    g = np.random.default_rng(seed)
    vs = np.unique(graph.edges_pdf[["src", "dst"]].to_numpy().ravel())
    labels = pd.DataFrame({"v": vs, "label": g.integers(1, n_labels + 1, len(vs))})
    return Graph(name=graph.name, edges_pdf=graph.edges_pdf, labels_pdf=labels)


def from_edge_list(
    edges: list[tuple[int, int]],
    labels: Optional[dict[int, int]] = None,
    name: str = "custom",
) -> Graph:
    """Build a Graph from explicit undirected edge tuples (tests)."""
    e = np.array(
        [(min(a, b), max(a, b)) for a, b in edges if a != b], dtype=np.int64
    ).reshape(-1, 2)
    pdf = _symmetric(np.unique(e, axis=0))
    lab = (
        None
        if labels is None
        else pd.DataFrame(
            {"v": list(labels.keys()), "label": list(labels.values())}
        ).sort_values("v").reset_index(drop=True)
    )
    return Graph(name=name, edges_pdf=pdf, labels_pdf=lab)
