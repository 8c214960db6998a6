"""Seeded workload definitions: graph shapes and query streams.

Graph shapes copy the size and skew parameters of the lite datasets in
``repro/graph/datasets.py`` (MI, OK, FR). ``scale`` divides the
vertex and edge counts, so the heavy workloads fit a run of a few tens
of seconds. Every graph is generated from the workload seed; the engine
only ever sees the generated edge and label tables.

This module imports nothing from Spark, so the oracle process can use it.
"""
from __future__ import annotations

import random
import zlib
from dataclasses import dataclass
from typing import Optional, Sequence

#: shape -> (vertices, undirected edges, power-law alpha, labels or None),
#: as in repro/graph/datasets.py.
SHAPES = {
    "MI": (800, 3000, 0.5, 8),
    "OK": (2000, 12000, 0.5, None),
    "FR": (9000, 18000, 0.45, None),
}


@dataclass(frozen=True)
class GraphSpec:
    shape: str
    scale: int = 1

    @property
    def key(self) -> str:
        return self.shape if self.scale == 1 else f"{self.shape}/{self.scale}"

    def generate(self, seed: int):
        """The data graph for ``seed`` (deterministic)."""
        from repro.graph.gengraph import powerlaw_graph, with_labels

        n, m, alpha, n_labels = SHAPES[self.shape]
        gseed = zlib.crc32(f"{seed}:{self.key}".encode())
        g = powerlaw_graph(
            n // self.scale, m // self.scale, alpha=alpha, seed=gseed, name=self.key
        )
        return g if n_labels is None else with_labels(g, n_labels, seed=gseed)


@dataclass(frozen=True)
class Query:
    """One user-level call into ``repro.core.mining``.

    ``kind`` selects the app; ``arg`` is its size, pattern name or
    bound. ``tau_rank`` parameterises FSM: the threshold is the support of
    the ``tau_rank``-th most frequent pattern, fixed per seed by the
    oracle so the answer size does not swing with the graph.
    """

    kind: str
    graph: str
    arg: object = None
    tau_rank: Optional[int] = None
    max_edges: int = 2

    @property
    def name(self) -> str:
        if self.kind == "fsm":
            return f"fsm(rank{self.tau_rank},e{self.max_edges})@{self.graph}"
        return f"{self.kind}({self.arg})@{self.graph}"


@dataclass(frozen=True)
class Workload:
    graphs: tuple[GraphSpec, ...]
    queries: tuple[Query, ...]  # one pass; catalog order for a stream
    shuffled: bool = False  # the seed orders the pass

    def stream(self, seed: int) -> list[Query]:
        """The queries of one pass, in the order they are sent."""
        out = list(self.queries)
        if self.shuffled:
            random.Random(f"stream:{seed}").shuffle(out)
        return out


def zipf_stream(catalog: Sequence[Query], top: int) -> tuple[Query, ...]:
    """``catalog`` ranked by popularity, the query of rank r repeated
    round(top / r) times (at least once): Zipf with exponent 1."""
    return tuple(q for r, q in enumerate(catalog, 1) for _ in range(max(1, round(top / r))))


OK1, MI4 = GraphSpec("OK"), GraphSpec("MI", 4)
MI, OK, FR = (GraphSpec(s, 2) for s in ("MI", "OK", "FR"))

WORKLOADS = {
    # Few heavy queries: shuffle joins over millions of rows in the
    # matcher, and FSM at two thresholds (match enumeration, label joins,
    # driver-side canonicalisation, count_distinct aggregation). The
    # census's count is dominated by wedges, whose number varies little
    # between seeds, unlike the house p3 (about 16% between quartiles).
    "census": Workload(
        graphs=(OK1, MI4),
        queries=(
            Query("motifs", OK1.key, 3),
            Query("cliques", OK1.key, 5),
            Query("fsm", MI4.key, tau_rank=10),
            Query("fsm", MI4.key, tau_rank=40),
        ),
    ),
    # Many small queries, each a handful of Spark jobs. Every query kind
    # is in the catalog once, ranked by popularity (cheap queries on the
    # labeled MI graph first); a pass sends them with Zipf counts
    # (6, 3, 2, 2, then 1 each: 18 queries), in an order drawn from the
    # seed. The repeats put the median latency among the popular
    # sub-second queries, not in the gap above them, where it would jump
    # between runs.
    "interactive": Workload(
        graphs=(MI, OK, FR),
        queries=zipf_stream((
            Query("cliques", MI.key, 3),
            Query("match", MI.key, "p2"),
            Query("cc_exceeds", MI.key, 0.05),
            Query("match", OK.key, "p1"),
            Query("cliques", OK.key, 4),
            Query("match", FR.key, "p4"),
            Query("match", MI.key, "p7"),
            Query("match", OK.key, "p8"),
            # OK/2 holds 75-218 5-cliques for each of seeds 1-10, so every
            # stage stops at its first witness. exists_clique(6) on FR/2
            # stopped after 3 or 4 stages by seed (2.4 or 4.7 s); on OK/2,
            # with 1-21 6-cliques, it took 9-12 s, half of a pass.
            Query("exists_clique", OK.key, 5),
        ), top=6),
        shuffled=True,
    ),
}
