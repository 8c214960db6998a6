"""Peregrine mining applications (§3.2, Figure 4).

Each application is the paper's pattern program expressed over the
DataFrame matching engine:

* :func:`count_motifs` — Fig. 4e: vertex-induced counts of every
  connected pattern with ``size`` vertices;
* :func:`count_cliques` — k-clique counting;
* :func:`match_pattern` — pattern matching, optionally labeled /
  constrained / vertex-induced;
* :func:`exists_pattern` — Fig. 4f existence query with early
  termination (``limit(1)`` lets Spark cancel outstanding work once a
  witness is found — the dataflow analog of ``stopExploration()``);
* :func:`global_clustering_coefficient` / :func:`cc_exceeds` — Fig. 4b;
* :func:`fsm` — Fig. 4a: MNI-support frequent subgraph mining with
  dynamic label discovery and anti-monotone extension.
"""
from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Optional

from pyspark.sql import DataFrame, functions as F

from .matcher import count_matches, match_df
from .pattern import (
    Pattern,
    clique,
    generate_all_vertex_induced,
    star,
)
from .plan import generate_plan

# Human names for the small motifs, keyed by canonical key.
MOTIF_NAMES = {
    star(3).canonical_key(): "wedge",
    clique(3).canonical_key(): "triangle",
}
_4 = {
    "path4": Pattern.of(4, [(0, 1), (1, 2), (2, 3)]),
    "star4": star(4),
    "cycle4": Pattern.of(4, [(0, 1), (1, 2), (2, 3), (0, 3)]),
    "tailed_triangle": Pattern.of(4, [(0, 1), (0, 2), (1, 2), (2, 3)]),
    "diamond": Pattern.of(4, [(0, 1), (0, 2), (1, 2), (1, 3), (2, 3)]),
    "clique4": clique(4),
}
MOTIF_NAMES.update({p.canonical_key(): n for n, p in _4.items()})


def motif_name(p: Pattern) -> str:
    return MOTIF_NAMES.get(p.canonical_key(), str(p))


def count_motifs(
    edges: DataFrame, size: int, symmetry_breaking: bool = True
) -> dict[str, int]:
    """Vertex-induced counts of all connected ``size``-vertex patterns
    (Fig. 4e). Returns ``{motif name: count}``."""
    out = {}
    for p in generate_all_vertex_induced(size):
        out[motif_name(p)] = count_matches(
            edges, p, induced=True, symmetry_breaking=symmetry_breaking
        )
    return out


def count_cliques(edges: DataFrame, k: int) -> int:
    """Number of k-cliques (edge- and vertex-induced coincide)."""
    return count_matches(edges, clique(k))


def match_pattern(
    edges: DataFrame, pattern: Pattern, labels: Optional[DataFrame] = None
) -> int:
    """Count matches of an arbitrary (possibly labeled/constrained)
    pattern (Fig. 4d)."""
    return count_matches(edges, pattern, labels=labels)


def exists_pattern(
    edges: DataFrame, pattern: Pattern, labels: Optional[DataFrame] = None
) -> bool:
    """Existence query with early termination (Fig. 4f / §5.3):
    ``limit(1)`` lets Spark cancel outstanding tasks once a witness row
    is produced."""
    return len(match_df(edges, pattern, labels=labels).limit(1).take(1)) > 0


def exists_clique(edges: DataFrame, k: int) -> bool:
    """k-clique existence query (the paper's 14-clique experiment).

    Staged early termination: a k-clique contains a j-clique for every
    j < k, so the search proceeds size-by-size and stops at the first
    absent size — the paper's observation that 'several partial
    explorations do not lead to a complete 14-clique' becomes an
    anti-monotone stop. (A single 14-clique plan would also be correct,
    but it would intersect 13 adjacency arrays deep before its first
    answer; staging stops at the first absent size, which is the dataflow
    analog of Peregrine abandoning a start vertex as soon as candidates
    run dry.)"""
    for j in range(3, k + 1):
        if not exists_pattern(edges, clique(j)):
            return False
    return True


def global_clustering_coefficient(edges: DataFrame) -> float:
    """3 × triangles / wedges, via two pattern counts (Fig. 4b uses the
    edge-induced 3-star = wedge for the triplet count)."""
    wedges = count_matches(edges, star(3))
    if wedges == 0:
        return 0.0
    triangles = count_matches(edges, clique(3))
    return 3.0 * triangles / wedges


def cc_exceeds(edges: DataFrame, bound: float) -> bool:
    """Fig. 4b existence query: is the global clustering coefficient
    above ``bound``? Counts wedges first, then triangles — the paper
    stops triangle counting early once the requisite count is reached;
    the batch analog computes the count and compares."""
    wedges = count_matches(edges, star(3))
    if wedges == 0:
        return False
    return count_matches(edges, clique(3)) * 3.0 > bound * wedges


# ---------------------------------------------------------------------------
# FSM (Fig. 4a): MNI support, dynamic label discovery, anti-monotonic growth
# ---------------------------------------------------------------------------
@dataclass
class FsmResult:
    """Frequent labeled patterns (canonical) with their MNI supports."""

    frequent: dict[Pattern, int]

    def by_key(self) -> dict[tuple, int]:
        return {p.canonical_key(): s for p, s in self.frequent.items()}


def _discover_supports(
    edges: DataFrame, labels: DataFrame, pattern: Pattern,
    symmetry_breaking: bool = True,
) -> dict[Pattern, int]:
    """Match an unlabeled structure without anti-vertices once, then
    compute the MNI support of every fully labeled canonical pattern
    realized by its matches (dynamic label discovery, §3.2.1) in one
    Spark aggregation.

    ``s`` is the canonical structure and ``Aut(s)`` its automorphisms.
    Because ``_encoding`` compares edges before labels, the canonical
    form of ``s`` labeled by a tuple ``t`` is ``s`` labeled by the least
    of ``t`` permuted by each automorphism: no canonical search per
    labeling.
    A match row stands for the |Aut(s)| automorphic copies of one
    subgraph (with symmetry breaking; without it every copy is already a
    row); the copies whose labels equal the canonical labeling are
    exactly the matches of that labeled pattern, so their per-position
    distinct vertices are its MNI domains — symmetric positions get equal
    domains without computing orbits. Support = min over positions.
    """
    s = pattern.canonical()
    autos = s.automorphisms()
    regs = range(s.n)
    df = match_df(edges, s, labels=labels, symmetry_breaking=symmetry_breaking)
    for u in regs:
        lu = labels.select(F.col("v").alias(f"v{u}"), F.col("label").alias(f"l{u}"))
        df = df.join(lu, on=f"v{u}", how="inner")

    def lab(a):  # the labels of the copy whose position u holds v{a[u]}
        return F.struct(*[F.col(f"l{a[u]}").alias(f"l{u}") for u in regs])

    labs = [lab(a) for a in autos]
    canon = F.least(*labs) if len(labs) > 1 else labs[0]
    kept = autos if symmetry_breaking else [tuple(regs)]
    copies = F.array(*[
        F.struct(lab(a).alias("lab"), F.array(*[F.col(f"v{a[u]}") for u in regs]).alias("vs"))
        for a in kept
    ])
    rows = (
        df.select(canon.alias("c"), F.explode(copies).alias("m"))
        .where(F.col("m.lab") == F.col("c"))
        .select("c", F.posexplode("m.vs"))
        .groupBy("c", "pos")
        .agg(F.count_distinct("col").alias("dom"))
        .groupBy("c")
        .agg(F.min("dom").alias("support"))
        .collect()
    )
    return {s.with_labels(tuple(r["c"])): r["support"] for r in rows}


def _iso_map(p: Pattern, q: Pattern) -> dict[int, int]:
    """A structure/label-preserving bijection from p's vertices to q's
    (both are the same canonical pattern up to relabeling)."""
    for perm in itertools.permutations(range(p.n)):
        if p._maps_onto(perm, q):
            return dict(enumerate(perm))
    raise AssertionError("patterns are not isomorphic")


def fsm(
    edges: DataFrame,
    labels: DataFrame,
    threshold: int,
    max_edges: int = 3,
    symmetry_breaking: bool = True,
) -> FsmResult:
    """Figure 4a: start from the unlabeled 2-edge pattern (the wedge),
    discover frequent labeled patterns, and iteratively ``extendByEdge``
    until ``max_edges``, pruning by anti-monotonicity of MNI support
    (if no labeling of any ``k``-edge structure is frequent, no
    ``k+1``-edge pattern can be, so iteration stops).

    Candidate labelings of one structure are matched as a *batch*: the
    structure is matched once with wildcard labels and every realized
    labeling's MNI support falls out of the same match DataFrame
    (``_discover_supports``) — the dataflow analog of Peregrine matching
    a set of patterns in one exploration pass. A per-labeled-candidate
    match loop gives identical results but pays one Spark job per
    pattern, which at lite scale is pure scheduler overhead.
    """
    from .pattern import extend_by_edge, generate_all_edge_induced

    if labels is None:
        raise ValueError("fsm needs a label table")
    if max_edges < 2:
        raise ValueError(f"max_edges must be >= 2, got {max_edges}")
    structures: list[Pattern] = generate_all_edge_induced(2)
    frequent: dict[Pattern, int] = {}
    for ne in range(2, max_edges + 1):
        fertile: list[Pattern] = []  # structures with >= 1 frequent labeling
        for shape in structures:
            found = False
            for q, support in _discover_supports(
                edges, labels, shape, symmetry_breaking=symmetry_breaking
            ).items():
                if support >= threshold and q not in frequent:
                    frequent[q] = support
                    found = True
            if found:
                fertile.append(shape)
        if not fertile or ne == max_edges:
            break
        structures = [
            s for s in extend_by_edge(fertile) if len(s.edges) == ne + 1
        ]
    return FsmResult(frequent=frequent)
