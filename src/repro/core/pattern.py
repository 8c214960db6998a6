"""First-class graph patterns (Peregrine §3, Figure 2).

A :class:`Pattern` is a small connected graph with optional vertex labels
and the two Peregrine constraint abstractions:

* **anti-edges** — pairs of vertices whose matched data vertices must NOT
  be adjacent in the data graph (§3.1.1);
* **anti-vertices** — vertices connected only by anti-edges; a match must
  have no data vertex *outside the match* that is a common neighbor of
  the matched neighbors of the anti-vertex (§3.1.2).

The paper's Figure 2 interface is mutating C++; here patterns are
immutable value objects and every "mutation" (``add_edge`` etc.) returns
a new ``Pattern`` — the idiomatic Python equivalent, and what lets
patterns be dict keys throughout the engine.

Vertices are ``0..n-1``. Labels are ``None`` (wildcard, matches any data
label) or small ints. Patterns are tiny (≤ ~7 vertices), so canonical
forms and automorphisms are computed by brute force over permutations.
"""
from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from typing import Iterable, Optional, Sequence

Edge = tuple[int, int]


def _norm_edge(a: int, b: int) -> Edge:
    if a == b:
        raise ValueError(f"self-loop ({a},{b}) not allowed in a pattern")
    return (a, b) if a < b else (b, a)


def connected(vertices: Iterable[int], edges: Iterable[Edge]) -> bool:
    """Do ``edges`` connect ``vertices``? Edges with an endpoint outside
    ``vertices`` are ignored; no vertex, or one, is connected."""
    adj: dict[int, list[int]] = {v: [] for v in vertices}
    for a, b in edges:
        if a in adj and b in adj:
            adj[a].append(b)
            adj[b].append(a)
    if not adj:
        return True
    stack = [next(iter(adj))]
    seen = set(stack)
    while stack:
        for w in adj[stack.pop()]:
            if w not in seen:
                seen.add(w)
                stack.append(w)
    return len(seen) == len(adj)


@dataclass(frozen=True)
class Pattern:
    """An immutable connected graph pattern.

    Attributes:
        n: number of vertices (ids ``0..n-1``).
        edges: frozenset of ``(a, b)`` with ``a < b`` — regular edges.
        anti_edges: frozenset of ``(a, b)`` with ``a < b`` — anti-edges.
        labels: per-vertex label; ``None`` is a wildcard.
        anti_vertices: vertices that are anti-vertices (must have only
            anti-edges incident).
    """

    n: int
    edges: frozenset = field(default_factory=frozenset)
    anti_edges: frozenset = field(default_factory=frozenset)
    labels: tuple = ()
    anti_vertices: frozenset = field(default_factory=frozenset)

    # -- construction -----------------------------------------------------
    @staticmethod
    def of(
        n: int,
        edges: Iterable[Edge] = (),
        anti_edges: Iterable[Edge] = (),
        labels: Optional[Sequence] = None,
        anti_vertices: Iterable[int] = (),
    ) -> "Pattern":
        """Build and validate a pattern from edge lists."""
        e = frozenset(_norm_edge(a, b) for a, b in edges)
        ae = frozenset(_norm_edge(a, b) for a, b in anti_edges)
        if e & ae:
            raise ValueError(f"edges also declared anti: {sorted(e & ae)}")
        lab = tuple(labels) if labels is not None else (None,) * n
        if len(lab) != n:
            raise ValueError(f"labels length {len(lab)} != n={n}")
        av = frozenset(anti_vertices)
        p = Pattern(n, e, ae, lab, av)
        p._validate()
        return p

    def _validate(self) -> None:
        for a, b in self.edges | self.anti_edges:
            if not (0 <= a < self.n and 0 <= b < self.n):
                raise ValueError(f"edge ({a},{b}) out of range for n={self.n}")
        for v in self.anti_vertices:
            if any(v in e for e in self.edges):
                raise ValueError(f"anti-vertex {v} has a regular edge")
            if not any(v in e for e in self.anti_edges):
                raise ValueError(f"anti-vertex {v} has no anti-edge")
        for a, b in self.anti_edges:
            # An anti-edge between two anti-vertices constrains nothing
            # matchable; disallow to keep semantics well-defined.
            if a in self.anti_vertices and b in self.anti_vertices:
                raise ValueError(f"anti-edge ({a},{b}) joins two anti-vertices")
        regs = [v for v in range(self.n) if v not in self.anti_vertices]
        if len(regs) > 1:
            # §3.1.2: "a vertex with at least one regular edge is a
            # regular vertex" — an edge-less vertex would be an
            # (undeclared) anti-vertex, so reject it.
            for v in regs:
                if not any(v in e for e in self.edges):
                    raise ValueError(f"regular vertex {v} has no regular edge")
        # connected over regular edges, with each anti-vertex attached by
        # its anti-edges (an anti-vertex 'hangs off' regular structure)
        hangs = {e for e in self.anti_edges if self.anti_vertices.intersection(e)}
        if not connected(range(self.n), self.edges | hangs):
            raise ValueError("pattern must be connected")

    # -- Figure 2 accessors ----------------------------------------------
    @property
    def regular_vertices(self) -> tuple[int, ...]:
        return tuple(v for v in range(self.n) if v not in self.anti_vertices)

    def get_neighbors(self, u: int) -> tuple[int, ...]:
        """Regular-edge neighbors of ``u``."""
        return tuple(sorted(b if a == u else a for a, b in self.edges if u in (a, b)))

    def get_anti_neighbors(self, u: int) -> tuple[int, ...]:
        return tuple(
            sorted(b if a == u else a for a, b in self.anti_edges if u in (a, b))
        )

    def are_connected(self, a: int, b: int) -> bool:
        return _norm_edge(a, b) in self.edges

    def are_anti_adjacent(self, a: int, b: int) -> bool:
        return _norm_edge(a, b) in self.anti_edges

    # -- Figure 2 "mutators" (functional) --------------------------------
    def add_edge(self, a: int, b: int) -> "Pattern":
        return Pattern.of(
            max(self.n, a + 1, b + 1),
            self.edges | {_norm_edge(a, b)},
            self.anti_edges,
            self._labels_for(max(self.n, a + 1, b + 1)),
            self.anti_vertices,
        )

    def add_anti_edge(self, a: int, b: int) -> "Pattern":
        return Pattern.of(
            max(self.n, a + 1, b + 1),
            self.edges,
            self.anti_edges | {_norm_edge(a, b)},
            self._labels_for(max(self.n, a + 1, b + 1)),
            self.anti_vertices,
        )

    def add_anti_vertex(self, neighbors: Iterable[int]) -> "Pattern":
        """Append a new anti-vertex anti-adjacent to ``neighbors``."""
        v = self.n
        nbrs = list(neighbors)
        if not nbrs:
            raise ValueError("anti-vertex needs at least one anti-edge")
        return Pattern.of(
            self.n + 1,
            self.edges,
            self.anti_edges | {_norm_edge(v, u) for u in nbrs},
            self.labels + (None,),
            self.anti_vertices | {v},
        )

    def remove_edge(self, a: int, b: int) -> "Pattern":
        return Pattern.of(
            self.n,
            self.edges - {_norm_edge(a, b)},
            self.anti_edges,
            self.labels,
            self.anti_vertices,
        )

    def with_labels(self, labels: Sequence) -> "Pattern":
        return Pattern.of(self.n, self.edges, self.anti_edges, labels, self.anti_vertices)

    def _labels_for(self, n: int) -> tuple:
        return self.labels + (None,) * (n - self.n)

    # -- isomorphism machinery --------------------------------------------
    # Every canonical form, automorphism and isomorphism test goes through
    # one search (_canonical_perm) and one predicate (_maps_onto).
    def _maps_onto(self, perm: Sequence[int], other: "Pattern") -> bool:
        """Does renaming vertex ``v`` to ``perm[v]`` turn this pattern into
        ``other`` — edges, anti-edges, labels and anti-vertex flags alike?
        Anti-edges are *not* interchangeable with regular edges (§4.3)."""
        return (
            all(self.labels[v] == other.labels[perm[v]] for v in range(self.n))
            and frozenset(perm[v] for v in self.anti_vertices) == other.anti_vertices
            and frozenset(_norm_edge(perm[a], perm[b]) for a, b in self.edges)
            == other.edges
            and frozenset(_norm_edge(perm[a], perm[b]) for a, b in self.anti_edges)
            == other.anti_edges
        )

    def automorphisms(self) -> list[tuple[int, ...]]:
        """All permutations mapping this pattern onto itself."""
        return [
            perm
            for perm in itertools.permutations(range(self.n))
            if self._maps_onto(perm, self)
        ]

    def _encoding(self, perm: Sequence[int]) -> tuple:
        """Sortable structural encoding of this pattern relabeled so that
        old vertex ``v`` becomes ``perm[v]``."""
        inv = [0] * self.n
        for v, pv in enumerate(perm):
            inv[pv] = v
        return (
            self.n,
            tuple(sorted(_norm_edge(perm[a], perm[b]) for a, b in self.edges)),
            tuple(sorted(_norm_edge(perm[a], perm[b]) for a, b in self.anti_edges)),
            tuple(_lab_key(self.labels[inv[i]]) for i in range(self.n)),
            tuple(sorted(perm[v] for v in self.anti_vertices)),
        )

    def _canonical_perm(self) -> tuple[int, ...]:
        """The first permutation with the smallest encoding: the canonical
        relabeling."""
        return min(itertools.permutations(range(self.n)), key=self._encoding)

    def _relabel(self, perm: Sequence[int]) -> "Pattern":
        """This pattern with old vertex ``v`` renamed ``perm[v]``."""
        lab = [None] * self.n
        for v in range(self.n):
            lab[perm[v]] = self.labels[v]
        return Pattern.of(
            self.n,
            {_norm_edge(perm[a], perm[b]) for a, b in self.edges},
            {_norm_edge(perm[a], perm[b]) for a, b in self.anti_edges},
            lab,
            {perm[v] for v in self.anti_vertices},
        )

    def canonical_key(self) -> tuple:
        """Canonical (isomorphism-invariant) hashable key."""
        return self._encoding(self._canonical_perm())

    def canonical(self) -> "Pattern":
        """This pattern relabeled to its canonical form; isomorphic
        patterns have equal canonical forms."""
        return self._relabel(self._canonical_perm())

    def __str__(self) -> str:  # pragma: no cover - debug aid
        parts = [f"n={self.n}", f"e={sorted(self.edges)}"]
        if self.anti_edges:
            parts.append(f"ae={sorted(self.anti_edges)}")
        if any(l is not None for l in self.labels):
            parts.append(f"l={self.labels}")
        if self.anti_vertices:
            parts.append(f"av={sorted(self.anti_vertices)}")
        return "Pattern(" + ", ".join(parts) + ")"


def _lab_key(label) -> tuple:
    # None (wildcard) sorts before any concrete label, deterministically.
    return (0,) if label is None else (1, label)


# -- Figure 2 generators [S1-S3] ------------------------------------------
def clique(k: int) -> Pattern:
    """[S1] The fully connected pattern on ``k`` vertices."""
    return Pattern.of(k, itertools.combinations(range(k), 2))


def star(k: int) -> Pattern:
    """[S2] A star with ``k`` vertices: center 0 and ``k-1`` endpoints.
    ``star(3)`` is the '3-star' of §3.2.2 (a wedge)."""
    if k < 2:
        raise ValueError("star needs >= 2 vertices")
    return Pattern.of(k, ((0, i) for i in range(1, k)))


def chain(k: int) -> Pattern:
    """[S3] A path with ``k`` vertices."""
    if k < 2:
        raise ValueError("chain needs >= 2 vertices")
    return Pattern.of(k, ((i, i + 1) for i in range(k - 1)))


# -- Figure 2 generators [G1-G2] ------------------------------------------
def _distinct(patterns: Iterable[Pattern]) -> list[Pattern]:
    """One canonical form per isomorphism class of ``patterns``, in
    canonical-key order."""
    return sorted({p.canonical() for p in patterns}, key=Pattern.canonical_key)


def generate_all_vertex_induced(size: int) -> list[Pattern]:
    """[G2] All unique connected unlabeled patterns with ``size`` vertices
    (the motif set: 2 patterns for size 3, 6 for size 4, 21 for size 5)."""
    pairs = list(itertools.combinations(range(size), 2))
    return _distinct(
        Pattern.of(size, edges)
        for r in range(size - 1, len(pairs) + 1)
        for edges in itertools.combinations(pairs, r)
        if connected(range(size), edges)
    )


def generate_all_edge_induced(size: int) -> list[Pattern]:
    """[G1] All unique connected unlabeled patterns with ``size`` edges
    and no isolated vertices (1 pattern for size 2: the wedge)."""
    return _distinct(
        Pattern.of(n, edges)
        for n in range(2, size + 2)
        for edges in itertools.combinations(itertools.combinations(range(n), 2), size)
        if connected(range(n), edges)
    )


# -- Figure 2 combinator [C1] --------------------------------------------
def extend_by_edge(patterns: Iterable[Pattern]) -> list[Pattern]:
    """[C1] All unique patterns formed by adding one edge to a pattern —
    either between two existing non-adjacent regular vertices, or to a
    fresh (wildcard-labeled) vertex. Labels and constraints are kept."""
    grown = []
    for p in patterns:
        regs = p.regular_vertices
        for a, b in itertools.combinations(regs, 2):
            if not p.are_connected(a, b) and not p.are_anti_adjacent(a, b):
                grown.append(p.add_edge(a, b))
        grown.extend(p.add_edge(a, p.n) for a in regs)
    return _distinct(grown)
