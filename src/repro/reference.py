"""Independent pure-Python brute-force reference for tests.

Enumerates matches by trying every injective assignment of pattern
vertices to data vertices (backtracking over adjacency), with the same
semantics as the engine: anti-edges, anti-vertices, labels,
symmetry-breaking partial orders. Vertex-induced matches are those of
the Theorem 3.1 rewrite, passed in as the pattern. Deliberately shares
no code with the DataFrame engine or the SQL compiler so the three
implementations cross-check each other.
"""
from __future__ import annotations

from typing import Iterable, Optional

from .core.pattern import Pattern
from .core.plan import break_symmetries


class RefGraph:
    """Tiny adjacency-set data graph."""

    def __init__(self, edges: Iterable[tuple[int, int]], labels: Optional[dict] = None):
        self.adj: dict[int, set[int]] = {}
        for a, b in edges:
            if a == b:
                continue
            self.adj.setdefault(a, set()).add(b)
            self.adj.setdefault(b, set()).add(a)
        self.labels = labels or {}

    @property
    def vertices(self) -> list[int]:
        return sorted(self.adj)

    def neighbors(self, v: int) -> set[int]:
        return self.adj.get(v, set())

    def has_edge(self, a: int, b: int) -> bool:
        return b in self.adj.get(a, set())


def ref_matches(
    g: RefGraph, p: Pattern, symmetry_breaking: bool = True
) -> list[tuple[int, ...]]:
    """All matches as tuples ordered by regular pattern-vertex id."""
    po = break_symmetries(p) if symmetry_breaking else ()
    regs = list(p.regular_vertices)
    out: list[tuple[int, ...]] = []
    assign: dict[int, int] = {}

    def ok(u: int, v: int) -> bool:
        if v in assign.values():
            return False
        if p.labels[u] is not None and g.labels.get(v) != p.labels[u]:
            return False
        for w, mv in assign.items():
            if w in p.anti_vertices:
                continue
            if p.are_connected(u, w) and not g.has_edge(v, mv):
                return False
            if p.are_anti_adjacent(u, w) and g.has_edge(v, mv):
                return False
        for a, b in po:
            if a == u and b in assign and not v < assign[b]:
                return False
            if b == u and a in assign and not assign[a] < v:
                return False
        return True

    def anti_ok() -> bool:
        for av in p.anti_vertices:
            nbrs = [w for w in p.get_anti_neighbors(av) if w not in p.anti_vertices]
            common: Optional[set[int]] = None
            for w in nbrs:
                nb = g.neighbors(assign[w])
                common = nb if common is None else common & nb
            witnesses = (common or set()) - set(assign.values())
            if witnesses:
                return False
        return True

    def rec(i: int) -> None:
        if i == len(regs):
            if anti_ok():
                out.append(tuple(assign[u] for u in sorted(regs)))
            return
        u = regs[i]
        for v in g.vertices:
            if ok(u, v):
                assign[u] = v
                rec(i + 1)
                del assign[u]

    rec(0)
    return out


def ref_count(g, pattern, symmetry_breaking=True) -> int:
    return len(ref_matches(g, pattern, symmetry_breaking))


def ref_mni_support(g: RefGraph, p: Pattern) -> int:
    """MNI support: min over pattern vertices of |{v : some match maps
    u -> v}| — computed from unrestricted (no symmetry breaking)
    matches, the textbook definition."""
    regs = sorted(p.regular_vertices)
    domains: dict[int, set[int]] = {u: set() for u in regs}
    for m in ref_matches(g, p, symmetry_breaking=False):
        for u, v in zip(regs, m):
            domains[u].add(v)
    if not domains:
        return 0
    return min(len(d) for d in domains.values()) if all(domains.values()) else 0


def ref_fsm(
    g: RefGraph, threshold: int, max_edges: int = 3
) -> dict[tuple, int]:
    """Brute-force MNI FSM over labeled edge-induced patterns with up to
    ``max_edges`` edges (≥ 2, matching the paper's program which starts
    at 2-edge patterns): enumerate every connected labeled pattern that
    occurs in ``g``, compute MNI support, keep those >= threshold."""
    from .core.pattern import generate_all_edge_induced

    out: dict[tuple, int] = {}
    for ne in range(2, max_edges + 1):
        for shape in generate_all_edge_induced(ne):
            # all label assignments that actually occur: derive from matches
            seen_labels: set[tuple] = set()
            for m in ref_matches(g, shape, symmetry_breaking=True):
                seen_labels.add(tuple(g.labels.get(v) for v in m))
            for lab in seen_labels:
                q = shape.with_labels(lab).canonical()
                key = q.canonical_key()
                if key in out:
                    continue
                s = ref_mni_support(g, q)
                if s >= threshold:
                    out[key] = s
    return out
