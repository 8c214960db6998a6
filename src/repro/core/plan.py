"""Exploration-plan generation (Peregrine §4.1–§4.3, Figure 5).

``generate_plan(p)`` analyzes only the pattern (never the data graph) and
produces everything the matching engine needs:

* **partial orders** — Grochow–Kellis symmetry breaking: ``(a, b)`` means
  every match must satisfy ``m(a) < m(b)``; the only automorphism of the
  pattern consistent with the ordering is the identity, so each unique
  subgraph is produced exactly once with no canonicality checks;
* **core** — the subgraph induced by a minimum *connected* vertex cover
  (anti-edges between regular vertices are covered too, §4.2;
  anti-vertices are excluded from the core, §4.3);
* **vertex order** — the order in which the DataFrame engine binds
  vertices: core first (starting from the first total order of the core
  consistent with the partial order), then non-core regular vertices,
  each adjacent to at least one earlier vertex. Anti-vertices are
  checked after every regular vertex is bound.

``Theorem 3.1``: vertex-induced matching of ``p`` equals edge-induced
matching of ``p`` plus anti-edges between every non-adjacent regular
pair — implemented by :func:`vertex_induced_rewrite`.
"""
from __future__ import annotations

import itertools
from dataclasses import dataclass

from .pattern import Pattern, _norm_edge


def vertex_induced_rewrite(p: Pattern) -> Pattern:
    """Add an anti-edge between every pair of non-adjacent regular
    vertices (Theorem 3.1). Anti-vertices keep their existing anti-edges."""
    regs = p.regular_vertices
    extra = {
        _norm_edge(a, b)
        for a, b in itertools.combinations(regs, 2)
        if not p.are_connected(a, b)
    }
    return Pattern.of(
        p.n, p.edges, p.anti_edges | extra, p.labels, p.anti_vertices
    )


def break_symmetries(p: Pattern) -> tuple[tuple[int, int], ...]:
    """Grochow–Kellis symmetry breaking [16].

    Iteratively pins the smallest non-fixed vertex ``v``: add ``v < u``
    for every other vertex ``u`` in v's orbit, then keep only the
    automorphisms fixing ``v``. Terminates with only the identity
    remaining. Automorphisms are computed on the *full* pattern —
    including labels, anti-edges and anti-vertices — so anti-vertex
    asymmetries are honoured (§4.3).
    """
    autos = p.automorphisms()
    conditions: list[tuple[int, int]] = []
    while len(autos) > 1:
        v = min(v for v in range(p.n) if any(a[v] != v for a in autos))
        orbit = {a[v] for a in autos}
        for u in sorted(orbit - {v}):
            conditions.append((v, u))
        autos = [a for a in autos if a[v] == v]
    return tuple(conditions)


def min_connected_vertex_cover(p: Pattern) -> tuple[int, ...]:
    """Smallest set of *regular* vertices that covers every regular edge
    and every anti-edge between two regular vertices (§4.2), whose
    induced subgraph (over regular edges) is connected. Deterministic:
    lexicographically smallest among minimum covers.

    Anti-edges incident to an anti-vertex need no cover: the anti-vertex
    check runs after all regular vertices are matched (§4.3).
    """
    regs = p.regular_vertices
    to_cover = list(p.edges) + [
        e for e in p.anti_edges
        if e[0] not in p.anti_vertices and e[1] not in p.anti_vertices
    ]
    if not to_cover:
        return regs[:1]
    adj: dict[int, set[int]] = {v: set() for v in regs}
    for a, b in p.edges:
        adj[a].add(b)
        adj[b].add(a)
    for size in range(1, len(regs) + 1):
        for cand in itertools.combinations(regs, size):
            cset = set(cand)
            if not all(a in cset or b in cset for a, b in to_cover):
                continue
            if _connected_within(cand, adj):
                return cand
    raise AssertionError("unreachable: full regular vertex set is a cover")


def _connected_within(vs: tuple[int, ...], adj: dict[int, set[int]]) -> bool:
    if len(vs) <= 1:
        return True
    vset = set(vs)
    seen = {vs[0]}
    stack = [vs[0]]
    while stack:
        for w in adj[stack.pop()] & vset:
            if w not in seen:
                seen.add(w)
                stack.append(w)
    return seen == vset


def _core_order(
    core: tuple[int, ...], partial_orders: tuple[tuple[int, int], ...]
) -> tuple[int, ...]:
    """The first total order of the core, in ``itertools.permutations``
    order, that is consistent with the partial order restricted to core
    vertices (§4.1): at each step take the earliest core vertex whose
    core predecessors are all placed."""
    po = [(a, b) for a, b in partial_orders if a in core and b in core]
    seq: list[int] = []
    while len(seq) < len(core):
        seq.append(next(
            v for v in core
            if v not in seq and all(a in seq for a, b in po if b == v)
        ))
    return tuple(seq)


@dataclass(frozen=True)
class ExplorationPlan:
    """Everything needed to guide exploration for one pattern."""

    pattern: Pattern  # rewritten pattern (anti-edges added when induced)
    partial_orders: tuple[tuple[int, int], ...]
    core: tuple[int, ...]
    vertex_order: tuple[int, ...]  # regular vertices in binding order
    num_automorphisms: int


def generate_plan(p: Pattern, induced: bool = False) -> ExplorationPlan:
    """Figure 5: symmetry breaking → vertex cover → vertex order.

    ``induced=True`` first applies the Theorem 3.1 rewrite so the plan
    finds vertex-induced matches via edge-induced machinery.
    """
    q = vertex_induced_rewrite(p) if induced else p
    partial = break_symmetries(q)
    core = min_connected_vertex_cover(q)
    vertex_order = _full_vertex_order(q, _core_order(core, partial))
    return ExplorationPlan(
        pattern=q,
        partial_orders=partial,
        core=core,
        vertex_order=vertex_order,
        num_automorphisms=len(q.automorphisms()),
    )


def _full_vertex_order(p: Pattern, core_seq: tuple[int, ...]) -> tuple[int, ...]:
    """A prefix-connected binding order: core vertices first, then
    non-core regular vertices (whose regular neighbors are all in the
    core, by the cover property). The core sequence is reordered greedily
    so every vertex after the first is adjacent to an earlier one — the
    engine draws its candidates from bound neighbours' adjacency arrays;
    the partial order is enforced separately as ``<`` predicates."""
    core = list(core_seq)
    order = [core[0]]
    remaining = core[1:]
    while remaining:
        nxt = next(
            v for v in remaining if set(p.get_neighbors(v)) & set(order)
        )  # core induced subgraph is connected, so this always exists
        order.append(nxt)
        remaining.remove(nxt)
    rest = [v for v in p.regular_vertices if v not in core]
    rest.sort(key=lambda v: (-len(p.get_neighbors(v)), v))
    order += rest
    bound: set[int] = set()
    for i, v in enumerate(order):
        if i > 0 and not (set(p.get_neighbors(v)) & bound):
            raise AssertionError(f"vertex {v} not connected to bound prefix")
        bound.add(v)
    return tuple(order)
