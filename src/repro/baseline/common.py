"""Shared machinery for the pattern-oblivious baseline systems.

These stand-ins reproduce the *cost structure* the paper measures in
the systems it compares against (Figure 1, Tables 3–5): per-embedding
canonicality checks, per-embedding isomorphism computations, and
materialization of partial matches. Counters are first-class so the
Figure 1b/1c profiling tables can be regenerated.
"""
from __future__ import annotations

import itertools
from dataclasses import dataclass

import pandas as pd

from ..core.pattern import Pattern


#: Explored-embedding budget for baseline systems: the deterministic
#: laptop-scale analog of the paper's OOM / disk / 5-hour limits.
BUDGET = 2_000_000

#: The largest pattern the baselines' FSM mines, in edges: the paper's
#: 3-edge FSM.
FSM_EDGES = 3


class BudgetExceeded(Exception):
    """Raised when a baseline run exceeds its embedding budget — the
    deterministic laptop-scale analog of the paper's OOM / out-of-disk /
    5-hour-timeout cells (rendered as '—' in the tables)."""


@dataclass
class BaselineMetrics:
    """Figure 1b/1c columns."""

    explored: int = 0  # total (partial + complete) matches generated
    canonicality: int = 0  # per-embedding canonicality computations
    isomorphism: int = 0  # per-embedding isomorphism computations
    result: object = None

    def charge(self, n: int, budget: int | None) -> None:
        self.explored += n
        if budget is not None and self.explored > budget:
            raise BudgetExceeded(
                f"explored {self.explored} embeddings > budget {budget}"
            )


def adjacency_dict(edges: pd.DataFrame) -> dict[int, frozenset]:
    """{vertex: neighbor set} from a symmetric pandas edge table."""
    adj: dict[int, set] = {}
    for s, d in zip(edges.src.to_numpy(), edges.dst.to_numpy()):
        adj.setdefault(int(s), set()).add(int(d))
    return {v: frozenset(ns) for v, ns in adj.items()}


def is_clique(vs: tuple[int, ...], adj: dict[int, frozenset]) -> bool:
    """Every pair of ``vs`` is adjacent."""
    return all(
        vs[j] in adj.get(vs[i], ()) for i in range(len(vs)) for j in range(i + 1, len(vs))
    )


def is_canonical_embedding(vs: tuple[int, ...], adj: dict[int, frozenset]) -> bool:
    """Arabesque-style canonicality: the vertex sequence is canonical iff
    it is the lexicographically smallest ordering of its vertex set in
    which every prefix is connected. Brute force over permutations —
    embeddings are tiny (<= 5 vertices), and the per-embedding cost is
    exactly the overhead the paper attributes to these systems."""
    best = None
    for perm in itertools.permutations(sorted(vs)):
        ok = True
        for i in range(1, len(perm)):
            if not any(perm[i] in adj.get(perm[j], ()) for j in range(i)):
                ok = False
                break
        if ok:
            best = perm
            break  # permutations of a sorted tuple come out in lex order
    return best == tuple(vs)


def encode_induced(vs: tuple[int, ...], adj: dict[int, frozenset]) -> str:
    """Canonical code of the subgraph induced by ``vs`` — the
    per-embedding isomorphism computation of pattern-unaware systems."""
    k = len(vs)
    pairs = [
        (i, j)
        for i in range(k)
        for j in range(i + 1, k)
        if vs[j] in adj.get(vs[i], ())
    ]
    p = Pattern.of(k, pairs)
    return str(p.canonical_key())


_ORBIT_MEMO: dict[str, tuple[int, ...]] = {}


def encode_labeled_edge_embedding(
    eset: frozenset[tuple[int, int]],
    label_of: dict[int, int],
) -> tuple[str, tuple[int, ...], tuple[int, ...]]:
    """Canonical key of the labeled pattern formed by an edge-set
    embedding, the data vertices reordered by canonical pattern
    position, and the automorphism-orbit id of each canonical position
    (symmetric positions share an MNI domain). Brute force — the
    isomorphism computation Arabesque/RStream/Fractal run per match."""
    vs = sorted({v for e in eset for v in e})
    idx = {v: i for i, v in enumerate(vs)}
    edges = [(idx[a], idx[b]) for a, b in eset]
    labels = [label_of[v] for v in vs]
    p = Pattern.of(len(vs), edges, labels=labels)
    perm = p._canonical_perm()
    mapped = [0] * p.n
    for local, v in enumerate(vs):
        mapped[perm[local]] = v
    code = str(p._encoding(perm))
    orbits = _ORBIT_MEMO.get(code)
    if orbits is None:
        autos = p._relabel(perm).automorphisms()
        orbits = tuple(min(a[j] for a in autos) for j in range(p.n))
        _ORBIT_MEMO[code] = orbits
    return code, tuple(mapped), orbits


#: |Aut(p)| per pattern, so a DFS leaf does not search the automorphisms.
_AUT_MEMO: dict[Pattern, int] = {}


def count_pattern_in_set(
    vs: tuple[int, ...],
    adj: dict[int, frozenset],
    pattern: Pattern,
    label_of: dict[int, int] | None = None,
) -> int:
    """Edge-induced matches of ``pattern`` whose vertex set is exactly
    ``vs``: edge-preserving (and label-preserving) bijections divided by
    |Aut| — the leaf isomorphism computation of a DFS baseline."""
    k = pattern.n
    if len(vs) != k:
        return 0
    n_auto = _AUT_MEMO.get(pattern)
    if n_auto is None:
        n_auto = _AUT_MEMO[pattern] = len(pattern.automorphisms())
    cnt = 0
    for perm in itertools.permutations(vs):
        if label_of is not None and any(
            pattern.labels[u] is not None
            and label_of.get(perm[u]) != pattern.labels[u]
            for u in range(k)
        ):
            continue
        if all(perm[b] in adj.get(perm[a], ()) for a, b in pattern.edges):
            cnt += 1
    assert cnt % n_auto == 0
    return cnt // n_auto
