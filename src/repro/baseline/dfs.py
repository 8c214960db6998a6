"""Fractal-style depth-first enumeration baseline (§2.2, Table 4).

Fractal explores embeddings depth-first from every vertex, so it avoids
materializing whole BFS levels — but it is still pattern-unaware: it
enumerates *all* connected subgraphs of the target size and decides at
the leaves (clique test, isomorphism encode, pattern count) what each
one was. The explored/canonicality counters therefore track every
recursion node and extension-candidate test, which is what Figure 1b
shows for Fractal (e.g. 188x the 4-clique result size).

Implementation: ``TASKS`` tasks over a hash-partitioned start-vertex
table — Spark's dynamic scheduling stands in for Fractal's work
stealing — each running the ESU (Wernicke) connected-subgraph enumerator
from each of its start vertices over the loaded graph's broadcast
adjacency, so every k-vertex connected set is visited exactly once, at
its minimum vertex. Each leaf returns a ``Counter``; the run sums them.
"""
from __future__ import annotations

import itertools
from collections import Counter
from typing import TYPE_CHECKING, Callable, Optional

from py4j.protocol import Py4JJavaError

from ..core.pattern import Pattern
from .common import (
    BaselineMetrics,
    BudgetExceeded,
    count_pattern_in_set,
    encode_induced,
    encode_labeled_edge_embedding,
    is_clique,
)

if TYPE_CHECKING:
    from ..harness import SparkGraph

_BUDGET_DEFAULT = 3_000_000

#: DFS tasks per run. A budget is per task (the worker-memory analog).
TASKS = 64

#: ``leaf(vertex set, adjacency, work counters)`` -> the leaf's counts.
Leaf = Callable[[tuple[int, ...], dict[int, frozenset], dict], Counter]


def _esu_from(
    root: int,
    k: int,
    adj: dict[int, frozenset],
    leaf: Callable[[tuple[int, ...]], None],
    counters: dict,
    budget: Optional[int],
    all_sizes: bool = False,
) -> None:
    """ESU: every connected set of size ``k`` (or of every size >= 2
    when ``all_sizes``) containing ``root`` as its minimum vertex is
    reached exactly once — every node of the ESU tree is a distinct
    connected set."""

    def rec(sub: list[int], ext: list[int]) -> None:
        counters["explored"] += 1
        if budget is not None and counters["explored"] > budget:
            raise BudgetExceeded(f"explored > budget {budget}")
        if len(sub) == k:
            leaf(tuple(sub))
            return
        if all_sizes and len(sub) >= 2:
            leaf(tuple(sub))
        ext = list(ext)
        nbr_sub = set().union(*(adj.get(v, frozenset()) for v in sub))
        while ext:
            w = ext.pop()
            new_ext = list(ext)
            for u in adj.get(w, frozenset()):
                counters["canonicality"] += 1  # per-candidate uniqueness test
                if u > root and u not in nbr_sub and u not in sub:
                    new_ext.append(u)
            rec(sub + [w], new_ext)

    rec([root], sorted(u for u in adj.get(root, frozenset()) if u > root))


def dfs_run(
    g: SparkGraph,
    k: int,
    leaf: Leaf,
    budget: Optional[int] = _BUDGET_DEFAULT,
    all_sizes: bool = False,
) -> BaselineMetrics:
    """Run a DFS enumeration app over ``g``: ``m.result`` is the sum of
    the ``Counter`` every leaf returns. The first task to exceed its
    budget fails the Spark job, which stops every other task, and the run
    raises :class:`BudgetExceeded`."""
    adj_b = g.adj_b
    starts = g.edges.select("src").distinct().repartition(TASKS, "src")

    def task(rows):
        # a BudgetExceeded raised here fails the task, and with it the job
        adj = adj_b.value
        # a plain dict: the counters are bumped once per ESU step
        counters = {"explored": 0, "canonicality": 0, "isomorphism": 0}
        total = Counter()

        def add(vs):
            c = leaf(vs, adj, counters)
            if c:  # skips the update for the many leaves that count nothing
                total.update(c)

        for r in rows:
            _esu_from(r.src, k, adj, add, counters, budget, all_sizes=all_sizes)
        yield counters, total

    try:
        out = starts.rdd.mapPartitions(task).collect()
    except Py4JJavaError as e:
        if BudgetExceeded.__name__ not in str(e):
            raise
        raise BudgetExceeded(
            f"a task explored more than its budget of {budget} embeddings"
        ) from None

    m = BaselineMetrics(result=Counter())
    for counters, total in out:
        m.explored += counters["explored"]
        m.canonicality += counters["canonicality"]
        m.isomorphism += counters["isomorphism"]
        m.result.update(total)
    return m


def dfs_count_cliques(
    g: SparkGraph, k: int, budget: Optional[int] = _BUDGET_DEFAULT
) -> BaselineMetrics:
    """Enumerate all connected k-sets; test the clique property at each
    leaf (native clique support — 0 isomorphism checks, Fig. 1b)."""
    m = dfs_run(
        g, k, lambda vs, adj, c: Counter(cliques=1) if is_clique(vs, adj) else Counter(), budget
    )
    m.result = m.result["cliques"]
    return m


def dfs_count_motifs(
    g: SparkGraph, k: int, budget: Optional[int] = _BUDGET_DEFAULT
) -> BaselineMetrics:
    """Enumerate all connected k-sets; isomorphism-encode each leaf.
    ``m.result`` maps each motif's canonical key string to its count."""

    def leaf(vs, adj, counters):
        counters["isomorphism"] += 1
        return Counter({encode_induced(vs, adj): 1})

    return dfs_run(g, k, leaf, budget)


def dfs_match_pattern(
    g: SparkGraph,
    pattern: Pattern,
    budget: Optional[int] = _BUDGET_DEFAULT,
) -> BaselineMetrics:
    """Pattern matching the DFS way: enumerate all connected |V(p)|-sets
    and count the edge-induced matches inside each induced subgraph at
    the leaf (a per-leaf isomorphism computation)."""
    labeled = any(lab is not None for lab in pattern.labels)
    labels_b = g.labels_b if labeled else None

    def leaf(vs, adj, counters):
        counters["isomorphism"] += 1
        label_of = labels_b.value if labels_b is not None else None
        return Counter(matches=count_pattern_in_set(vs, adj, pattern, label_of))

    m = dfs_run(g, pattern.n, leaf, budget)
    m.result = m.result["matches"]
    return m


def dfs_fsm(
    g: SparkGraph,
    threshold: int,
    max_edges: int = 3,
    budget: Optional[int] = _BUDGET_DEFAULT,
) -> BaselineMetrics:
    """Fractal-style FSM: depth-first edge-induced enumeration with
    global MNI aggregation (the O(|V|)-per-pattern-vertex domains the
    paper calls Fractal's scalability bottleneck). Domains for *every*
    labeled pattern up to ``max_edges`` edges are aggregated; the
    threshold is applied at the end of each size, with anti-monotone
    pruning between sizes."""
    labels_b = g.labels_b
    m = BaselineMetrics()
    frequent_final: dict[str, int] = {}
    allowed: Optional[set[str]] = None  # frequent codes of previous size

    for ne in range(1, max_edges + 1):
        prev_allowed = allowed

        def leaf(vs, adj, counters):
            # a leaf is a connected vertex set; its embeddings are the
            # connected ne-edge subsets of its edges that span it. Each
            # adds its (code, orbit, vertex) MNI domain entries.
            label_of = labels_b.value
            pairs = [
                (vs[i], vs[j])
                for i in range(len(vs))
                for j in range(i + 1, len(vs))
                if vs[j] in adj.get(vs[i], ())
            ]
            out = Counter()
            for es in itertools.combinations(pairs, ne):
                if len({v for e in es for v in e}) != len(vs):
                    continue
                eset = frozenset((min(a, b), max(a, b)) for a, b in es)
                if not _connected_eset(eset):
                    continue
                counters["explored"] += 1
                counters["isomorphism"] += 1
                code, mapped, orbits = encode_labeled_edge_embedding(eset, label_of)
                if prev_allowed is not None and not any(
                    sub in prev_allowed
                    for sub in _subcodes(eset, label_of, counters)
                ):
                    continue
                out.update((code, orb, v) for orb, v in zip(orbits, mapped))
            return out

        # ne + 1 = the most vertices an ne-edge connected pattern has
        res = dfs_run(g, ne + 1, leaf, budget, all_sizes=True)
        m.explored += res.explored
        m.canonicality += res.canonicality
        m.isomorphism += res.isomorphism
        domains = Counter((code, orb) for code, orb, _ in res.result)
        supports: dict[str, int] = {}
        for (code, _), n in domains.items():
            supports[code] = min(n, supports.get(code, n))
        freq = {c: s for c, s in supports.items() if s >= threshold}
        if ne >= 2:
            frequent_final.update(freq)
        allowed = set(freq)
        if not freq:
            break
    m.result = frequent_final
    return m


def _connected_eset(eset: frozenset[tuple[int, int]]) -> bool:
    vs = {v for e in eset for v in e}
    adj: dict[int, set[int]] = {}
    for a, b in eset:
        adj.setdefault(a, set()).add(b)
        adj.setdefault(b, set()).add(a)
    start = next(iter(vs))
    seen = {start}
    stack = [start]
    while stack:
        for w in adj[stack.pop()]:
            if w not in seen:
                seen.add(w)
                stack.append(w)
    return seen == vs


def _subcodes(eset, label_of, counters):
    """Codes of the (ne-1)-edge connected sub-embeddings — the
    anti-monotone check (each costs an isomorphism computation)."""
    out = []
    for e in eset:
        sub = frozenset(eset - {e})
        if sub and _connected_eset(sub):
            counters["isomorphism"] += 1
            code, _, _ = encode_labeled_edge_embedding(sub, label_of)
            out.append(code)
    return out