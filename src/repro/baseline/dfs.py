"""Fractal-style depth-first enumeration baseline (§2.2, Table 4).

Fractal explores embeddings depth-first from every vertex, so it avoids
materializing whole BFS levels — but it is still pattern-unaware: it
enumerates *all* connected subgraphs of the target size and decides at
the leaves (clique test, isomorphism encode, pattern count) what each
one was. The explored/canonicality counters therefore track every
recursion node and extension-candidate test, which is what Figure 1b
shows for Fractal (e.g. 188x the 4-clique result size).

Implementation: one task per start vertex (``applyInPandas`` over a
repartitioned vertex table — Spark's dynamic scheduling stands in for
Fractal's work stealing), each task running the ESU (Wernicke)
connected-subgraph enumerator over a broadcast adjacency so every
k-vertex connected set is visited exactly once, at its minimum vertex.
"""
from __future__ import annotations

import pickle
from typing import Callable, Optional

import pandas as pd
from pyspark.errors import PythonException
from pyspark.sql import DataFrame

from ..core.pattern import Pattern
from .common import (
    BaselineMetrics,
    BudgetExceeded,
    adjacency_dict,
    count_pattern_in_set,
    encode_induced,
    encode_labeled_edge_embedding,
)

_BUDGET_DEFAULT = 3_000_000


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
    edges: DataFrame,
    edges_pdf: pd.DataFrame,
    k: int,
    make_leaf: Callable[[dict[int, frozenset], dict], Callable],
    finalize: Callable[[list[dict]], object],
    budget: Optional[int] = _BUDGET_DEFAULT,
    all_sizes: bool = False,
) -> BaselineMetrics:
    """Run a DFS enumeration app: ``make_leaf(adj, state)`` returns the
    per-leaf callback; per-partition ``state`` dicts are merged by
    ``finalize``. The first task to exceed its budget fails the Spark
    job, which stops every other task, and the run raises
    :class:`BudgetExceeded`."""
    spark = edges.sparkSession
    adj_b = spark.sparkContext.broadcast(adjacency_dict(edges_pdf))
    starts = edges.select("src").distinct().repartition(64, "src")

    def per_group(pdf_iter):
        # a BudgetExceeded raised here fails the task, and with it the job
        adj = adj_b.value
        counters = {"explored": 0, "canonicality": 0, "isomorphism": 0}
        state: dict = {}
        leaf = make_leaf(adj, state)
        for pdf in pdf_iter:
            for v in pdf["src"].tolist():
                _esu_from(
                    int(v), k, adj, lambda s: leaf(s, counters),
                    counters, budget, all_sizes=all_sizes,
                )
        yield pd.DataFrame(
            {
                "explored": [counters["explored"]],
                "canonicality": [counters["canonicality"]],
                "isomorphism": [counters["isomorphism"]],
                "state": [pickle.dumps(state)],
            }
        )

    try:
        out = starts.mapInPandas(
            per_group,
            schema="explored long, canonicality long, isomorphism long, state binary",
        ).collect()
    except PythonException as e:
        if BudgetExceeded.__name__ not in str(e):
            raise
        raise BudgetExceeded(
            f"a task explored more than its budget of {budget} embeddings"
        ) from None

    m = BaselineMetrics()
    states = []
    for r in out:
        m.explored += r["explored"]
        m.canonicality += r["canonicality"]
        m.isomorphism += r["isomorphism"]
        states.append(pickle.loads(r["state"]))
    m.result = finalize(states)
    return m


def _merge_counts(states: list[dict]) -> dict:
    out: dict = {}
    for s in states:
        for key, v in s.items():
            out[key] = out.get(key, 0) + v
    return out


def dfs_count_cliques(
    edges: DataFrame,
    edges_pdf: pd.DataFrame,
    k: int,
    budget: Optional[int] = _BUDGET_DEFAULT,
) -> BaselineMetrics:
    """Enumerate all connected k-sets; test the clique property at each
    leaf (native clique support — 0 isomorphism checks, Fig. 1b)."""

    def make_leaf(adj, state):
        state["count"] = 0

        def leaf(vs, counters):
            if all(
                vs[j] in adj.get(vs[i], ())
                for i in range(len(vs))
                for j in range(i + 1, len(vs))
            ):
                state["count"] += 1

        return leaf

    m = dfs_run(
        edges, edges_pdf, k, make_leaf,
        lambda states: sum(s.get("count", 0) for s in states),
        budget,
    )
    return m


def dfs_count_motifs(
    edges: DataFrame,
    edges_pdf: pd.DataFrame,
    k: int,
    budget: Optional[int] = _BUDGET_DEFAULT,
) -> BaselineMetrics:
    """Enumerate all connected k-sets; isomorphism-encode each leaf."""

    def make_leaf(adj, state):
        def leaf(vs, counters):
            counters["isomorphism"] += 1
            code = encode_induced(vs, adj)
            state[code] = state.get(code, 0) + 1

        return leaf

    return dfs_run(edges, edges_pdf, k, make_leaf, _merge_counts, budget)


def dfs_match_pattern(
    edges: DataFrame,
    edges_pdf: pd.DataFrame,
    pattern: Pattern,
    labels_pdf: Optional[pd.DataFrame] = None,
    budget: Optional[int] = _BUDGET_DEFAULT,
) -> BaselineMetrics:
    """Pattern matching the DFS way: enumerate all connected |V(p)|-sets
    and count the edge-induced matches inside each induced subgraph at
    the leaf (a per-leaf isomorphism computation)."""
    label_of = (
        None
        if labels_pdf is None
        else dict(zip(labels_pdf.v.astype(int), labels_pdf.label.astype(int)))
    )

    def make_leaf(adj, state):
        state["count"] = 0

        def leaf(vs, counters):
            counters["isomorphism"] += 1
            state["count"] += count_pattern_in_set(vs, adj, pattern, label_of)

        return leaf

    return dfs_run(
        edges, edges_pdf, pattern.n, make_leaf,
        lambda states: sum(s.get("count", 0) for s in states),
        budget,
    )


def dfs_fsm(
    edges: DataFrame,
    edges_pdf: pd.DataFrame,
    labels_pdf: pd.DataFrame,
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
    label_of = dict(zip(labels_pdf.v.astype(int), labels_pdf.label.astype(int)))
    m = BaselineMetrics()
    frequent_final: dict[str, int] = {}
    allowed: Optional[set[str]] = None  # frequent codes of previous size

    for ne in range(1, max_edges + 1):
        prev_allowed = allowed

        def make_leaf(adj, state):
            # enumerate edge-sets of size ne via connected vertex sets:
            # a leaf is a connected vertex set; expand to its edge
            # subsets of size ne that span it
            import itertools

            def leaf(vs, counters):
                pairs = [
                    (vs[i], vs[j])
                    for i in range(len(vs))
                    for j in range(i + 1, len(vs))
                    if vs[j] in adj.get(vs[i], ())
                ]
                for es in itertools.combinations(pairs, ne):
                    used = {v for e in es for v in e}
                    if len(used) != len(vs):
                        continue
                    eset = frozenset(
                        (min(a, b), max(a, b)) for a, b in es
                    )
                    if not _connected_eset(eset):
                        continue
                    counters["explored"] += 1
                    counters["isomorphism"] += 1
                    code, mapped, orbits = encode_labeled_edge_embedding(
                        eset, label_of
                    )
                    if prev_allowed is not None and not any(
                        sub in prev_allowed
                        for sub in _subcodes(eset, label_of, counters)
                    ):
                        continue
                    doms = state.setdefault(code, {})
                    for orb, v in zip(orbits, mapped):
                        doms.setdefault(orb, set()).add(v)

            return leaf

        def finalize(states):
            merged: dict[str, dict[int, set]] = {}
            for s in states:
                for code, doms in s.items():
                    tgt = merged.setdefault(code, {})
                    for orb, vs in doms.items():
                        tgt.setdefault(orb, set()).update(vs)
            return {
                code: min(len(vs) for vs in doms.values())
                for code, doms in merged.items()
            }

        nverts = ne + 1  # max vertices for an ne-edge connected pattern
        res = dfs_run(
            edges, edges_pdf, nverts, make_leaf, finalize, budget, all_sizes=True
        )
        m.explored += res.explored
        m.canonicality += res.canonicality
        m.isomorphism += res.isomorphism
        supports: dict[str, int] = res.result  # type: ignore[assignment]
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