"""Pattern-aware matching engine compiled to adjacency-array set
operations (§4.3, §5.1).

The exploration plan is compiled into one DataFrame pipeline over
``adj(src, nb)``: every data vertex with its sorted neighbour array,
built once per call from a symmetric edge table ``edges(src, dst)``
(both directions present, no self loops, distinct). Vertices are bound
in the plan's vertex order:

* the first vertex → every row of ``adj`` (patterns are connected, so an
  isolated data vertex can never match);
* each later vertex ``u`` → candidates are the ``array_intersect`` of
  its bound neighbours' arrays (adjacency-list intersection), minus the
  ``array_except`` of each bound anti-neighbour's array (set difference);
* symmetry-breaking partial order ``a < b`` and injectivity → one
  ``filter`` lambda over the candidates (the paper's ordered
  candidate-set range), then ``explode`` binds ``u``;
* vertex label → inner join with the ``labels(v, label)`` table;
* anti-vertex → one test: no common neighbour of its matched
  anti-neighbours lies outside the match.

``adj`` is joined in only for the vertices whose array a later step
reads. Because the pipeline is derived from the plan, every produced row
*is* a match and each unique subgraph appears exactly once — no per-row
canonicality or isomorphism checks, the paper's core claim.

``symmetry_breaking=False`` is **PRG-U** (Figure 10): the order
predicates are dropped, every automorphic copy is produced, and counts
are recovered by dividing by ``|Aut(p)|`` — modelling systems that are
not fully pattern-aware (AutoMine-style).
"""
from __future__ import annotations

import functools
import operator
from dataclasses import dataclass
from typing import Optional

from pyspark.sql import DataFrame, functions as F

from .pattern import Pattern
from .plan import ExplorationPlan, generate_plan


def _c(v: int) -> str:
    return f"v{v}"


def _nb(v: int) -> str:
    return f"nb{v}"


@dataclass
class MatchStats:
    """Peregrine-side instrumentation for the Figure 1b/1c comparison:
    a pattern-aware engine explores only final matches (it has no
    per-match canonicality or isomorphism computation to count)."""

    matches_explored: int = 0


def match_df(
    edges: DataFrame,
    pattern: Pattern,
    labels: Optional[DataFrame] = None,
    induced: bool = False,
    symmetry_breaking: bool = True,
    plan: Optional[ExplorationPlan] = None,
) -> DataFrame:
    """Matches of ``pattern`` as a DataFrame with one column per regular
    pattern vertex (``v0..``). With symmetry breaking each unique
    subgraph yields exactly one row; without it, ``|Aut|`` rows."""
    plan = plan or generate_plan(pattern, induced=induced)
    p = plan.pattern
    order = plan.vertex_order
    po = plan.partial_orders if symmetry_breaking else ()

    if labels is None and any(
        p.labels[v] is not None for v in p.regular_vertices
    ):
        raise ValueError("pattern has labels but no label table was given")

    adj = edges.groupBy("src").agg(F.array_sort(F.collect_list("dst")).alias("nb"))
    anti_nbrs = [
        [w for w in p.get_anti_neighbors(av) if w not in p.anti_vertices]
        for av in sorted(p.anti_vertices)
    ]
    read = {w for ws in anti_nbrs for w in ws} | {
        w
        for i, u in enumerate(order)
        for w in order[:i]
        if p.are_connected(u, w) or p.are_anti_adjacent(u, w)
    }

    df = adj.select(F.col("src").alias(_c(order[0])), F.col("nb").alias(_nb(order[0])))
    for i, u in enumerate(order):
        bound = order[:i]
        if bound:
            nbrs = [w for w in bound if p.are_connected(u, w)]
            cand = functools.reduce(
                F.array_intersect, [F.col(_nb(w)) for w in nbrs]
            )
            for w in bound:
                if p.are_anti_adjacent(u, w):
                    cand = F.array_except(cand, F.col(_nb(w)))
            # partial orders, and injectivity towards bound vertices that
            # neither adjacency nor an order already keeps apart
            conds = [(a, b) for a, b in po if u in (a, b) and {a, b} <= {u, *bound}]
            apart = [
                w for w in bound
                if w not in nbrs and (u, w) not in po and (w, u) not in po
            ]
            if conds or apart:
                def keep(x):
                    col = {w: F.col(_c(w)) for w in bound} | {u: x}
                    tests = [col[a] < col[b] for a, b in conds]
                    return functools.reduce(
                        operator.and_, tests + [x != col[w] for w in apart]
                    )

                cand = F.filter(cand, keep)
            df = df.select("*", F.explode(cand).alias(_c(u)))
        if labels is not None and p.labels[u] is not None:
            lab = labels.where(F.col("label") == F.lit(p.labels[u])).select(
                F.col("v").alias(_c(u))
            )
            df = df.join(lab, on=_c(u), how="inner")
        if bound and u in read:
            nb = adj.select(F.col("src").alias(_c(u)), F.col("nb").alias(_nb(u)))
            df = df.join(nb, on=_c(u), how="inner")

    # anti-vertex: no common neighbour of its anti-neighbours outside the match
    match = F.array(*[F.col(_c(v)) for v in order])
    for ws in anti_nbrs:
        common = functools.reduce(F.array_intersect, [F.col(_nb(w)) for w in ws])
        df = df.where(F.size(F.array_except(common, match)) == 0)
    return df.select(*[_c(v) for v in sorted(p.regular_vertices)])


def count_matches(
    edges: DataFrame,
    pattern: Pattern,
    labels: Optional[DataFrame] = None,
    induced: bool = False,
    symmetry_breaking: bool = True,
    stats: Optional[MatchStats] = None,
) -> int:
    """Number of unique matches. Without symmetry breaking the engine
    produces every automorphic copy and divides by ``|Aut|`` — exact,
    since each subgraph appears exactly ``|Aut(p)|`` times."""
    plan = generate_plan(pattern, induced=induced)
    df = match_df(
        edges, pattern, labels, induced, symmetry_breaking, plan=plan
    )
    raw = df.count()
    if symmetry_breaking:
        n = raw
    else:
        assert raw % plan.num_automorphisms == 0, (
            raw,
            plan.num_automorphisms,
        )
        n = raw // plan.num_automorphisms
    if stats is not None:
        stats.matches_explored += raw
    return n
