"""Pattern-aware matching engine compiled to DataFrame joins (§4, §5).

The exploration plan is compiled into a Catalyst join DAG over a
symmetric edge table ``edges(src, dst)`` (both directions present, no
self loops, distinct):

* matching a pattern edge  → inner self-join on ``edges``
  (adjacency-list intersection ≡ join on two bound columns);
* symmetry-breaking partial order ``a < b`` → ``col(va) < col(vb)``
  predicate (the paper's ordered candidate-set range);
* anti-edge → ``left_anti`` join against ``edges`` (set difference);
* anti-vertex → witness join (common neighbor of the matched neighbors,
  outside the match) followed by a ``left_anti`` join;
* vertex label → inner join with the ``labels(v, label)`` table.

Because the DAG is derived from the plan, every produced row *is* a
match and each unique subgraph appears exactly once — no per-row
canonicality or isomorphism checks, the paper's core claim.

``symmetry_breaking=False`` is **PRG-U** (Figure 10): the order
predicates are dropped, every automorphic copy is produced, and counts
are recovered by dividing by ``|Aut(p)|`` — modelling systems that are
not fully pattern-aware (AutoMine-style).
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from pyspark.sql import DataFrame, functions as F

from .pattern import Pattern
from .plan import ExplorationPlan, generate_plan


def _c(v: int) -> str:
    return f"v{v}"


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
    po = set(plan.partial_orders) if symmetry_breaking else set()

    if labels is None and any(
        p.labels[v] is not None for v in p.regular_vertices
    ):
        raise ValueError("pattern has labels but no label table was given")

    df: Optional[DataFrame] = None
    bound: list[int] = []
    for u in order:
        df = _bind_vertex(df, edges, p, u, bound, po)
        if labels is not None and p.labels[u] is not None:
            lab = labels.where(F.col("label") == F.lit(p.labels[u])).select(
                F.col("v").alias(_c(u))
            )
            df = df.join(lab, on=_c(u), how="inner")
        bound.append(u)
    assert df is not None

    for av in sorted(p.anti_vertices):
        df = _apply_anti_vertex(df, edges, p, av, bound)
    return df.select(*[_c(v) for v in sorted(p.regular_vertices)])


def _bind_vertex(
    df: Optional[DataFrame],
    edges: DataFrame,
    p: Pattern,
    u: int,
    bound: list[int],
    po: set[tuple[int, int]],
) -> DataFrame:
    """Join vertex ``u`` into the partial match ``df`` (None = empty)."""
    nbrs = [w for w in p.get_neighbors(u) if w in bound]
    if df is None:
        # first vertex: every endpoint in the edge table (patterns are
        # connected, so an isolated data vertex can never match)
        return edges.select(F.col("src").alias(_c(u))).distinct()
    assert nbrs, "join order guarantees a bound neighbor"
    # first bound neighbor generates candidates; the rest filter them
    first, rest = nbrs[0], nbrs[1:]
    e = edges.select(
        F.col("src").alias(_c(first) + "__j"), F.col("dst").alias(_c(u))
    )
    df = df.join(e, df[_c(first)] == e[_c(first) + "__j"], "inner").drop(
        _c(first) + "__j"
    )
    for w in rest:
        e = edges.select(
            F.col("src").alias(_c(w) + "__j"), F.col("dst").alias(_c(u) + "__j")
        )
        df = df.join(
            e,
            (df[_c(w)] == e[_c(w) + "__j"]) & (df[_c(u)] == e[_c(u) + "__j"]),
            "inner",
        ).drop(_c(w) + "__j", _c(u) + "__j")
    # symmetry-breaking partial orders between u and bound vertices
    for a, b in po:
        if a == u and b in bound:
            df = df.where(F.col(_c(a)) < F.col(_c(b)))
        elif b == u and a in bound:
            df = df.where(F.col(_c(a)) < F.col(_c(b)))
    # injectivity for bound vertices not adjacent to u (adjacency or an
    # order predicate already implies distinctness otherwise)
    for w in bound:
        if w in nbrs:
            continue
        if (u, w) in po or (w, u) in po:
            continue
        df = df.where(F.col(_c(u)) != F.col(_c(w)))
    # anti-edges between u and bound vertices: set difference = anti-join
    for w in bound:
        if p.are_anti_adjacent(u, w) and w not in p.anti_vertices:
            e = edges.select(
                F.col("src").alias(_c(w) + "__a"), F.col("dst").alias(_c(u) + "__a")
            )
            df = df.join(
                e,
                (df[_c(w)] == e[_c(w) + "__a"]) & (df[_c(u)] == e[_c(u) + "__a"]),
                "left_anti",
            )
    return df


def _apply_anti_vertex(
    df: DataFrame, edges: DataFrame, p: Pattern, av: int, bound: list[int]
) -> DataFrame:
    """Remove matches that have a witness: a data vertex outside the
    match adjacent to every matched anti-neighbor of ``av`` (§4.3,
    checked after all regular vertices are matched)."""
    nbrs = [w for w in p.get_anti_neighbors(av) if w not in p.anti_vertices]
    assert nbrs
    first, rest = nbrs[0], nbrs[1:]
    e = edges.select(F.col("src").alias(_c(first) + "__w"), F.col("dst").alias("__w"))
    wit = df.join(e, df[_c(first)] == e[_c(first) + "__w"], "inner").drop(
        _c(first) + "__w"
    )
    for w in rest:
        e = edges.select(
            F.col("src").alias(_c(w) + "__w"), F.col("dst").alias("__w2")
        )
        wit = wit.join(
            e,
            (wit[_c(w)] == e[_c(w) + "__w"]) & (wit["__w"] == e["__w2"]),
            "inner",
        ).drop(_c(w) + "__w", "__w2")
    for v in bound:
        wit = wit.where(F.col("__w") != F.col(_c(v)))
    cols = [_c(v) for v in bound]
    bad = wit.select(*cols).distinct()
    return df.join(bad, on=cols, how="left_anti")


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

