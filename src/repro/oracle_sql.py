"""Compile a :class:`Pattern` to DuckDB SQL for the correctness oracle.

``count_sql(p)`` / ``matches_sql(p)`` produce SQL over a symmetric
``edges(src, dst)`` table (and optional ``labels(v, label)`` table) that
counts / enumerates exactly the unique matches the Peregrine engine
produces: same symmetry-breaking partial orders, same anti-edge /
anti-vertex / label semantics, same Theorem 3.1 vertex-induced rewrite.

Every test that checks an engine result runs this SQL through
``repro.oracle.assert_equivalent`` so a wrong engine plan is caught against
an independent executor (DuckDB), not just against "it ran".
"""
from __future__ import annotations

from typing import Optional

from .core.pattern import Pattern
from .core.plan import ExplorationPlan, generate_plan


def _conditions(plan: ExplorationPlan, symmetry_breaking: bool = True) -> list[str]:
    p = plan.pattern
    order = plan.vertex_order
    conds: list[str] = []
    bound: list[int] = []
    po = set(plan.partial_orders) if symmetry_breaking else set()
    for u in order:
        nbrs = [w for w in p.get_neighbors(u) if w in bound]
        # adjacency beyond the spanning join in the FROM clause
        for w in nbrs[1:]:
            conds.append(
                f"EXISTS (SELECT 1 FROM edges x WHERE x.src = m.v{w} AND x.dst = m.v{u})"
            )
        for a, b in po:
            if (a == u and b in bound) or (b == u and a in bound):
                conds.append(f"m.v{a} < m.v{b}")
        for w in bound:
            if w in nbrs or (u, w) in po or (w, u) in po:
                continue
            conds.append(f"m.v{u} <> m.v{w}")
        for w in bound:
            if p.are_anti_adjacent(u, w) and w not in p.anti_vertices:
                conds.append(
                    "NOT EXISTS (SELECT 1 FROM edges x "
                    f"WHERE x.src = m.v{w} AND x.dst = m.v{u})"
                )
        bound.append(u)
    for av in sorted(p.anti_vertices):
        nbrs = [w for w in p.get_anti_neighbors(av) if w not in p.anti_vertices]
        inner = [f"x.src = m.v{nbrs[0]}"]
        for w in nbrs[1:]:
            inner.append(
                "EXISTS (SELECT 1 FROM edges y "
                f"WHERE y.src = m.v{w} AND y.dst = x.dst)"
            )
        inner.append(
            "x.dst NOT IN (" + ", ".join(f"m.v{v}" for v in bound) + ")"
        )
        conds.append(
            "NOT EXISTS (SELECT 1 FROM edges x WHERE " + " AND ".join(inner) + ")"
        )
    return conds


def _from_clause(plan: ExplorationPlan) -> str:
    """Spanning join over the vertex order: each vertex after the first
    is introduced through an edge from its first bound neighbor, and
    each labeled vertex joins the label table."""
    p = plan.pattern
    order = plan.vertex_order
    v0 = order[0]
    parts = [f"(SELECT DISTINCT src AS v FROM edges) b0"]
    exprs = {v0: "b0.v"}
    for u in order[1:]:
        first = next(w for w in p.get_neighbors(u) if w in exprs)
        parts.append(f"JOIN edges t{u} ON t{u}.src = {exprs[first]}")
        exprs[u] = f"t{u}.dst"
    for u in order:
        if p.labels[u] is not None:
            parts.append(
                f"JOIN labels l{u} ON l{u}.v = {exprs[u]} AND l{u}.label = {p.labels[u]}"
            )
    select = ", ".join(
        f"{exprs[u]} AS v{u}" for u in sorted(exprs)
    )
    return f"SELECT {select} FROM " + " ".join(parts)


def matches_sql(
    pattern: Pattern,
    induced: bool = False,
    symmetry_breaking: bool = True,
    plan: Optional[ExplorationPlan] = None,
) -> str:
    """SQL enumerating match rows (columns ``v0..`` for regular
    vertices), one row per unique match under symmetry breaking."""
    plan = plan or generate_plan(pattern, induced=induced)
    conds = _conditions(plan, symmetry_breaking)
    where = (" WHERE " + " AND ".join(conds)) if conds else ""
    cols = ", ".join(f"m.v{u}" for u in sorted(plan.pattern.regular_vertices))
    return f"SELECT {cols} FROM ({_from_clause(plan)}) m{where}"


def count_sql(
    pattern: Pattern,
    induced: bool = False,
    symmetry_breaking: bool = True,
) -> str:
    """SQL producing a single row ``cnt`` = number of matches (all
    automorphic copies when ``symmetry_breaking=False``)."""
    return f"SELECT count(*) AS cnt FROM ({matches_sql(pattern, induced, symmetry_breaking)})"


def _vertex_orbits(p: Pattern) -> list[tuple[int, ...]]:
    """Orbits of the regular vertices under ``Aut(p)`` — symmetric
    positions share an MNI domain."""
    autos = p.automorphisms()
    seen: set[int] = set()
    orbits = []
    for v in p.regular_vertices:
        if v in seen:
            continue
        orb = tuple(sorted({a[v] for a in autos}))
        seen.update(orb)
        orbits.append(orb)
    return orbits


def mni_support_sql(pattern: Pattern, induced: bool = False) -> str:
    """SQL producing a single row ``support`` = MNI support: the minimum
    over automorphism orbits of the distinct-vertex count of the orbit's
    match columns. The match table is scanned once, unnested into
    ``(orbit, vertex)`` rows and grouped by orbit."""
    plan = generate_plan(pattern, induced=induced)
    base = matches_sql(pattern, induced, plan=plan)
    orbit = {u: i for i, orb in enumerate(_vertex_orbits(plan.pattern)) for u in orb}
    us = sorted(orbit)
    pairs = (
        f"SELECT unnest([{', '.join(str(orbit[u]) for u in us)}]) AS o, "
        f"unnest([{', '.join(f'v{u}' for u in us)}]) AS v FROM ({base})"
    )
    return (
        "SELECT coalesce(min(c), 0) AS support FROM "
        f"(SELECT count(DISTINCT v) AS c FROM ({pairs}) GROUP BY o)"
    )
