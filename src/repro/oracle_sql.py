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


def _step(plan: ExplorationPlan, i: int, po: set) -> str:
    """Step ``i`` of the plan's vertex order as one materialized CTE
    ``s{i}``: the previous step's rows ``m`` extended by vertex ``u`` =
    ``t.dst``, reached through an edge from ``u``'s first bound neighbour
    and one more ``edges`` alias per further bound neighbour, with every
    condition on ``u`` and the bound vertices."""
    p = plan.pattern
    bound = plan.vertex_order[:i]
    u = plan.vertex_order[i]

    def col(x: int) -> str:
        return new if x == u else f"m.v{x}"

    if not bound:
        new, select = "t.v", f"t.v AS v{u}"
        parts = ["(SELECT DISTINCT src AS v FROM edges) t"]
    else:
        new, select = "t.dst", f"m.*, t.dst AS v{u}"
        nbrs = [w for w in p.get_neighbors(u) if w in bound]
        parts = [f"s{i - 1} m JOIN edges t ON t.src = m.v{nbrs[0]}"]
        parts += [f"JOIN edges c{w} ON c{w}.src = m.v{w} AND c{w}.dst = t.dst"
                  for w in nbrs[1:]]
    if p.labels[u] is not None:
        parts.append(f"JOIN labels l ON l.v = {new} AND l.label = {p.labels[u]}")
    conds = []
    for a, b in po:
        if (a == u and b in bound) or (b == u and a in bound):
            conds.append(f"{col(a)} < {col(b)}")
    for w in bound:
        if not (p.are_connected(u, w) or (u, w) in po or (w, u) in po):
            conds.append(f"{new} <> m.v{w}")
        if p.are_anti_adjacent(u, w):
            conds.append("NOT EXISTS (SELECT 1 FROM edges x "
                         f"WHERE x.src = m.v{w} AND x.dst = {new})")
    where = (" WHERE " + " AND ".join(conds)) if conds else ""
    return f"s{i} AS MATERIALIZED (SELECT {select} FROM {' '.join(parts)}{where})"


def _anti_vertex_conditions(p: Pattern) -> list[str]:
    """No vertex outside the match is adjacent to all of an anti-vertex's
    anti-neighbours."""
    regs = sorted(p.regular_vertices)
    conds = []
    for av in sorted(p.anti_vertices):
        nbrs = p.get_anti_neighbors(av)
        inner = [f"x.src = m.v{nbrs[0]}"]
        for w in nbrs[1:]:
            inner.append(
                "EXISTS (SELECT 1 FROM edges y "
                f"WHERE y.src = m.v{w} AND y.dst = x.dst)"
            )
        inner.append("x.dst NOT IN (" + ", ".join(f"m.v{v}" for v in regs) + ")")
        conds.append(
            "NOT EXISTS (SELECT 1 FROM edges x WHERE " + " AND ".join(inner) + ")"
        )
    return conds


def matches_sql(
    pattern: Pattern,
    induced: bool = False,
    symmetry_breaking: bool = True,
    plan: Optional[ExplorationPlan] = None,
) -> str:
    """SQL enumerating match rows (columns ``v0..`` for regular
    vertices), one row per unique match under symmetry breaking.

    Each vertex of the plan's order is one ``MATERIALIZED`` CTE, so
    DuckDB keeps the plan's join order instead of reordering the joins
    into a star around a hub vertex."""
    plan = plan or generate_plan(pattern, induced=induced)
    p = plan.pattern
    po = set(plan.partial_orders) if symmetry_breaking else set()
    steps = ", ".join(_step(plan, i, po) for i in range(len(plan.vertex_order)))
    conds = _anti_vertex_conditions(p)
    where = (" WHERE " + " AND ".join(conds)) if conds else ""
    cols = ", ".join(f"m.v{u}" for u in sorted(p.regular_vertices))
    return (f"WITH {steps} SELECT {cols} "
            f"FROM s{len(plan.vertex_order) - 1} m{where}")


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
