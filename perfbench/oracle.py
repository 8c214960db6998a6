"""Expected answers for one workload and seed, computed with DuckDB.

Run as its own process before the Spark session starts, so its memory
and CPU never mix with the measured engine:

    python3 perfbench/oracle.py --workload census --seed 1

prints ``{"answers": {query name: answer}, "tau": {query name: tau}}``.

The SQL here is compiled independently of the engine and of
``repro.oracle_sql``: every injective map of the pattern is enumerated
(no symmetry breaking) and divided by the automorphism count, which is
found by brute force. FSM supports come from the same maps, grouped per
canonical labeled pattern and canonical vertex.
"""
from __future__ import annotations

import argparse
import itertools
import json
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def canon(n: int, edges, labels) -> tuple[str, tuple[int, ...]]:
    """Canonical key of a small labeled graph, and the permutation
    (old vertex -> canonical vertex) that produces it."""
    best = None
    for perm in itertools.permutations(range(n)):
        inv = [0] * n
        for v, c in enumerate(perm):
            inv[c] = v
        enc = (
            tuple(sorted(tuple(sorted((perm[a], perm[b]))) for a, b in edges)),
            tuple(labels[inv[c]] for c in range(n)),
        )
        if best is None or enc < best[0]:
            best = (enc, perm)
    return json.dumps(best[0]), best[1]


def _regular(p) -> list[int]:
    return [v for v in range(p.n) if v not in p.anti_vertices]


def _anti_pairs(p, induced: bool) -> set[tuple[int, int]]:
    regs = _regular(p)
    anti = {(a, b) for a, b in p.anti_edges if a in regs and b in regs}
    if induced:
        anti |= {e for e in itertools.combinations(regs, 2) if e not in p.edges}
    return anti


def automorphisms(p, induced: bool = False) -> int:
    regs = _regular(p)
    anti = _anti_pairs(p, induced)
    av_nbrs = sorted(
        tuple(sorted(w for e in p.anti_edges if av in e for w in e if w != av))
        for av in p.anti_vertices
    )
    count = 0
    for img in itertools.permutations(regs):
        s = dict(zip(regs, img))
        norm = lambda es: {tuple(sorted((s[a], s[b]))) for a, b in es}  # noqa: E731
        if (
            norm(p.edges) == set(p.edges)
            and norm(anti) == anti
            and all(p.labels[v] == p.labels[s[v]] for v in regs)
            and sorted(tuple(sorted(s[w] for w in nb)) for nb in av_nbrs) == av_nbrs
        ):
            count += 1
    return count


def maps_sql(p, induced: bool = False) -> str:
    """SELECT of every injective map of ``p``'s regular vertices (columns
    ``v0..``) satisfying edges, anti-edges, labels and anti-vertices."""
    regs = _regular(p)
    adj = {v: set() for v in regs}
    for a, b in p.edges:
        adj[a].add(b)
        adj[b].add(a)
    order, parent = [regs[0]], {}
    for v in order:
        for w in sorted(adj[v]):
            if w != regs[0] and w not in parent:
                parent[w] = v
                order.append(w)
    # Written join order = execution order (the join-order optimizer is
    # off): each vertex joins through its BFS parent, then every other
    # edge to an already bound vertex filters at once.
    col = {order[0]: "e0.src", order[1]: "e0.dst"}
    frm = ["edges e0"]
    for i, u in enumerate(order[1:], 1):
        if i > 1:
            frm.append(f"JOIN edges e{i} ON e{i}.src = {col[parent[u]]}")
            col[u] = f"e{i}.dst"
        for w in order[:i]:
            if w != parent[u] and w in adj[u]:
                frm.append(f"JOIN edges x{u}_{w} ON x{u}_{w}.src = {col[w]} AND x{u}_{w}.dst = {col[u]}")
    for u in regs:
        if p.labels[u] is not None:
            frm.append(f"JOIN labels l{u} ON l{u}.v = {col[u]} AND l{u}.label = {p.labels[u]}")
    conds = [
        f"{col[a]} <> {col[b]}"
        for a, b in itertools.combinations(regs, 2)
        if (a, b) not in p.edges
    ]
    for j, (a, b) in enumerate(sorted(_anti_pairs(p, induced))):
        conds.append(
            f"NOT EXISTS (SELECT 1 FROM edges a{j} "
            f"WHERE a{j}.src = {col[a]} AND a{j}.dst = {col[b]})"
        )
    for k, av in enumerate(sorted(p.anti_vertices)):
        nbrs = sorted(w for e in p.anti_edges if av in e for w in e if w != av)
        joins = "".join(
            f" JOIN edges w{k}_{i} ON w{k}_{i}.dst = w{k}_0.dst" for i in range(1, len(nbrs))
        )
        where = [f"w{k}_{i}.src = {col[w]}" for i, w in enumerate(nbrs)]
        where.append(f"w{k}_0.dst NOT IN ({', '.join(col[v] for v in regs)})")
        conds.append(
            f"NOT EXISTS (SELECT 1 FROM edges w{k}_0{joins} WHERE {' AND '.join(where)})"
        )
    select = ", ".join(f"{col[v]} AS v{v}" for v in regs)
    where = f" WHERE {' AND '.join(conds)}" if conds else ""
    return f"SELECT {select} FROM {' '.join(frm)}{where}"


class Oracle:
    """DuckDB view of one generated graph."""

    def __init__(self, graph):
        import duckdb

        self.con = duckdb.connect()
        self.con.execute("SET threads = 4")
        self.con.execute("SET disabled_optimizers = 'join_order'")
        self.con.register("edges", graph.edges_pdf)
        if graph.labels_pdf is not None:
            self.con.register("labels", graph.labels_pdf)

    def count(self, p, induced: bool = False) -> int:
        maps = self.con.execute(f"SELECT count(*) FROM ({maps_sql(p, induced)})").fetchone()[0]
        aut = automorphisms(p, induced)
        if maps % aut:
            raise RuntimeError(f"{maps} maps not divisible by |Aut| = {aut}")
        return maps // aut

    def labeled_supports(self, shape) -> dict[str, int]:
        """MNI support of every fully labeled pattern realised on
        ``shape``: canonical key -> support."""
        k = shape.n
        lab = " ".join(f"JOIN labels l{u} ON l{u}.v = m.v{u}" for u in range(k))
        lcols = ", ".join(f"l{u}.label AS l{u}" for u in range(k))
        self.con.execute(
            f"CREATE OR REPLACE TEMP TABLE lm AS SELECT m.*, {lcols} "
            f"FROM ({maps_sql(shape)}) m {lab}"
        )
        tuples = self.con.execute(
            f"SELECT DISTINCT {', '.join(f'l{u}' for u in range(k))} FROM lm"
        ).fetchall()
        keys: dict[str, int] = {}
        rows = []
        for t in tuples:
            key, perm = canon(k, shape.edges, t)
            kid = keys.setdefault(key, len(keys))
            rows += [(*t, u, kid, perm[u]) for u in range(k)]
        import pandas as pd

        cols = [f"l{u}" for u in range(k)]
        self.con.register("pos_map", pd.DataFrame(rows, columns=cols + ["pos", "kid", "cv"]))
        unpivot = " UNION ALL ".join(
            f"SELECT {', '.join(cols)}, {u} AS pos, v{u} AS v FROM lm" for u in range(k)
        )
        doms = self.con.execute(
            f"SELECT kid, cv, count(DISTINCT v) FROM ({unpivot}) JOIN pos_map "
            f"USING ({', '.join(cols)}, pos) GROUP BY kid, cv"
        ).fetchall()
        by_kid: dict[int, int] = {}
        for kid, _, dom in doms:
            by_kid[kid] = min(by_kid.get(kid, dom), dom)
        return {key: by_kid[kid] for key, kid in keys.items()}


def expected(workload: str, seed: int) -> dict:
    from repro.core.mining import motif_name
    from repro.core.pattern import clique, generate_all_edge_induced, generate_all_vertex_induced, star
    from repro.patterns_eval import EVAL_PATTERNS
    from workloads import WORKLOADS

    wl = WORKLOADS[workload]
    oracles = {g.key: Oracle(g.generate(seed)) for g in wl.graphs}
    answers, tau = {}, {}
    supports: dict[tuple[str, int], dict[str, int]] = {}
    for q in wl.queries:
        o = oracles[q.graph]
        if q.name in answers:
            continue
        if q.kind == "motifs":
            ans = {motif_name(p): o.count(p, induced=True) for p in generate_all_vertex_induced(q.arg)}
        elif q.kind == "cliques":
            ans = o.count(clique(q.arg))
        elif q.kind == "match":
            ans = o.count(EVAL_PATTERNS[q.arg])
        elif q.kind == "cc_exceeds":
            wedges = o.count(star(3))
            ans = wedges > 0 and o.count(clique(3)) * 3.0 > q.arg * wedges
        elif q.kind == "exists_clique":
            ans = o.count(clique(q.arg)) > 0
        elif q.kind == "fsm":
            for ne in range(2, q.max_edges + 1):
                if (q.graph, ne) not in supports:
                    supports[q.graph, ne] = {
                        k: s for shape in generate_all_edge_induced(ne)
                        for k, s in o.labeled_supports(shape).items()
                    }
            levels = [supports[q.graph, ne] for ne in range(2, q.max_edges + 1)]
            ranked = sorted((s for lv in levels for s in lv.values()), reverse=True)
            t = ranked[min(q.tau_rank, len(ranked)) - 1]
            ans = {}
            for lv in levels:  # anti-monotone stop, as in mining.fsm
                found = {k: s for k, s in lv.items() if s >= t}
                ans.update(found)
                if not found:
                    break
            tau[q.name] = t
        else:
            raise ValueError(f"unknown query kind {q.kind!r}")
        answers[q.name] = ans
    return {"answers": answers, "tau": tau}


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    args = ap.parse_args()
    sys.path.insert(0, str(ROOT / "src"))
    print(json.dumps(expected(args.workload, args.seed)))


if __name__ == "__main__":
    main()
