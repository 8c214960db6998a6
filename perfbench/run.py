"""Mining-query benchmark: seeded workloads against ``repro.core.mining``.

Run from the repository root:

    python3 perfbench/run.py --workload census --seed 1 --seconds 15 --trace 0

One closed-loop client sends the next query only after the previous one
returns. A pass is one run through the workload's query list, in the
order the seed gives it; passes repeat while another one fits in
``--seconds`` (at least one).
With ``--trace 1`` the same passes run instrumented and the per-layer
metrics come from them. Expected answers come
from ``perfbench/oracle.py`` (DuckDB), computed before the session starts.

The last line of stdout is one JSON object: ``correct``, ``attempted``,
``failed`` and ``metrics`` (end-to-end with ``--trace 0``, per-layer with
``--trace 1``). The line before it records the environment and details.
Exit status is 1 if any answer is wrong or any query raised.
"""
from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shlex
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = ROOT / ".bench_out"
CORES = min(2, os.cpu_count() or 1)
DRIVER_MEM = "2g"
SETUP_REPS = 3
RECORDED_CONFS = (
    "spark.master",
    "spark.driver.memory",
    "spark.sql.shuffle.partitions",
    "spark.sql.autoBroadcastJoinThreshold",
    "spark.sql.execution.arrow.pyspark.enabled",
    "spark.sql.adaptive.enabled",
    "spark.ui.enabled",
    "spark.ui.showConsoleProgress",
)


def _submit_args() -> str:
    """Spark launch flags: pinned master, quiet console, and every
    scratch directory inside the checkout."""
    tmp = OUT / "tmp"
    java_opts = f"-XX:-UsePerfData -Djava.io.tmpdir={tmp}"
    return " ".join([
        "--master", f"local[{CORES}]",
        "--driver-memory", DRIVER_MEM,
        "--driver-java-options", shlex.quote(java_opts),
        "--conf", "spark.driver.host=127.0.0.1",
        "--conf", "spark.ui.enabled=false",
        "--conf", "spark.ui.showConsoleProgress=false",
        "--conf", shlex.quote(f"spark.local.dir={OUT / 'spark-local'}"),
        "--conf", shlex.quote(f"spark.sql.warehouse.dir={OUT / 'warehouse'}"),
        "pyspark-shell",
    ])


# -- answers --------------------------------------------------------------
def run_query(q, graphs, tau):
    """Call the app through the ``mining`` module, so trace wrappers see it."""
    from repro.core import mining
    from repro.patterns_eval import EVAL_PATTERNS

    g = graphs[q.graph]
    if q.kind == "motifs":
        return mining.count_motifs(g.edges, q.arg)
    if q.kind == "cliques":
        return mining.count_cliques(g.edges, q.arg)
    if q.kind == "match":
        p = EVAL_PATTERNS[q.arg]
        labels = g.labels if any(x is not None for x in p.labels) else None
        return mining.match_pattern(g.edges, p, labels=labels)
    if q.kind == "cc_exceeds":
        return mining.cc_exceeds(g.edges, q.arg)
    if q.kind == "exists_clique":
        return mining.exists_clique(g.edges, q.arg)
    if q.kind == "fsm":
        return mining.fsm(g.edges, g.labels, tau[q.name], max_edges=q.max_edges)
    raise ValueError(f"unknown query kind {q.kind!r}")


def normalise(q, answer):
    """Engine answer in the oracle's JSON form."""
    if q.kind == "fsm":
        from oracle import canon

        return {canon(p.n, p.edges, p.labels)[0]: s for p, s in answer.frequent.items()}
    return answer


def matches_of(q, answer) -> int:
    """Matches an answer reports: a count, the sum of a census, or the
    number of frequent patterns of an FSM answer; 0 for yes/no answers."""
    if q.kind == "fsm":
        return len(answer)
    if isinstance(answer, dict):
        return sum(answer.values())
    return 0 if isinstance(answer, bool) else int(answer)


def expected_answers(workload: str, seed: int):
    """The oracle's answers, computed once per seed in their own process
    (off the clock) and cached under .bench_out, keyed by the sources
    that determine them."""
    sources = [HERE / "oracle.py", HERE / "workloads.py", ROOT / "src/repro/graph/gengraph.py",
               ROOT / "src/repro/core/pattern.py", ROOT / "src/repro/core/mining.py",
               ROOT / "src/repro/patterns_eval.py"]
    key = hashlib.sha256(b"".join(p.read_bytes() for p in sources)).hexdigest()[:16]
    cache = OUT / "expected" / f"{workload}-seed{seed}-{key}.json"
    if cache.is_file():
        return json.loads(cache.read_text())
    res = subprocess.run(
        [sys.executable, str(HERE / "oracle.py"), "--workload", workload, "--seed", str(seed)],
        capture_output=True, text=True, timeout=150,
    )
    if res.returncode != 0:
        print(res.stderr, file=sys.stderr)
        return None
    cache.parent.mkdir(parents=True, exist_ok=True)
    cache.write_text(res.stdout.strip().splitlines()[-1])
    return json.loads(cache.read_text())


# -- set-up ---------------------------------------------------------------
def setup_once(spark, wl, seed):
    """Session start, graph generation, load and one warm-up query per
    graph. Returns (spark, graphs, timings)."""
    from jobs._session import get_session
    from repro.core import mining
    from repro.harness import SparkGraph

    t0 = time.perf_counter()
    if spark is not None:
        spark.stop()
    spark = get_session("perfbench")
    t1 = time.perf_counter()
    gs = {g.key: g.generate(seed) for g in wl.graphs}
    t2 = time.perf_counter()
    graphs = {k: SparkGraph.load(spark, g) for k, g in gs.items()}
    t3 = time.perf_counter()
    for sg in graphs.values():
        mining.count_cliques(sg.edges, 3)
    t4 = time.perf_counter()
    return spark, graphs, {
        "session_s": t1 - t0, "gen_s": t2 - t1, "load_s": t3 - t2,
        "warmup_s": t4 - t3, "total_s": t4 - t0,
    }


# -- measurement ----------------------------------------------------------
def run_pass(n, queries, graphs, tau, sc, acct=None, tracer=None):
    """Pass ``n`` over ``queries``; returns (wall seconds, per-query records).
    Each query runs in a job group of its own, unique across passes."""
    records = []
    t0 = time.perf_counter()
    for i, q in enumerate(queries):
        group = f"p{n}:q{i}:{q.name}"
        if acct is not None:
            c = time.perf_counter()
            acct.begin(group)
            begin_s = time.perf_counter() - c
            tracer.query = group
            first_span = len(tracer.spans)
        else:
            sc.setJobGroup(group, group)
        rec = {"query": q.name}
        s = time.perf_counter()
        try:
            rec["answer"] = run_query(q, graphs, tau)
        except Exception as exc:  # a failed query is counted, not fatal
            rec["error"] = f"{type(exc).__name__}: {exc}"
        rec["latency_s"] = time.perf_counter() - s
        if acct is not None:
            tracer.query = None
            spans = tracer.spans[first_span:]
            actions = [(sp.start, sp.end) for sp in spans
                       if sp.layer == "spark" and (sp.parent is None
                                                   or tracer.spans[sp.parent].layer != "spark")]
            c = time.perf_counter()
            rec["spark"] = acct.end(group, actions)
            rec["collector_s"] = time.perf_counter() - c + begin_s
            rec["spans"] = (first_span, len(tracer.spans))
        records.append(rec)
    return time.perf_counter() - t0, records


def measure(queries, graphs, tau, sc, seconds, pids, acct=None, tracer=None):
    """Passes while another one fits in ``seconds`` (at least one).
    Returns the passes and the CPU seconds ``pids`` used in each."""
    passes, cpu = [], []
    t0 = time.perf_counter()
    while True:
        c0 = _cpu_s(pids)
        n = len(passes)
        if tracer is None:
            passes.append(run_pass(n, queries, graphs, tau, sc))
        else:
            with tracer.instrumented():
                passes.append(run_pass(n, queries, graphs, tau, sc, acct, tracer))
        cpu.append(_cpu_s(pids) - c0)
        if time.perf_counter() - t0 + passes[-1][0] > seconds:
            return passes, cpu


# -- memory ---------------------------------------------------------------
def _reset_hwm(pids) -> None:
    """Reset each process's peak RSS so the peak covers the passes only."""
    for pid in pids:
        try:
            Path(f"/proc/{pid}/clear_refs").write_text("5")
        except OSError:
            pass


def _cpu_s(pids) -> float:
    """User + system CPU seconds used so far by ``pids``."""
    total = 0
    for pid in pids:
        fields = Path(f"/proc/{pid}/stat").read_text().rsplit(")", 1)[1].split()
        total += int(fields[11]) + int(fields[12])
    return total / os.sysconf("SC_CLK_TCK")


def _hwm_mb(pids) -> float:
    total = 0
    for pid in pids:
        for line in Path(f"/proc/{pid}/status").read_text().splitlines():
            if line.startswith("VmHWM:"):
                total += int(line.split()[1])
    return total / 1024.0


# -- metrics --------------------------------------------------------------
def end_to_end(setups, passes, cpu):
    lat = [r["latency_s"] for _, recs in passes for r in recs]
    mps = [sum(r.get("matches", 0) for r in recs) / wall for wall, recs in passes]
    return {
        "setup_s": (statistics.median([s["total_s"] for s in setups]), "s"),
        "pass_s": (statistics.median([w for w, _ in passes]), "s"),
        "pass_cpu_s": (statistics.median(cpu), "s"),
        "query_p50_s": (statistics.median(lat), "s"),
        "matches_per_s": (statistics.median(mps), "1/s"),
    }


def per_layer(setups, traced, tracer, cores):
    from spans import CANONICAL_SPANS, MINING_APPS, layer_summary

    per_pass = []
    for wall, recs in traced:
        spans = [s for r in recs for s in tracer.spans[r["spans"][0]:r["spans"][1]]]
        ls = layer_summary(spans)
        sp = {k: sum(r["spark"][k] for r in recs) for k in recs[0]["spark"]}
        m = {
            "plan.calls": (ls.get("calls:plan.generate_plan", 0), "count"),
            "plan.s": (ls.get("s:plan.generate_plan", 0.0), "s"),
            "pattern.canonical_calls": (
                sum(ls.get(f"calls:{n}", 0) for n in CANONICAL_SPANS), "count"),
            "pattern.canonical_s": (sum(ls.get(f"s:{n}", 0.0) for n in CANONICAL_SPANS), "s"),
            "matcher.build_s": (ls.get("s:matcher.match_df", 0.0), "s"),
            "matcher.joins": (sp["joins"], "count"),
            "matcher.join_rows": (sp["join_rows"], "count"),
            "matcher.matches": (ls.get("count:matches", 0), "count"),
            "matcher.useful_ratio": (
                ls.get("count:matches", 0) / sp["join_rows"] if sp["join_rows"] else 0.0, "ratio"),
        }
        for app in MINING_APPS:
            m[f"mining.{app}_s"] = (ls.get(f"s:mining.{app}", 0.0), "s")
        m["mining.self_s"] = (ls.get("self:mining", 0.0), "s")
        m["matcher.self_s"] = (ls.get("self:matcher", 0.0), "s")
        m["spark.action_s"] = (ls.get("self:spark", 0.0), "s")
        for k in ("jobs", "stages", "tasks", "failed_tasks", "sql_executions"):
            m[f"spark.{k}"] = (sp[k], "count")
        for k in ("plan_s", "task_s", "gc_s"):
            m[f"spark.{k}"] = (sp[k], "s")
        m["spark.core_util"] = (sp["task_s"] / (wall * cores), "ratio")
        m["spark.shuffle_write_bytes"] = (sp["shuffle_write_bytes"], "bytes")
        m["spark.shuffle_read_bytes"] = (sp["shuffle_read_bytes"], "bytes")
        per_pass.append(m)
    out = {k: (statistics.median([m[k][0] for m in per_pass]), per_pass[0][k][1]) for k in per_pass[0]}
    out["graph.gen_s"] = (statistics.median([s["gen_s"] for s in setups]), "s")
    out["graph.load_s"] = (statistics.median([s["load_s"] for s in setups]), "s")
    # only the first set-up starts the JVM and warms its JIT
    out["spark.cold_setup_s"] = (setups[0]["total_s"], "s")
    # The tracing overhead is measured where it is spent: recording spans
    # and reading the status stores between queries. The pass_s of an
    # untraced run of the same seed, subtracted from trace.pass_s, gives
    # the same figure across runs (perfbench/selfcheck.py prints both).
    collector = [sum(r["collector_s"] for r in recs) for _, recs in traced]
    out["trace.pass_s"] = (statistics.median([w for w, _ in traced]), "s")
    out["trace.collector_s"] = (statistics.median(collector), "s")
    out["trace.overhead_s"] = (statistics.median(collector) + tracer.bookkeeping_s / len(traced), "s")
    return out, per_pass


# -- main -----------------------------------------------------------------
def main() -> int:
    ap = argparse.ArgumentParser(description="Mining-query benchmark")
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    if not (ROOT / "src" / "repro" / "core" / "mining.py").is_file() or not (
        ROOT / "jobs" / "_session.py"
    ).is_file():
        print(f"perfbench: no engine sources under {ROOT} (src/repro, jobs/)", file=sys.stderr)
        return 2
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        print(f"perfbench: unknown workload {args.workload!r}", file=sys.stderr)
        return 2
    wl = WORKLOADS[args.workload]

    (OUT / "tmp").mkdir(parents=True, exist_ok=True)
    os.environ["TMPDIR"] = str(OUT / "tmp")
    os.environ.pop("SPARK_SHUFFLE_PARTITIONS", None)  # keep the program's 32
    os.environ["PYSPARK_SUBMIT_ARGS"] = _submit_args()
    os.environ["SPARK_LAUNCHER_OPTS"] = "-XX:-UsePerfData"  # no files in /tmp
    sys.path[:0] = [str(ROOT / "src"), str(ROOT)]

    oracle = expected_answers(args.workload, args.seed)
    if oracle is None:
        return 2
    expected, tau = oracle["answers"], oracle["tau"]
    queries = wl.stream(args.seed)

    spark, setups = None, []
    try:
        for _ in range(SETUP_REPS):
            spark, graphs, t = setup_once(spark, wl, args.seed)
            setups.append(t)
        sc = spark.sparkContext
        pids = [os.getpid(), sc._jvm.java.lang.ProcessHandle.current().pid()]
        _reset_hwm(pids)
        if args.trace:
            from sparkacct import SparkAccounting
            from spans import Tracer

            tracer = Tracer()
            passes, cpu = measure(queries, graphs, tau, sc, args.seconds, pids,
                                  SparkAccounting(spark), tracer)
        else:
            passes, cpu = measure(queries, graphs, tau, sc, args.seconds, pids)
        peak_mb = _hwm_mb(pids)
        env_info = {
            "python": platform.python_version(),
            "spark": spark.version,
            "java": sc._jvm.java.lang.System.getProperty("java.version"),
            "nproc": os.cpu_count(),
            "confs": {k: spark.conf.get(k, None) for k in RECORDED_CONFS},
        }
    finally:
        if spark is not None:
            _stop(spark)

    attempted = failed = 0
    wrong = []
    by_name = {q.name: q for q in queries}
    for _, recs in passes:
        for r in recs:
            attempted += 1
            want = expected[r["query"]]
            if "error" in r:
                failed += 1
                wrong.append({"query": r["query"], "error": r["error"]})
                continue
            q = by_name[r["query"]]
            got = normalise(q, r["answer"])
            r["matches"] = matches_of(q, got)
            if got != want:
                failed += 1
                wrong.append({"query": r["query"], "got": got, "want": want})

    lat = [r["latency_s"] for _, recs in passes for r in recs]
    details = {
        "workload": args.workload, "seed": args.seed, "trace": args.trace,
        "client": "closed loop, 1 client", "env": env_info,
        "passes": len(passes), "pass_walls_s": [round(w, 4) for w, _ in passes],
        "passes_cpu_s": [round(c, 2) for c in cpu],
        "queries_per_pass": len(queries),
        "query_samples": len(lat),
        "failed_frac": failed / attempted,
        "tau": tau,
        "setup_reps": setups,
        "per_query_s": {q.name: [round(r["latency_s"], 4) for _, recs in passes
                                 for r in recs if r["query"] == q.name]
                        for q in queries},
        "wrong": wrong[:5],
    }
    if args.trace:
        metrics, per_pass = per_layer(setups, passes, tracer, CORES)
        metrics["memory.peak_rss_mb"] = (peak_mb, "MB")
        details["per_pass"] = [{k: v[0] for k, v in m.items()} for m in per_pass]
        details["trace_file"] = str(_write_trace(args, tracer, passes).relative_to(ROOT))
    else:
        metrics = end_to_end(setups, passes, cpu)
    print(json.dumps(details, default=str))
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0 if failed == 0 else 1


def _write_trace(args, tracer, traced) -> Path:
    path = OUT / f"trace-{args.workload}-seed{args.seed}.jsonl"
    with path.open("w") as f:
        for i, s in enumerate(tracer.spans):
            f.write(json.dumps({"id": i, "name": s.name, "start": s.start, "end": s.end,
                                "parent": s.parent, "query": s.query, **s.counts}) + "\n")
        for n, (_, recs) in enumerate(traced):
            for r in recs:
                f.write(json.dumps({"pass": n, "query": r["query"],
                                    "latency_s": r["latency_s"], "spark": r["spark"]}) + "\n")
    return path


def _stop(spark) -> None:
    """Stop the session and the JVM, and wait until it has exited."""
    from pyspark import SparkContext

    gw = SparkContext._gateway
    proc = getattr(gw, "proc", None)
    spark.stop()
    if gw is not None:
        gw.shutdown()
    if proc is not None:
        proc.stdin.close()  # the gateway JVM exits on EOF
        try:
            proc.wait(timeout=30)
        except subprocess.TimeoutExpired:
            proc.kill()
            proc.wait()


if __name__ == "__main__":
    sys.exit(main())
