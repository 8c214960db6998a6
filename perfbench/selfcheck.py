"""Repeatability check for the benchmark's exact counts.

    python3 perfbench/selfcheck.py --workload census --seed 1 [--seconds 10]

Runs the workload once untraced and twice traced on one seed; the
second traced run gets time for two passes. Exits 1 unless every run
answered correctly and the exact counts (``spark.jobs``,
``spark.stages``, ``matcher.matches``, ``matcher.join_rows``) of every
pass of the second run equal those of the first run. Also prints the
tracing overhead across runs: traced ``trace.pass_s`` minus untraced
``pass_s``.
"""
from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
EXACT = ("spark.jobs", "spark.stages", "matcher.matches", "matcher.join_rows")


def run(workload: str, seed: int, seconds: float, trace: int) -> tuple[dict, dict]:
    """Metrics and details of one run."""
    res = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", str(trace)],
        cwd=HERE.parent, capture_output=True, text=True, timeout=300,
    )
    if res.returncode != 0:
        sys.stderr.write(res.stderr[-4000:])
        raise SystemExit(f"run failed (exit {res.returncode}): trace={trace}")
    lines = res.stdout.strip().splitlines()
    out = json.loads(lines[-1])
    return {k: v["value"] for k, v in out["metrics"].items()}, json.loads(lines[-2])


def main() -> int:
    ap = argparse.ArgumentParser(description="Check that exact counts repeat across runs.")
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=10)
    args = ap.parse_args()
    plain, _ = run(args.workload, args.seed, args.seconds, 0)
    first, _ = run(args.workload, args.seed, args.seconds, 1)
    # a pass starts while the elapsed time plus the last pass fits, so
    # 2.5 passes' time gives two passes
    second, details = run(args.workload, args.seed, 2.5 * first["trace.pass_s"], 1)
    ok = True
    for n, m in enumerate(details["per_pass"]):
        for k in EXACT:
            same = first[k] == m[k]
            ok &= same
            print(f"pass {n} {k:20s} {first[k]:>14} {m[k]:>14} {'same' if same else 'DIFFERENT'}")
    overhead = [t["trace.pass_s"] - plain["pass_s"] for t in (first, second)]
    print(f"tracing overhead across runs: {overhead[0]:.3f} s, {overhead[1]:.3f} s "
          f"(untraced pass_s {plain['pass_s']:.3f} s)")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
