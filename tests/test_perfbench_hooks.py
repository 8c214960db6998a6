"""The benchmark's span hooks (``perfbench/spans.py``) patch engine
functions by name. Entering ``Tracer.instrumented()`` must find every one
of them, and leaving it must put every original back — so a refactor that
renames or drops a hooked function fails here, not only under
``perfbench/run.py --trace 1``. Needs no Spark session."""
from pyspark.sql.classic.dataframe import DataFrame

from perfbench.spans import MINING_APPS, SPARK_ACTIONS, Tracer
from repro.core import matcher, mining, plan
from repro.core.pattern import Pattern

TARGETS = {
    "Pattern": Pattern,
    "matcher": matcher,
    "mining": mining,
    "plan": plan,
    "DataFrame": DataFrame,
}
EXPECTED = (
    {("Pattern", "canonical"), ("Pattern", "canonical_key"), ("mining", "_iso_map")}
    | {(m, "generate_plan") for m in ("plan", "matcher", "mining")}
    | {(m, f) for m in ("matcher", "mining") for f in ("match_df", "count_matches")}
    | {("mining", a) for a in MINING_APPS}
    | {("DataFrame", a) for a in SPARK_ACTIONS}
)


def _snapshot() -> dict[tuple[str, str], object]:
    return {
        (t, name): getattr(obj, name)
        for t, obj in TARGETS.items()
        for name in dir(obj)
    }


def test_instrumented_patches_and_restores_every_hook():
    before = _snapshot()
    with Tracer().instrumented():
        during = _snapshot()
    assert _snapshot() == before
    patched = {k for k, v in during.items() if v != before.get(k)}
    assert patched == EXPECTED
