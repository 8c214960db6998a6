"""In-memory spans around the engine's public functions.

``Tracer.instrumented()`` wraps the layer entry points where callers
look them up (``repro.core.mining`` imports ``match_df`` and
``count_matches`` by name, so both modules are patched) and the Spark
actions on ``DataFrame``. Spans are recorded only while a query is
active, so set-up and the oracle never show up. Each span holds name,
wall-clock start and end, parent index, query id and counters.
"""
from __future__ import annotations

import functools
import inspect
import time
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Optional

#: Mining apps whose inclusive time is reported as ``mining.<app>_s``.
MINING_APPS = (
    "count_motifs",
    "count_cliques",
    "match_pattern",
    "exists_pattern",
    "exists_clique",
    "cc_exceeds",
    "fsm",
)
SPARK_ACTIONS = ("count", "collect", "take")
#: Driver-side canonicalisation, summed into ``pattern.canonical_*``: both
#: canonical-form searches, and the relabeling map FSM recomputes per
#: label tuple.
CANONICAL_SPANS = ("pattern.canonical", "pattern.canonical_key", "pattern._iso_map")


@dataclass
class Span:
    name: str
    start: float
    end: float = 0.0
    parent: Optional[int] = None
    query: Optional[str] = None
    counts: dict = field(default_factory=dict)
    child_s: float = 0.0

    @property
    def layer(self) -> str:
        return self.name.split(".", 1)[0]

    @property
    def self_s(self) -> float:
        return self.end - self.start - self.child_s


class Tracer:
    def __init__(self):
        self.spans: list[Span] = []
        self.query: Optional[str] = None
        self._stack: list[int] = []
        self.bookkeeping_s = 0.0  # time spent recording, outside span bodies

    @contextmanager
    def span(self, name: str):
        """Record ``name`` around the body; yields the span, or None when
        no query is active."""
        if self.query is None:
            yield None
            return
        t0 = time.perf_counter()
        s = Span(name, time.time(), parent=self._stack[-1] if self._stack else None,
                 query=self.query)
        self.spans.append(s)
        self._stack.append(len(self.spans) - 1)
        t1 = time.perf_counter()
        try:
            yield s
        finally:
            t2 = time.perf_counter()
            s.end = time.time()
            self._stack.pop()
            if s.parent is not None:
                self.spans[s.parent].child_s += s.end - s.start
            self.bookkeeping_s += (t1 - t0) + (time.perf_counter() - t2)

    def _wrap(self, name: str, fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            with self.span(name):
                return fn(*args, **kwargs)

        return wrapper

    def _wrap_count_matches(self, fn):
        from repro.core.matcher import MatchStats

        sig = inspect.signature(fn)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            bound = sig.bind(*args, **kwargs)
            stats = bound.arguments.get("stats")
            if stats is None:
                stats = bound.arguments["stats"] = MatchStats()
            before = stats.matches_explored
            with self.span("matcher.count_matches") as s:
                out = fn(*bound.args, **bound.kwargs)
                if s is not None:
                    s.counts["matches"] = stats.matches_explored - before
            return out

        return wrapper

    @contextmanager
    def instrumented(self):
        """Patch the layer entry points for the duration of the block."""
        from pyspark.sql.classic.dataframe import DataFrame
        from repro.core import matcher, mining, plan
        from repro.core.pattern import Pattern

        patches = [
            (Pattern, "canonical", self._wrap("pattern.canonical", Pattern.canonical)),
            (Pattern, "canonical_key", self._wrap("pattern.canonical_key", Pattern.canonical_key)),
            (mining, "_iso_map", self._wrap("pattern._iso_map", mining._iso_map)),
        ]
        gen = self._wrap("plan.generate_plan", plan.generate_plan)
        patches += [(m, "generate_plan", gen) for m in (plan, matcher, mining)]
        mdf = self._wrap("matcher.match_df", matcher.match_df)
        patches += [(m, "match_df", mdf) for m in (matcher, mining)]
        cm = self._wrap_count_matches(matcher.count_matches)
        patches += [(m, "count_matches", cm) for m in (matcher, mining)]
        patches += [(mining, a, self._wrap(f"mining.{a}", getattr(mining, a))) for a in MINING_APPS]
        patches += [
            (DataFrame, a, self._wrap(f"spark.{a}", getattr(DataFrame, a))) for a in SPARK_ACTIONS
        ]
        saved = [(obj, name, getattr(obj, name)) for obj, name, _ in patches]
        for obj, name, new in patches:
            setattr(obj, name, new)
        try:
            yield self
        finally:
            for obj, name, old in saved:
                setattr(obj, name, old)


def layer_summary(spans: list[Span]) -> dict[str, float]:
    """Per-layer totals over ``spans``: call counts, inclusive seconds by
    span name and self seconds by layer."""
    out: dict[str, float] = {}
    for s in spans:
        out[f"calls:{s.name}"] = out.get(f"calls:{s.name}", 0) + 1
        out[f"s:{s.name}"] = out.get(f"s:{s.name}", 0.0) + (s.end - s.start)
        out[f"self:{s.layer}"] = out.get(f"self:{s.layer}", 0.0) + s.self_s
        for k, v in s.counts.items():
            out[f"count:{k}"] = out.get(f"count:{k}", 0) + v
    return out
