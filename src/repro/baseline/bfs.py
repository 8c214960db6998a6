"""Arabesque- / RStream-style breadth-first enumeration baselines (§2.2).

Level-synchronous filter-process model over DataFrames: embeddings are
materialized per level, every generated embedding is canonicality-
checked (pandas UDF over the loaded graph's broadcast adjacency), and
structure is discovered with per-embedding isomorphism encodings —
exactly the work the paper shows pattern-unaware systems doing
(Figure 1).

Two modes:

* ``mode="abq"`` (Arabesque): canonical pruning after every expansion
  level — fewer embeddings survive, but every candidate is generated
  and checked first;
* ``mode="rs"`` (RStream): relational join-style expansion with **no**
  mid-stream canonical pruning; every connected-prefix ordering of every
  subgraph is materialized and deduplicated only at the end — the
  paper's 125–342× blow-ups.

Every run takes a ``budget`` on total explored embeddings; exceeding it
raises :class:`BudgetExceeded` (the OOM/out-of-disk analog).
"""
from __future__ import annotations

from typing import TYPE_CHECKING, Optional

import pandas as pd
from pyspark.sql import DataFrame, functions as F
from pyspark.sql.types import (
    ArrayType,
    BooleanType,
    LongType,
    StringType,
    StructField,
    StructType,
)

from .common import (
    BaselineMetrics,
    encode_induced,
    encode_labeled_edge_embedding,
    is_canonical_embedding,
    is_clique,
)

if TYPE_CHECKING:
    from ..harness import SparkGraph

_BUDGET_DEFAULT = 3_000_000


def _vertex_level1(edges: DataFrame) -> DataFrame:
    return edges.select(F.array(F.col("src")).alias("vs")).distinct()


def _probed_count(df: DataFrame, m: BaselineMetrics, budget: Optional[int]) -> int:
    """Count rows, but bail out (BudgetExceeded) without a full scan if
    the remaining embedding budget would be blown: ``limit(r+1)`` stops
    Spark after r+1 rows, so a level that explodes costs at most the
    budget, like an allocator hitting its memory limit mid-expansion."""
    if budget is None:
        n = df.count()
        m.charge(n, None)
        return n
    remaining = budget - m.explored
    n = df.limit(remaining + 1).count()
    m.charge(n, budget)  # raises when n == remaining + 1
    return n


def _expand_by_vertex(emb: DataFrame, edges: DataFrame) -> DataFrame:
    """All (embedding, new neighbor) extensions, deduplicated per
    embedding — the candidates Arabesque generates before filtering."""
    memb = emb.select("vs", F.explode("vs").alias("m"))
    cand = (
        memb.join(edges, memb.m == edges.src)
        .where(~F.array_contains(F.col("vs"), F.col("dst")))
        .select("vs", "dst")
        .distinct()
    )
    return cand.select(F.concat("vs", F.array("dst")).alias("vs"))


def _canonical_filter(emb: DataFrame, adj_b) -> DataFrame:
    @F.pandas_udf(BooleanType())
    def canon(vs: pd.Series) -> pd.Series:
        adj = adj_b.value
        return vs.map(lambda a: is_canonical_embedding(tuple(int(x) for x in a), adj))

    return emb.where(canon(F.col("vs")))


def bfs_enumerate(
    g: SparkGraph,
    k: int,
    mode: str = "abq",
    budget: Optional[int] = _BUDGET_DEFAULT,
    clique_filter: bool = False,
    metrics: Optional[BaselineMetrics] = None,
) -> tuple[DataFrame, BaselineMetrics]:
    """Enumerate all connected k-vertex embeddings (one canonical row
    each). ``clique_filter`` applies Arabesque's per-level filter for the
    clique app — candidates are still generated (and charged) first."""
    m = metrics if metrics is not None else BaselineMetrics()
    edges, adj_b = g.edges, g.adj_b
    emb = _vertex_level1(edges).cache()
    _probed_count(emb, m, budget)
    for level in range(2, k + 1):
        cand = _expand_by_vertex(emb, edges).cache()
        try:
            n = _probed_count(cand, m, budget)
        finally:
            emb.unpersist()
        if mode == "abq":
            m.canonicality += n
            nxt = _canonical_filter(cand, adj_b)
        else:  # rs: no mid-stream canonical pruning
            nxt = cand
        if clique_filter:
            nxt = _clique_filter(nxt, adj_b)
        emb = nxt.cache()
        emb.count()
        cand.unpersist()
    if mode == "rs":
        # end-of-pipeline canonicality pass over everything that survived
        n = emb.count()
        m.canonicality += n
        emb = _canonical_filter(emb, adj_b).cache()
        emb.count()
    return emb, m


def _clique_filter(emb: DataFrame, adj_b) -> DataFrame:
    @F.pandas_udf(BooleanType())
    def clique(vs: pd.Series) -> pd.Series:
        adj = adj_b.value
        return vs.map(lambda a: is_clique(tuple(int(x) for x in a), adj))

    return emb.where(clique(F.col("vs")))


def bfs_count_cliques(
    g: SparkGraph,
    k: int,
    mode: str = "abq",
    budget: Optional[int] = _BUDGET_DEFAULT,
) -> BaselineMetrics:
    """k-clique counting the Arabesque/RStream way: generate all
    neighbor extensions, canonicality-check, then filter to cliques.
    Isomorphism checks: one per final match for ABQ (its aggregation
    identifies the pattern of every embedding); RStream's clique app is
    native (0 isomorphism checks), as in Figure 1b."""
    emb, m = bfs_enumerate(g, k, mode=mode, budget=budget, clique_filter=True)
    m.result = emb.count()
    if mode == "abq":
        m.isomorphism += m.result
    return m


def bfs_count_motifs(
    g: SparkGraph,
    k: int,
    mode: str = "abq",
    budget: Optional[int] = _BUDGET_DEFAULT,
) -> BaselineMetrics:
    """Motif counting: enumerate every connected k-vertex embedding,
    then run a per-embedding isomorphism encoding to bin by pattern
    (Figure 1c's isomorphism column ~= number of final matches)."""
    emb, m = bfs_enumerate(g, k, mode=mode, budget=budget)
    adj_b = g.adj_b

    @F.pandas_udf(StringType())
    def code(vs: pd.Series) -> pd.Series:
        adj = adj_b.value
        return vs.map(lambda a: encode_induced(tuple(int(x) for x in a), adj))

    coded = emb.select(code(F.col("vs")).alias("code"))
    rows = coded.groupBy("code").count().collect()
    m.isomorphism += sum(r["count"] for r in rows)
    m.result = {r["code"]: r["count"] for r in rows}
    return m


# ---------------------------------------------------------------------------
# FSM: edge-induced BFS with per-level MNI aggregation (Arabesque-style)
# ---------------------------------------------------------------------------
_ENC_SCHEMA = StructType([
    StructField("code", StringType()),
    StructField("mapped", ArrayType(LongType())),
    StructField("orbits", ArrayType(LongType())),
])


def bfs_fsm(
    g: SparkGraph,
    threshold: int,
    max_edges: int = 3,
    budget: Optional[int] = _BUDGET_DEFAULT,
) -> BaselineMetrics:
    """Arabesque-style FSM: materialize every edge-induced embedding per
    level, isomorphism-encode each one to find its labeled pattern,
    aggregate MNI domains globally, prune infrequent patterns, extend.

    Embeddings are edge sets (`es`: sorted array of [a,b] pairs). The
    per-embedding encode is exactly the cost the paper's Figure 1
    attributes to pattern-unaware FSM.
    """
    m = BaselineMetrics()
    edges, lab_b = g.edges, g.labels_b

    # per-embedding isomorphism computation: labeled pattern code + data
    # vertices by canonical position (for the MNI domain)
    @F.pandas_udf(_ENC_SCHEMA)
    def enc(es: pd.Series) -> pd.DataFrame:
        lo = lab_b.value
        codes, mappeds, orbs = [], [], []
        for a in es:
            eset = frozenset((int(p[0]), int(p[1])) for p in a)
            c, mp, ob = encode_labeled_edge_embedding(eset, lo)
            codes.append(c)
            mappeds.append(list(mp))
            orbs.append(list(ob))
        return pd.DataFrame({"code": codes, "mapped": mappeds, "orbits": orbs})

    und = edges.where(F.col("src") < F.col("dst"))
    emb = und.select(
        F.array(F.array(F.col("src"), F.col("dst"))).alias("es")
    ).cache()
    _probed_count(emb, m, budget)

    frequent_final: dict[str, int] = {}
    for level in range(1, max_edges + 1):
        if level > 1:
            memb = emb.select(
                "es", F.explode(F.flatten(F.col("es"))).alias("mv")
            ).distinct()
            cand = (
                memb.join(edges, memb.mv == edges.src)
                .select(
                    "es",
                    F.array(
                        F.least(F.col("mv"), F.col("dst")),
                        F.greatest(F.col("mv"), F.col("dst")),
                    ).alias("ne"),
                )
                .where(~F.array_contains(F.col("es"), F.col("ne")))
                .select("es", "ne")
                .distinct()
                .select(F.array_sort(F.concat("es", F.array("ne"))).alias("es"))
            ).cache()
            n = _probed_count(cand, m, budget)
            m.canonicality += n  # per-embedding uniqueness verification
            nxt = cand.distinct().cache()
            nxt.count()
            emb.unpersist()
            cand.unpersist()
            emb = nxt

        coded = emb.withColumn("cm", enc(F.col("es"))).select(
            "es",
            F.col("cm.code").alias("code"),
            F.col("cm.mapped").alias("mapped"),
            F.col("cm.orbits").alias("orbits"),
        ).cache()
        m.isomorphism += coded.count()
        emb.unpersist()

        # MNI domain per automorphism orbit of each labeled pattern
        # (symmetric positions share a domain); support = min over orbits
        doms = (
            coded.select(
                "code", F.explode(F.arrays_zip("orbits", "mapped")).alias("om")
            )
            .select("code", F.col("om.orbits").alias("orbit"), F.col("om.mapped").alias("v"))
            .distinct()
            .groupBy("code", "orbit")
            .agg(F.count_distinct("v").alias("dom"))
            .groupBy("code")
            .agg(F.min("dom").alias("support"))
            .collect()
        )
        freq = {r["code"]: r["support"] for r in doms if r["support"] >= threshold}
        if level >= 2:
            frequent_final.update(freq)
        if not freq or level == max_edges:
            coded.unpersist()
            break
        emb = coded.where(F.col("code").isin(list(freq))).select("es").cache()
        emb.count()
        coded.unpersist()

    m.result = frequent_final
    return m
