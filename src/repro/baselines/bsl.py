"""BSL: the paper's heavily fine-tuned value-only baseline (Section 6).

BSL receives the *unpruned* disjunctive blocking graph as ``pairs``: every
pair co-occurring in a purged token block or a name block, i.e.
``core.blocking.Blocking.candidate_pairs()``. The caller builds, caches
and releases it; the Table 3 harness shares one with SiGMa-lite. BSL
scores each pair with a configurable string-similarity pipeline, and
resolves with Unique Mapping Clustering. The grid mirrors the paper's
420 configs:

* token n-grams, n in {1, 2, 3};
* TF or TF-IDF weights;
* Cosine, Jaccard, Generalized Jaccard similarities, plus the SiGMa
  weighted-overlap measure (TF-IDF only, as in the paper);
* UMC thresholds in [0, 1) with step 0.05.

The best F1 over the grid is reported, i.e. BSL is fine-tuned on the
ground truth exactly as the paper describes. Scoring runs in Spark; UMC
and the threshold sweep run on the driver over the collected scores: one
UMC scan per measure, cut at each threshold (``umc`` says why).
"""
from __future__ import annotations

from dataclasses import dataclass
from itertools import product

import numpy as np
import pandas as pd
from pyspark.sql import DataFrame
from pyspark.sql import functions as F

from ..core.evaluation import PRF, evaluate_pandas
from ..core.tokens import value_tokens
from .umc import unique_mapping_clustering

NS = (1, 2, 3)
"""Word n-gram sizes."""
WEIGHTINGS = ("tf", "tfidf")
MEASURES = ("cosine", "jaccard", "genjaccard", "sigma")
"""Similarity measures; ``sigma`` is scored with TF-IDF weights only."""
THRESHOLDS = np.arange(0.0, 1.0, 0.05)
"""Unique Mapping Clustering thresholds: 20 steps of 0.05 in [0, 1)."""


def entity_grams(triples: DataFrame, n: int) -> DataFrame:
    """``(eid, gram, tf)`` — word n-grams per entity with term frequencies.

    N-grams are built within each literal value's ``value_tokens`` (they
    do not span values), joined with ``_`` so a gram is a single
    blocking-style key.
    """
    toks = (
        triples.filter(F.col("val").isNotNull())
        .select("eid", value_tokens(F.col("val")).alias("toks"))
        .filter(F.size("toks") >= n)
    )
    grams = toks.select(
        "eid",
        F.explode(
            F.expr(
                f"transform(sequence(0, size(toks) - {n}),"
                f" i -> concat_ws('_', slice(toks, i + 1, {n})))"
            )
        ).alias("gram"),
    )
    return grams.groupBy("eid", "gram").agg(F.count("*").alias("tf"))


def weighted_grams(
    g1: DataFrame, g2: DataFrame, weighting: str
) -> tuple[DataFrame, DataFrame]:
    """Attach ``w`` to each (eid, gram): TF, or TF-IDF over both KBs.

    IDF uses the combined corpus (every entity of either KB is a
    document): ``idf = ln(N / df)``.
    """
    if weighting == "tf":
        return g1.withColumn("w", F.col("tf").cast("double")), g2.withColumn(
            "w", F.col("tf").cast("double")
        )
    if weighting != "tfidf":
        raise ValueError(f"unknown weighting {weighting!r}")
    n_docs = (
        g1.select("eid").distinct().count() + g2.select("eid").distinct().count()
    )
    df = (
        g1.select("eid", "gram")
        .union(g2.select("eid", "gram"))
        .groupBy("gram")
        .agg(F.countDistinct("eid").alias("df"))
        .withColumn("idf", F.log(F.lit(float(n_docs)) / F.col("df")))
        .select("gram", "idf")
    )

    def attach(g: DataFrame) -> DataFrame:
        return g.join(df, "gram").withColumn("w", F.col("tf") * F.col("idf"))

    return attach(g1), attach(g2)


def pair_similarities(
    pairs: DataFrame, g1: DataFrame, g2: DataFrame
) -> DataFrame:
    """All four similarity measures for every candidate pair, in one pass.

    Per-pair common-gram statistics (dot product, sum of minima, counts)
    combine with per-entity norms to give:

    * cosine     = dot / (||A|| * ||B||)
    * jaccard    = |common| / (|A| + |B| - |common|)
    * genjaccard = sum_min / (sum_A + sum_B - sum_min)
    * sigma      = sum_common (wA + wB) / (sum_A + sum_B)  [21]
    """
    a1 = g1.groupBy("eid").agg(
        F.sum("w").alias("sum1"),
        F.sum(F.col("w") * F.col("w")).alias("sq1"),
        F.count("*").alias("n1"),
    )
    a2 = g2.groupBy("eid").agg(
        F.sum("w").alias("sum2"),
        F.sum(F.col("w") * F.col("w")).alias("sq2"),
        F.count("*").alias("n2"),
    )
    common = (
        pairs.join(
            g1.select(F.col("eid").alias("eid1"), "gram", F.col("w").alias("w1")),
            "eid1",
        )
        .join(
            g2.select(F.col("eid").alias("eid2"), "gram", F.col("w").alias("w2")),
            ["eid2", "gram"],
        )
        .groupBy("eid1", "eid2")
        .agg(
            F.sum(F.col("w1") * F.col("w2")).alias("dot"),
            F.sum(F.least("w1", "w2")).alias("cmin"),
            F.sum(F.col("w1") + F.col("w2")).alias("csum"),
            F.count("*").alias("c"),
        )
    )
    return (
        common.join(a1.withColumnRenamed("eid", "eid1"), "eid1")
        .join(a2.withColumnRenamed("eid", "eid2"), "eid2")
        .select(
            "eid1",
            "eid2",
            (F.col("dot") / (F.sqrt("sq1") * F.sqrt("sq2"))).alias("cosine"),
            (F.col("c") / (F.col("n1") + F.col("n2") - F.col("c"))).alias(
                "jaccard"
            ),
            (
                F.col("cmin") / (F.col("sum1") + F.col("sum2") - F.col("cmin"))
            ).alias("genjaccard"),
            (F.col("csum") / (F.col("sum1") + F.col("sum2"))).alias("sigma"),
        )
    )


@dataclass
class BSLResult:
    """Best configuration and score of the BSL grid search."""

    n: int
    weighting: str
    measure: str
    threshold: float
    prf: PRF
    grid: pd.DataFrame  # one row per (n, weighting, measure, threshold)


def run_bsl(
    triples1: DataFrame,
    triples2: DataFrame,
    pairs: DataFrame,
    gt_pdf: pd.DataFrame,
) -> BSLResult:
    """Grid-search BSL over the paper's 420 configurations and return the
    best-F1 one.

    ``pairs`` is the unpruned disjunctive blocking graph ``(eid1, eid2)``;
    it is scored once per (n, weighting), so the caller should cache it.
    ``gt_pdf`` is the pandas ground truth (the sweep runs driver-side).
    """
    configs: list[tuple[int, str, str, float]] = []
    prfs: list[PRF] = []
    for n, weighting in product(NS, WEIGHTINGS):
        g1 = entity_grams(triples1, n)
        g2 = entity_grams(triples2, n)
        w1, w2 = weighted_grams(g1, g2, weighting)
        sims = pair_similarities(pairs, w1, w2).toPandas()
        for measure in MEASURES:
            if measure == "sigma" and weighting != "tfidf":
                continue  # SiGMa measure applies to TF-IDF only [21]
            scored = sims[["eid1", "eid2", measure]].rename(
                columns={measure: "sim"}
            )
            accepted = unique_mapping_clustering(scored[scored.sim > 0])
            for t in THRESHOLDS:
                configs.append((n, weighting, measure, round(float(t), 2)))
                prfs.append(
                    evaluate_pandas(accepted[accepted.sim >= float(t)], gt_pdf)
                )
    grid = pd.DataFrame(
        [(*c, p.precision, p.recall, p.f1) for c, p in zip(configs, prfs)],
        columns=["n", "weighting", "measure", "threshold", "precision", "recall", "f1"],
    )
    best = int(grid.f1.idxmax())
    return BSLResult(*configs[best], prfs[best], grid)
