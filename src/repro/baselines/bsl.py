"""BSL: the paper's heavily fine-tuned value-only baseline (Section 6).

BSL receives the *unpruned* disjunctive blocking graph as ``pairs``: every
pair co-occurring in a purged token block or a name block, i.e.
``core.blocking.Blocking.candidate_pairs()``. The caller builds, caches
and releases it. BSL scores each pair with a configurable string-similarity
pipeline, and resolves with Unique Mapping Clustering. The grid mirrors
the paper's 420 configs:

* token n-grams, n in {1, 2, 3};
* TF or TF-IDF weights;
* Cosine, Jaccard, Generalized Jaccard similarities, plus the SiGMa
  weighted-overlap measure (TF-IDF only, as in the paper);
* UMC thresholds in [0, 1) with step 0.05.

The best F1 over the grid is reported, i.e. BSL is fine-tuned on the
ground truth exactly as the paper describes. Scoring runs in Spark, one
pass per n giving both weightings and every measure (``score_pairs``); UMC
and the threshold sweep run on the driver over the collected scores: one
UMC scan per score column, cut at each threshold (``umc`` says why).
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


def weighted_grams(g1: DataFrame, g2: DataFrame) -> tuple[DataFrame, DataFrame]:
    """Attach both weights to each (eid, gram): ``tf`` (as a double) and
    ``tfidf = tf * idf``.

    IDF uses the combined corpus, where every entity of either KB is a
    document even if the other KB uses its id: ``idf = ln(N / df)``.
    """
    n_docs = (
        g1.select("eid").distinct().count() + g2.select("eid").distinct().count()
    )
    df = (
        g1.union(g2)
        .groupBy("gram")
        .agg(F.count("*").alias("df"))
        .withColumn("idf", F.log(F.lit(float(n_docs)) / F.col("df")))
        .select("gram", "idf")
    )

    def attach(g: DataFrame) -> DataFrame:
        w = g.join(df, "gram").withColumn("tfidf", F.col("tf") * F.col("idf"))
        return w.select("eid", "gram", F.col("tf").cast("double").alias("tf"), "tfidf")

    return attach(g1), attach(g2)


def pair_similarities(pairs: DataFrame, w1: DataFrame, w2: DataFrame) -> DataFrame:
    """Every measure under both weights for every candidate pair: one join.

    Per-pair common-gram statistics (dot product, sum of minima, counts)
    combine with per-entity sums, norms and gram counts to give, for each
    weight ``w`` in ``WEIGHTINGS``:

    * ``{w}_cosine``     = dot / (||A|| * ||B||)
    * ``{w}_genjaccard`` = sum_min / (sum_A + sum_B - sum_min)
    * ``tfidf_sigma``    = sum_common (wA + wB) / (sum_A + sum_B)  [21]
    * ``jaccard``        = |common| / (|A| + |B| - |common|), which reads
      only gram counts and so is the same under either weight.
    """

    def per_entity(w: DataFrame, i: int) -> DataFrame:
        return w.groupBy(F.col("eid").alias(f"eid{i}")).agg(
            *(F.sum(x).alias(f"{x}_sum{i}") for x in WEIGHTINGS),
            *(F.sum(F.col(x) * F.col(x)).alias(f"{x}_sq{i}") for x in WEIGHTINGS),
            F.count("*").alias(f"n{i}"),
        )

    def grams(w: DataFrame, i: int) -> DataFrame:
        weights = (F.col(x).alias(f"{x}{i}") for x in WEIGHTINGS)
        return w.select(F.col("eid").alias(f"eid{i}"), "gram", *weights)

    common = (
        pairs.join(grams(w1, 1), "eid1")
        .join(grams(w2, 2), ["eid2", "gram"])
        .groupBy("eid1", "eid2")
        .agg(
            *(F.sum(F.col(f"{x}1") * F.col(f"{x}2")).alias(f"{x}_dot") for x in WEIGHTINGS),
            *(F.sum(F.least(f"{x}1", f"{x}2")).alias(f"{x}_min") for x in WEIGHTINGS),
            F.sum(F.col("tfidf1") + F.col("tfidf2")).alias("tfidf_csum"),
            F.count("*").alias("c"),
        )
    )
    sims = []
    for x in WEIGHTINGS:
        dot, cmin, sum1, sum2 = (F.col(f"{x}_{a}") for a in ("dot", "min", "sum1", "sum2"))
        sims.append((dot / (F.sqrt(f"{x}_sq1") * F.sqrt(f"{x}_sq2"))).alias(f"{x}_cosine"))
        sims.append((cmin / (sum1 + sum2 - cmin)).alias(f"{x}_genjaccard"))
    sigma = F.col("tfidf_csum") / (F.col("tfidf_sum1") + F.col("tfidf_sum2"))
    sims.append(sigma.alias("tfidf_sigma"))
    sims.append((F.col("c") / (F.col("n1") + F.col("n2") - F.col("c"))).alias("jaccard"))
    return (
        common.join(per_entity(w1, 1), "eid1")
        .join(per_entity(w2, 2), "eid2")
        .select("eid1", "eid2", *sims)
    )


def score_pairs(
    triples1: DataFrame, triples2: DataFrame, pairs: DataFrame
) -> dict[int, pd.DataFrame]:
    """``{n: scores}`` for each n in ``NS``: every score column of
    ``pair_similarities`` for the candidate ``pairs``, collected.

    One Spark pass per n gives every weighting and measure; ``pairs`` is
    read once per pass, so the caller should cache it.
    """
    out = {}
    for n in NS:
        w1, w2 = weighted_grams(entity_grams(triples1, n), entity_grams(triples2, n))
        out[n] = pair_similarities(pairs, w1, w2).toPandas()
    return out


@dataclass
class BSLResult:
    """Best configuration and score of the BSL grid search."""

    n: int
    weighting: str
    measure: str
    threshold: float
    prf: PRF
    grid: pd.DataFrame  # one row per (n, weighting, measure, threshold)


def run_bsl(scores: dict[int, pd.DataFrame], gt_pdf: pd.DataFrame) -> BSLResult:
    """Grid-search BSL over the paper's 420 configurations and return the
    best-F1 one.

    ``scores`` is ``score_pairs``' output and ``gt_pdf`` the pandas ground
    truth; the sweep runs on the driver. Each distinct score column is
    scanned by UMC once (18 scans: the TF and TF-IDF Jaccard configurations
    of one n read the same column) and the scan is cut at each threshold.
    """
    cuts: dict[tuple[int, str], list[PRF]] = {}
    configs: list[tuple[int, str, str, float]] = []
    prfs: list[PRF] = []
    for n, weighting, measure in product(NS, WEIGHTINGS, MEASURES):
        if measure == "sigma" and weighting != "tfidf":
            continue  # SiGMa measure applies to TF-IDF only [21]
        column = "jaccard" if measure == "jaccard" else f"{weighting}_{measure}"
        if (n, column) not in cuts:
            scored = scores[n][["eid1", "eid2", column]].rename(columns={column: "sim"})
            accepted = unique_mapping_clustering(scored[scored.sim > 0])
            cuts[n, column] = [
                evaluate_pandas(accepted[accepted.sim >= float(t)], gt_pdf)
                for t in THRESHOLDS
            ]
        configs.extend((n, weighting, measure, round(float(t), 2)) for t in THRESHOLDS)
        prfs.extend(cuts[n, column])
    grid = pd.DataFrame(
        [(*c, p.precision, p.recall, p.f1) for c, p in zip(configs, prfs)],
        columns=["n", "weighting", "measure", "threshold", "precision", "recall", "f1"],
    )
    best = int(grid.f1.idxmax())
    return BSLResult(*configs[best], prfs[best], grid)
