"""Token blocking, Block Purging, and block statistics (Section 3, Table 2).

Token blocking creates one block per token shared by the two KBs; the
block's comparison cardinality is ``EF1(t) * EF2(t)``. Block Purging
removes the stop-word-like blocks whose tokens carry near-zero valueSim
weight anyway (paper Section 3.3, deferring to [26]). The automatic
threshold is derived from that weight (DESIGN.md section 5): a block of
``c`` comparisons gives its token weight ``1/log2(c+1)``, so dropping
weights below 0.1 caps a block at ``c <= 1023`` comparisons, whatever the
size of the KB pair.
"""
from __future__ import annotations

from dataclasses import dataclass

from pyspark.sql import DataFrame
from pyspark.sql import functions as F

from .names import name_block_index, name_pairs
from .tokens import entity_frequency, literal_tokens, pair_token_weights


def token_block_index(tokens1: DataFrame, tokens2: DataFrame) -> DataFrame:
    """``(token, ef1, ef2, weight, comparisons)`` — one row per token block.

    Only tokens present in both KBs form blocks with cross-KB
    comparisons (clean-clean ER compares across KBs only).
    """
    idx = pair_token_weights(entity_frequency(tokens1), entity_frequency(tokens2))
    return idx.withColumn("comparisons", F.col("ef1") * F.col("ef2"))


def purge_blocks(
    block_index: DataFrame,
    max_comparisons: int | None = None,
    min_weight: float = 0.1,
) -> tuple[DataFrame, int]:
    """Drop excessively large token blocks; return (kept blocks, threshold).

    If ``max_comparisons`` is not given, it is derived from Def. 2.1's
    weighting: a block of cardinality ``EF1*EF2 = c`` carries token
    weight ``1/log2(c+1)``, so dropping blocks with weight below
    ``min_weight`` means ``c > 2**(1/min_weight) - 1`` (1023 for the
    default 0.1). These are exactly the stop-word blocks whose tokens
    contribute ~nothing to valueSim, so recall is preserved — the stated
    goal of Block Purging [26] in the paper.
    """
    if max_comparisons is None:
        max_comparisons = int(2 ** (1.0 / min_weight)) - 1
    return (
        block_index.filter(F.col("comparisons") <= max_comparisons),
        max_comparisons,
    )


def token_pairs(
    tokens1: DataFrame, tokens2: DataFrame, kept_blocks: DataFrame
) -> DataFrame:
    """Distinct cross-KB ``(eid1, eid2)`` co-occurring in a kept token block."""
    kept = kept_blocks.select("token")
    return (
        tokens1.join(kept, "token")
        .withColumnRenamed("eid", "eid1")
        .join(tokens2.withColumnRenamed("eid", "eid2"), "token")
        .select("eid1", "eid2")
        .distinct()
    )


@dataclass
class BlockStats:
    """The Table-2 row for one dataset."""

    n_name_blocks: int
    n_token_blocks: int
    name_comparisons: int
    token_comparisons: int
    cartesian: int
    precision: float
    recall: float
    f1: float
    purge_threshold: int


def block_stats(
    triples1: DataFrame,
    triples2: DataFrame,
    names1: DataFrame,
    names2: DataFrame,
    gt: DataFrame,
    max_comparisons: int | None = None,
) -> BlockStats:
    """Compute Table 2: block counts, cardinalities, and blocking P/R/F1.

    Blocking "predicts" every pair co-occurring in a (purged) token
    block or a name block; precision/recall are measured against the
    ground truth over those candidate pairs, as in the paper.
    """
    t1, t2 = literal_tokens(triples1), literal_tokens(triples2)
    tindex = token_block_index(t1, t2)
    kept, threshold = purge_blocks(tindex, max_comparisons)
    nindex = name_block_index(names1, names2)

    n_token_blocks = kept.count()
    n_name_blocks = nindex.count()
    token_comps = kept.agg(F.sum("comparisons")).collect()[0][0] or 0
    name_comps = (
        nindex.agg(F.sum(F.col("cnt1") * F.col("cnt2"))).collect()[0][0] or 0
    )

    cand = token_pairs(t1, t2, kept).union(name_pairs(names1, names2)).distinct()
    n_cand = cand.count()
    n_gt = gt.count()
    hit = cand.join(gt, ["eid1", "eid2"]).count()
    prec = 100.0 * hit / n_cand if n_cand else 0.0
    rec = 100.0 * hit / n_gt if n_gt else 0.0
    f1 = 2 * prec * rec / (prec + rec) if prec + rec else 0.0

    n1 = triples1.select("eid").distinct().count()
    n2 = triples2.select("eid").distinct().count()
    return BlockStats(
        n_name_blocks=n_name_blocks,
        n_token_blocks=n_token_blocks,
        name_comparisons=int(name_comps),
        token_comparisons=int(token_comps),
        cartesian=n1 * n2,
        precision=prec,
        recall=rec,
        f1=f1,
        purge_threshold=threshold,
    )
