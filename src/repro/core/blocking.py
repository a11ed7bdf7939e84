"""Composite blocking of one KB pair (Section 3.1) and its statistics (Table 2).

This is the only module that knows how a KB pair is blocked. The token
half and the name half are independent. ``token_blocking`` is the token
half: it tokenizes both KBs, builds the token-block index and applies
Block Purging, returning the cached tokens, the kept token blocks and the
purge threshold. ``composite_blocking`` is the whole composite blocking:
that token half plus the two KBs' entity names, as a :class:`Blocking`.
``Blocking.stats`` counts Table 2 and ``Blocking.candidate_pairs()`` is
the unpruned disjunctive blocking graph BSL and SiGMa-lite score; the
table harnesses share one ``Blocking`` per profile, and ``block_stats``
blocks, counts and releases in one call. ``graph.build_graph`` calls
``token_blocking`` itself, so that the token half runs concurrently with
name discovery. Whoever calls ``token_blocking`` or ``composite_blocking``
owns the cached tokens and releases them (``Blocking.unpersist()``).

Token blocking creates one block per token shared by the two KBs; the
block's comparison cardinality is ``EF1(t) * EF2(t)``. Block Purging
removes the stop-word-like blocks whose tokens carry near-zero valueSim
weight anyway (paper Section 3.3, deferring to [26]). The automatic
threshold is derived from that weight (DESIGN.md section 5): a block of
``c`` comparisons gives its token weight ``1/log2(c+1)``, so dropping
weights below ``MIN_TOKEN_WEIGHT`` = 0.1 caps a block at ``c <= 1023``
comparisons, whatever the size of the KB pair. Name blocking creates one
block per normalized name shared by the two KBs.
"""
from __future__ import annotations

from dataclasses import dataclass

from pyspark.sql import DataFrame
from pyspark.sql import functions as F

from .evaluation import evaluate
from .names import name_block_index, name_pairs
from .tokens import entity_frequency, literal_tokens, pair_token_weights

MIN_TOKEN_WEIGHT = 0.1
"""Block Purging drops the token blocks whose token weight is below this."""


def token_block_index(tokens1: DataFrame, tokens2: DataFrame) -> DataFrame:
    """``(token, ef1, ef2, weight, comparisons)`` — one row per token block.

    Only tokens present in both KBs form blocks with cross-KB
    comparisons (clean-clean ER compares across KBs only).
    """
    idx = pair_token_weights(entity_frequency(tokens1), entity_frequency(tokens2))
    return idx.withColumn("comparisons", F.col("ef1") * F.col("ef2"))


def purge_blocks(
    block_index: DataFrame, max_comparisons: int | None = None
) -> tuple[DataFrame, int]:
    """Drop excessively large token blocks; return (kept blocks, threshold).

    If ``max_comparisons`` is not given, it is derived from Def. 2.1's
    weighting: a block of cardinality ``EF1*EF2 = c`` carries token
    weight ``1/log2(c+1)``, so dropping blocks with weight below
    ``MIN_TOKEN_WEIGHT`` means ``c > 2**(1/MIN_TOKEN_WEIGHT) - 1`` (1023).
    These are exactly the stop-word blocks whose tokens contribute
    ~nothing to valueSim, so recall is preserved — the stated goal of
    Block Purging [26] in the paper.
    """
    if max_comparisons is None:
        max_comparisons = int(2 ** (1.0 / MIN_TOKEN_WEIGHT)) - 1
    return (
        block_index.filter(F.col("comparisons") <= max_comparisons),
        max_comparisons,
    )


def beta_scores(
    tokens1: DataFrame, tokens2: DataFrame, kept_blocks: DataFrame
) -> DataFrame:
    """``(eid1, eid2, beta)`` — valueSim for every pair sharing a kept token.

    This is the Meta-blocking-style weighting of Alg. 1 lines 10-14: the
    sum over shared tokens of ``1/log2(EF1*EF2+1)``, computed as a
    token-similarity join over the purged token blocks.
    """
    w = kept_blocks.select("token", "weight")
    return (
        tokens1.join(w, "token")
        .withColumnRenamed("eid", "eid1")
        .join(tokens2.withColumnRenamed("eid", "eid2"), "token")
        .groupBy("eid1", "eid2")
        .agg(F.sum("weight").alias("beta"))
    )


@dataclass
class Blocking:
    """The composite blocking of one KB pair: purged token blocks + name blocks."""

    tokens1: DataFrame  # (eid, token) of KB1, cached
    tokens2: DataFrame  # (eid, token) of KB2, cached
    kept: DataFrame     # (token, ef1, ef2, weight, comparisons) after purging
    purge_threshold: int
    names1: DataFrame   # (eid, name) of KB1
    names2: DataFrame   # (eid, name) of KB2

    def candidate_pairs(self) -> DataFrame:
        """Distinct ``(eid1, eid2)`` sharing a kept token block or a name block."""
        tokens = beta_scores(self.tokens1, self.tokens2, self.kept).select(
            "eid1", "eid2"
        )
        return tokens.union(name_pairs(self.names1, self.names2)).distinct()

    def stats(self, gt: DataFrame, n1: int, n2: int) -> BlockStats:
        """Table 2 for this blocking of a pair of ``n1`` x ``n2`` entities.

        Blocking "predicts" every pair co-occurring in a (purged) token
        block or a name block; precision/recall are those candidate pairs
        ``evaluate``d against the ground truth, as in the paper.
        """
        n_token_blocks, token_comps = self.kept.agg(
            F.count("*"), F.sum("comparisons")
        ).first()
        n_name_blocks, name_comps = (
            name_block_index(self.names1, self.names2)
            .agg(F.count("*"), F.sum(F.col("cnt1") * F.col("cnt2")))
            .first()
        )
        prf = evaluate(self.candidate_pairs(), gt)
        return BlockStats(
            n_name_blocks=n_name_blocks,
            n_token_blocks=n_token_blocks,
            name_comparisons=int(name_comps or 0),
            token_comparisons=int(token_comps or 0),
            cartesian=n1 * n2,
            precision=prf.precision,
            recall=prf.recall,
            f1=prf.f1,
            purge_threshold=self.purge_threshold,
        )

    def unpersist(self) -> None:
        """Release the cached tokens."""
        self.tokens1.unpersist()
        self.tokens2.unpersist()


def token_blocking(
    triples1: DataFrame, triples2: DataFrame, max_comparisons: int | None = None
) -> tuple[DataFrame, DataFrame, DataFrame, int]:
    """The token half of the blocking: ``(tokens1, tokens2, kept, threshold)``.

    ``tokens1``/``tokens2`` are ``(eid, token)``, cached; the caller
    unpersists them. ``kept`` is the token-block index after Block Purging
    and ``threshold`` its cardinality cap (``max_comparisons`` goes to
    ``purge_blocks``). The tuple is in ``Blocking``'s field order.
    """
    t1 = literal_tokens(triples1).cache()
    t2 = literal_tokens(triples2).cache()
    kept, threshold = purge_blocks(token_block_index(t1, t2), max_comparisons)
    return t1, t2, kept, threshold


def composite_blocking(
    triples1: DataFrame,
    triples2: DataFrame,
    names1: DataFrame,
    names2: DataFrame,
    max_comparisons: int | None = None,
) -> Blocking:
    """Block a KB pair: ``token_blocking`` plus the given names.

    The names are an argument because each caller picks its own name
    attributes.
    """
    return Blocking(*token_blocking(triples1, triples2, max_comparisons), names1, names2)


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
) -> BlockStats:
    """Compute Table 2 for a KB pair: block it, count it, release it."""
    b = composite_blocking(triples1, triples2, names1, names2)
    try:
        n1 = triples1.select("eid").distinct().count()
        n2 = triples2.select("eid").distinct().count()
        return b.stats(gt, n1, n2)
    finally:
        b.unpersist()
