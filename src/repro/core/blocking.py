"""Composite blocking of one KB pair (Section 3.1) and its statistics (Table 2).

This is the only module that knows how a KB pair is blocked. A
:class:`Blocking` holds all a KB pair's evidence that Algorithm 1, Table 2,
BSL and SiGMa-lite read: |E1|, |E2|, both KBs' top-k name attributes and
names, the cached tokens, the purged token blocks and beta (cached).
``composite_blocking`` builds it once per pair: it counts ``n1 ‖ n2``
(``‖``: jobs submitted together, ``parallel.concurrently``); the rest is
built when first read, the name attributes ``attrs1 ‖ attrs2``.
``block_stats`` blocks with the names it is given, counts Table 2 and
releases in one call. Whoever builds a ``Blocking`` releases it
(``unpersist()``).

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
from functools import cached_property

from pyspark.sql import DataFrame
from pyspark.sql import functions as F

from .config import DEFAULT_CONFIG, MinoanerConfig
from .evaluation import evaluate
from .names import entity_names, name_block_index, name_pairs, top_k_name_attrs
from .parallel import concurrently
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
    """The composite blocking of one KB pair, and the evidence it yields.

    Everything but |E| is built when first read, by whichever thread reads
    it (a branch of ``build_graph``, or a table), so that in Algorithm 1
    the name-attribute discovery and the planning of the tokens and beta
    overlap the other branches, and each is computed once per pair.
    """

    triples1: DataFrame
    triples2: DataFrame
    n1: int                 # |E1|
    n2: int                 # |E2|
    cfg: MinoanerConfig     # k name attributes per KB; the Block Purging cap

    @cached_property
    def name_attrs(self) -> list[list[str]]:
        """Both KBs' top-k name attributes, best first, discovered at once."""
        t1, t2, k = self.triples1, self.triples2, self.cfg.k
        return concurrently(
            t1.sparkSession,
            lambda: top_k_name_attrs(t1, k, self.n1),
            lambda: top_k_name_attrs(t2, k, self.n2),
        )

    @cached_property
    def names(self) -> list[DataFrame]:
        """``(eid, name)`` of each KB, from its name attributes."""
        return [entity_names(t, a) for t, a in zip((self.triples1, self.triples2), self.name_attrs)]

    @cached_property
    def tokens1(self) -> DataFrame:
        """``(eid, token)`` of KB1, cached."""
        return literal_tokens(self.triples1).cache()

    @cached_property
    def tokens2(self) -> DataFrame:
        """``(eid, token)`` of KB2, cached."""
        return literal_tokens(self.triples2).cache()

    @cached_property
    def _purged(self) -> tuple[DataFrame, int]:
        index = token_block_index(self.tokens1, self.tokens2)
        return purge_blocks(index, self.cfg.purge_max_comparisons)

    @property
    def kept(self) -> DataFrame:
        """``(token, ef1, ef2, weight, comparisons)`` of the blocks Block Purging keeps."""
        return self._purged[0]

    @property
    def purge_threshold(self) -> int:
        return self._purged[1]

    @cached_property
    def beta(self) -> DataFrame:
        """``(eid1, eid2, beta)`` for every pair sharing a kept token block, cached."""
        return beta_scores(self.tokens1, self.tokens2, self.kept).cache()

    def candidate_pairs(self) -> DataFrame:
        """Distinct ``(eid1, eid2)`` sharing a kept token block or a name block."""
        tokens = self.beta.select("eid1", "eid2")
        return tokens.union(name_pairs(*self.names)).distinct()

    def stats(self, gt: DataFrame) -> BlockStats:
        """Table 2 for this blocking.

        Blocking "predicts" every pair co-occurring in a (purged) token
        block or a name block; precision/recall are those candidate pairs
        ``evaluate``d against the ground truth, as in the paper.
        """
        n_token_blocks, token_comps = self.kept.agg(
            F.count("*"), F.sum("comparisons")
        ).first()
        n_name_blocks, name_comps = (
            name_block_index(*self.names)
            .agg(F.count("*"), F.sum(F.col("cnt1") * F.col("cnt2")))
            .first()
        )
        prf = evaluate(self.candidate_pairs(), gt)
        return BlockStats(
            n_name_blocks=n_name_blocks,
            n_token_blocks=n_token_blocks,
            name_comparisons=int(name_comps or 0),
            token_comparisons=int(token_comps or 0),
            cartesian=self.n1 * self.n2,
            precision=prf.precision,
            recall=prf.recall,
            f1=prf.f1,
            purge_threshold=self.purge_threshold,
        )

    def unpersist(self) -> None:
        """Release the cached tokens and beta, those that were built."""
        for name in ("tokens1", "tokens2", "beta"):
            if name in self.__dict__:
                self.__dict__[name].unpersist()


def composite_blocking(triples1: DataFrame, triples2: DataFrame, cfg: MinoanerConfig) -> Blocking:
    """Block a KB pair: ``n1 ‖ n2`` now, the rest when first read."""
    n1, n2 = concurrently(
        triples1.sparkSession,
        lambda: triples1.select("eid").distinct().count(),
        lambda: triples2.select("eid").distinct().count(),
    )
    return Blocking(triples1, triples2, n1, n2, cfg)


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
    """Table 2 for a KB pair blocked with the given names (no attribute is
    discovered): block it, count it, release it."""
    b = composite_blocking(triples1, triples2, DEFAULT_CONFIG)
    b.names = [names1, names2]  # in place of discovered ones: name_attrs is never read
    try:
        return b.stats(gt)
    finally:
        b.unpersist()
