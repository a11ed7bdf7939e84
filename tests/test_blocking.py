"""Unit tests for core.blocking: token blocks, purging, Table-2 stats."""
from __future__ import annotations

import math

import pytest
from pyspark.sql import functions as F

from tests import reference as ref
from tests.kbutil import gt_df, kb, persistent_rdds
from repro.core import MinoanerConfig
from repro.core.blocking import (
    Blocking,
    block_stats,
    composite_blocking,
    purge_blocks,
    token_block_index,
)
from repro.core.names import entity_names
from repro.core.tokens import literal_tokens
from repro.oracle import assert_equivalent


@pytest.fixture(scope="module")
def blockkbs(spark):
    k1 = kb(
        spark,
        [
            (1, "a:d", "shared rare", None),
            (2, "a:d", "shared common", None),
            (3, "a:d", "common other", None),
        ],
    )
    k2 = kb(
        spark,
        [
            (11, "b:d", "rare thing", None),
            (12, "b:d", "common thing", None),
            (13, "b:d", "common stuff", None),
        ],
    )
    return k1, k2


class TestTokenBlockIndex:
    def test_only_shared_tokens(self, spark, blockkbs):
        k1, k2 = blockkbs
        idx = token_block_index(literal_tokens(k1), literal_tokens(k2))
        toks = {r.token for r in idx.collect()}
        assert toks == {"rare", "common"}  # 'shared'/'thing' are one-sided

    def test_comparisons_product(self, spark, blockkbs):
        k1, k2 = blockkbs
        idx = {
            r.token: r
            for r in token_block_index(
                literal_tokens(k1), literal_tokens(k2)
            ).collect()
        }
        assert idx["rare"].comparisons == 1 * 1
        assert idx["common"].comparisons == 2 * 2

    def test_oracle_equivalence(self, micro_blocking):
        t1, t2 = micro_blocking.tokens1, micro_blocking.tokens2
        got = token_block_index(t1, t2).select("token", "ef1", "ef2", "comparisons")
        assert_equivalent(
            got,
            """
            WITH e1 AS (SELECT token, count(*) AS ef1 FROM t1 GROUP BY token),
                 e2 AS (SELECT token, count(*) AS ef2 FROM t2 GROUP BY token)
            SELECT token, ef1, ef2, ef1 * ef2 AS comparisons
            FROM e1 JOIN e2 USING (token)
            """,
            t1=t1,
            t2=t2,
        )


class TestPurgeBlocks:
    def test_explicit_threshold(self, spark, blockkbs):
        k1, k2 = blockkbs
        idx = token_block_index(literal_tokens(k1), literal_tokens(k2))
        kept, thr = purge_blocks(idx, max_comparisons=1)
        assert thr == 1
        assert {r.token for r in kept.collect()} == {"rare"}

    def test_auto_threshold_is_weight_derived(self, spark, blockkbs):
        """The automatic cap is ``min(1023, max(1, total // 100))``.

        With at least 102,300 comparisons in all, the weight bound binds:
        the cap is 1023, and a block of 1024 comparisons (token weight
        below 0.1) goes. On ``blockkbs`` (1 + 4 comparisons) the relative
        bound binds at its floor of 1: the one-comparison block stays.
        """
        sizes = [1023] * 100 + [1024]  # 103,324 comparisons in all
        idx = spark.createDataFrame(
            [(f"t{i}", 1, c, 1 / math.log2(c + 1), c) for i, c in enumerate(sizes)],
            "token string, ef1 long, ef2 long, weight double, comparisons long",
        )
        kept, thr = purge_blocks(idx)
        assert thr == 2**10 - 1
        assert kept.count() == 100
        assert kept.agg(F.max("comparisons")).first()[0] == 1023

        k1, k2 = blockkbs
        idx = token_block_index(literal_tokens(k1), literal_tokens(k2))
        kept, thr = purge_blocks(idx)
        assert thr == max(1, 5 // 100) == 1
        assert {r.token for r in kept.collect()} == {"rare"}  # 'common' (4) goes

    def test_purges_stopword_head_on_profile(self, micro_blocking):
        b = micro_blocking
        idx = token_block_index(b.tokens1, b.tokens2)
        kept, thr = b.kept, b.purge_threshold
        assert kept.count() < idx.count()  # the Zipf head must go
        assert (
            kept.agg(F.max("comparisons")).collect()[0][0] <= thr
        )

    def test_purged_tokens_are_frequent(self, micro_blocking):
        b = micro_blocking
        idx = token_block_index(b.tokens1, b.tokens2)
        kept, thr = b.kept, b.purge_threshold
        dropped = idx.join(kept.select("token"), "token", "left_anti")
        assert dropped.agg(F.min("comparisons")).collect()[0][0] > thr


def recount_candidates(pdf1, pdf2, attrs1, attrs2, cap) -> list[tuple[int, int]]:
    """Pure-Python composite blocking: pairs sharing a token block of at
    most ``cap`` comparisons, plus pairs sharing a normalized name."""
    tok1, tok2 = ref.tokens_of(pdf1), ref.tokens_of(pdf2)
    ef1, ef2 = ref.entity_frequency(tok1), ref.entity_frequency(tok2)
    kept = {t for t in ef1.keys() & ef2.keys() if ef1[t] * ef2[t] <= cap}
    names1, names2 = ref.names_of(pdf1, attrs1), ref.names_of(pdf2, attrs2)
    return sorted(
        (e1, e2)
        for e1 in tok1.keys() | names1.keys()
        for e2 in tok2.keys() | names2.keys()
        if tok1.get(e1, set()) & tok2.get(e2, set()) & kept
        or names1.get(e1, set()) & names2.get(e2, set())
    )


def candidates(b: Blocking, k1, k2) -> list[tuple[int, int]]:
    """``b.candidate_pairs()`` of the KBs ``k1``, ``k2`` as a sorted list,
    checked against the recount (a sorted list, so a duplicated pair would
    show)."""
    got = sorted((r.eid1, r.eid2) for r in b.candidate_pairs().collect())
    assert got == recount_candidates(
        k1.toPandas(), k2.toPandas(), *b.name_attrs, b.purge_threshold
    )
    return got


def token_candidates(k1, k2, cap=None) -> list[tuple[int, int]]:
    """``candidates`` of a blocking with no name attribute (k = 0)."""
    b = composite_blocking(k1, k2, MinoanerConfig(k=0, purge_max_comparisons=cap))
    try:
        assert b.name_attrs == [[], []]
        return candidates(b, k1, k2)
    finally:
        b.unpersist()


class TestTokenPairs:
    """The token-block side of ``Blocking.candidate_pairs()`` (no names)."""

    def test_pairs_from_kept_blocks_only(self, spark, blockkbs):
        k1, k2 = blockkbs
        assert token_candidates(k1, k2, cap=1) == [(1, 11)]  # only 'rare' is kept

    def test_pairs_distinct(self, spark):
        k1 = kb(spark, [(1, "a:d", "x y", None)])
        k2 = kb(spark, [(9, "b:d", "x y", None)])
        assert token_candidates(k1, k2) == [(1, 9)]  # two shared tokens, one pair


class TestCandidatePairs:
    def test_equals_recount_on_micro(self, micro_pair, micro_blocking):
        """Token-block pairs under the purge cap plus name-block pairs."""
        attrs1 = micro_blocking.name_attrs[0]
        assert ref.names_of(micro_pair.pdf1, attrs1)  # names take part
        assert candidates(micro_blocking, micro_pair.triples1, micro_pair.triples2)


class TestBlockStats:
    @pytest.fixture(scope="class")
    def stats(self, micro_pair, micro_blocking):
        attrs1, attrs2 = micro_blocking.name_attrs
        n1 = entity_names(micro_pair.triples1, attrs1)
        n2 = entity_names(micro_pair.triples2, attrs2)
        return block_stats(
            micro_pair.triples1, micro_pair.triples2, n1, n2, micro_pair.gt
        )

    def test_equals_the_shared_blockings(self, stats, micro_pair, micro_blocking):
        """Blocking with the same names, ``block_stats`` counts what the
        shared ``Blocking`` does."""
        assert stats == micro_blocking.stats(micro_pair.gt)

    def test_recall_above_99(self, stats):
        assert stats.recall >= 99.0

    def test_precision_low_but_positive(self, stats):
        assert 0.0 < stats.precision < 50.0

    def test_cartesian(self, stats, micro_pair):
        n1 = micro_pair.triples1.select("eid").distinct().count()
        n2 = micro_pair.triples2.select("eid").distinct().count()
        assert stats.cartesian == n1 * n2

    def test_comparisons_below_cartesian(self, stats):
        assert stats.token_comparisons + stats.name_comparisons < stats.cartesian

    def test_f1_consistent(self, stats):
        p, r = stats.precision, stats.recall
        assert stats.f1 == pytest.approx(2 * p * r / (p + r))

    def test_counts_positive(self, stats):
        assert stats.n_name_blocks > 0
        assert stats.n_token_blocks > 0

    def test_duplicate_truth_counts_once(self, spark, blockkbs):
        k1, k2 = blockkbs
        names = entity_names(k1, []), entity_names(k2, [])

        def prf(truth):
            s = block_stats(k1, k2, *names, gt_df(spark, truth))
            return s.precision, s.recall, s.f1

        assert prf([(1, 11), (1, 11), (2, 13)]) == prf([(1, 11), (2, 13)])

    def test_releases_its_tokens(self, spark, blockkbs):
        k1, k2 = blockkbs
        names = entity_names(k1, []), entity_names(k2, [])
        before = persistent_rdds(spark)
        block_stats(k1, k2, *names, gt_df(spark, [(1, 11)]))
        assert persistent_rdds(spark) <= before
