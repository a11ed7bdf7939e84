"""Tests for kbgen.stats (Table 1 statistics)."""
from __future__ import annotations

import pytest
from pyspark.sql import functions as F

from tests.kbutil import kb
from repro.kbgen.stats import dataset_stats, kb_stats
from repro.oracle import assert_equivalent


@pytest.fixture(scope="module")
def statkb(spark):
    return kb(
        spark,
        [
            (1, "v0:label", "Alpha One", None),
            (1, "v0:type", "ty1", None),
            (2, "v0:label", "Beta", None),
            (2, "v1:note", "two words", None),
            (1, "v0:rel", None, 2),
        ],
    )


N_STATKB = 2  # statkb's entities: 1 and 2


class TestKbStats:
    def test_entities(self, statkb):
        """|E| is the caller's count, and the average is taken over it."""
        s = kb_stats(statkb, 3)
        assert s["entities"] == 3
        assert s["avg_tokens"] == pytest.approx(6 / 3)

    def test_triples(self, statkb):
        assert kb_stats(statkb, N_STATKB)["triples"] == 5

    def test_avg_tokens_counts_occurrences(self, statkb):
        # 2 + 1 + 1 + 2 = 6 tokens over 2 entities
        assert kb_stats(statkb, N_STATKB)["avg_tokens"] == pytest.approx(3.0)

    def test_attribute_and_relation_counts(self, statkb):
        s = kb_stats(statkb, N_STATKB)
        assert s["attributes"] == 3
        assert s["relations"] == 1

    def test_types(self, statkb):
        assert kb_stats(statkb, N_STATKB)["types"] == 1

    def test_vocabularies(self, statkb):
        assert kb_stats(statkb, N_STATKB)["vocabularies"] == 2  # v0, v1

    def test_entities_oracle(self, statkb):
        got = statkb.select(
            F.countDistinct("eid").alias("n")
        )
        assert_equivalent(
            got, "SELECT count(DISTINCT eid) AS n FROM t", t=statkb
        )


class TestDatasetStats:
    def test_micro_row(self, micro_pair, micro_blocking):
        s = dataset_stats(micro_pair, micro_blocking.n1, micro_blocking.n2)
        assert s["matches"] == micro_pair.profile.n_matches
        assert s["kb1"]["entities"] == micro_pair.profile.n1
        assert s["kb2"]["entities"] == micro_pair.profile.n2
        assert s["kb1"]["avg_tokens"] > 0
        assert s["kb2"]["relations"] >= 1
