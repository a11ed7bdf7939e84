"""Unit tests for core.tokens: tokenization, EF, pair weights (Def. 2.1)."""
from __future__ import annotations

import math

import pytest
from pyspark.sql import functions as F

from tests import reference
from tests.kbutil import kb
from repro.baselines.bsl import entity_grams
from repro.core.tokens import entity_frequency, literal_tokens, pair_token_weights
from repro.oracle import assert_equivalent
from repro.tables.table1 import kb_stats


@pytest.fixture(scope="module")
def tiny(spark):
    return kb(
        spark,
        [
            (1, "a:label", "Golden Fork", None),
            (1, "a:desc", "fine-dining in Bray!", None),
            (1, "a:rel", None, 2),
            (2, "a:label", "Bray", None),
            (2, "a:desc", "bray TOWN", None),
            (3, "a:label", "", None),
        ],
    )


class TestLiteralTokens:
    def test_lowercases(self, spark, tiny):
        toks = {r.token for r in literal_tokens(tiny).collect()}
        assert "golden" in toks and "Golden" not in toks

    def test_splits_on_non_alnum(self, spark, tiny):
        toks = {
            r.token
            for r in literal_tokens(tiny).filter(F.col("eid") == 1).collect()
        }
        assert {"fine", "dining", "in", "bray"} <= toks

    def test_distinct_per_entity(self, spark, tiny):
        rows = literal_tokens(tiny).filter(
            (F.col("eid") == 2) & (F.col("token") == "bray")
        )
        assert rows.count() == 1  # appears in two values, counted once

    def test_ignores_relation_rows(self, spark, tiny):
        # entity 1's relation to 2 contributes no tokens
        toks = literal_tokens(tiny).filter(F.col("eid") == 1)
        assert toks.filter(F.col("token") == "2").count() == 0

    def test_drops_empty_tokens(self, spark, tiny):
        assert literal_tokens(tiny).filter(F.col("token") == "").count() == 0

    def test_entity_with_empty_value_has_no_tokens(self, spark, tiny):
        assert literal_tokens(tiny).filter(F.col("eid") == 3).count() == 0

    def test_schema(self, spark, tiny):
        assert literal_tokens(tiny).columns == ["eid", "token"]

    def test_matches_reference(self, micro_pair):
        got = {
            (r.eid, r.token)
            for r in literal_tokens(micro_pair.triples1).collect()
        }
        ref = {
            (e, t)
            for e, ts in reference.tokens_of(micro_pair.pdf1).items()
            for t in ts
        }
        assert got == ref


class TestValueTokens:
    def test_readers_agree_with_reference(self, micro_pair):
        """``literal_tokens``, Table 1's token occurrences and BSL's unigrams
        all tokenize through ``value_tokens``; each agrees with the reference
        tokenizer on micro."""
        t, pdf = micro_pair.triples1, micro_pair.pdf1
        counts = reference.token_counts(pdf)
        got = {(r.eid, r.token) for r in literal_tokens(t).collect()}
        assert got == {(e, tok) for e, c in counts.items() for tok in c}
        n = pdf.eid.nunique()
        occurrences = sum(sum(c.values()) for c in counts.values())
        assert kb_stats(t, n)["avg_tokens"] == round(occurrences / n, 2)
        unigrams = {(r.eid, r.gram): r.tf for r in entity_grams(t, 1).collect()}
        assert unigrams == {(e, tok): k for e, c in counts.items() for tok, k in c.items()}


class TestEntityFrequency:
    def test_counts(self, spark, tiny):
        ef = {
            r.token: r.ef for r in entity_frequency(literal_tokens(tiny)).collect()
        }
        assert ef["bray"] == 2  # entities 1 and 2
        assert ef["golden"] == 1

    def test_oracle_equivalence(self, spark, micro_pair):
        toks = literal_tokens(micro_pair.triples1)
        assert_equivalent(
            entity_frequency(toks),
            "SELECT token, count(*) AS ef FROM toks GROUP BY token",
            toks=toks,
        )

    def test_total_mass(self, spark, micro_pair):
        toks = literal_tokens(micro_pair.triples1)
        total = entity_frequency(toks).agg(F.sum("ef")).collect()[0][0]
        assert total == toks.count()


class TestPairTokenWeights:
    def test_unique_token_weight_is_one(self, spark):
        k1 = kb(spark, [(1, "a:x", "unicorn", None)])
        k2 = kb(spark, [(9, "b:y", "unicorn", None)])
        w = pair_token_weights(
            entity_frequency(literal_tokens(k1)),
            entity_frequency(literal_tokens(k2)),
        ).collect()
        assert len(w) == 1
        assert w[0].weight == pytest.approx(1.0)  # 1/log2(1*1+1)

    def test_weight_formula(self, spark, micro_pair):
        t1 = literal_tokens(micro_pair.triples1)
        t2 = literal_tokens(micro_pair.triples2)
        rows = pair_token_weights(
            entity_frequency(t1), entity_frequency(t2)
        ).collect()
        assert rows
        for r in rows:
            assert r.weight == pytest.approx(
                1.0 / math.log2(r.ef1 * r.ef2 + 1)
            )

    def test_inner_join_semantics(self, spark):
        k1 = kb(spark, [(1, "a:x", "only in one", None)])
        k2 = kb(spark, [(9, "b:y", "different words", None)])
        w = pair_token_weights(
            entity_frequency(literal_tokens(k1)),
            entity_frequency(literal_tokens(k2)),
        )
        assert w.count() == 0

    def test_oracle_equivalence(self, spark, micro_pair):
        t1 = literal_tokens(micro_pair.triples1)
        t2 = literal_tokens(micro_pair.triples2)
        got = pair_token_weights(entity_frequency(t1), entity_frequency(t2))
        assert_equivalent(
            got.select("token", "ef1", "ef2", F.round("weight", 9).alias("weight")),
            """
            WITH e1 AS (SELECT token, count(*) AS ef1 FROM t1 GROUP BY token),
                 e2 AS (SELECT token, count(*) AS ef2 FROM t2 GROUP BY token)
            SELECT e1.token, ef1, ef2,
                   round(1.0 / log2(ef1 * ef2 + 1), 9) AS weight
            FROM e1 JOIN e2 USING (token)
            """,
            t1=t1,
            t2=t2,
        )

    def test_weight_monotone_decreasing(self, spark, micro_pair):
        t1 = literal_tokens(micro_pair.triples1)
        t2 = literal_tokens(micro_pair.triples2)
        pdf = (
            pair_token_weights(entity_frequency(t1), entity_frequency(t2))
            .toPandas()
            .sort_values("weight")
        )
        prod = (pdf.ef1 * pdf.ef2).to_numpy()
        assert all(prod[i] >= prod[i + 1] for i in range(len(prod) - 1))
