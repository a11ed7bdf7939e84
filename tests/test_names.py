"""Unit tests for core.names: attribute importance, name extraction, name blocks."""
from __future__ import annotations

import pytest
from pyspark.sql import functions as F

from tests import reference
from tests.kbutil import kb
from repro.core.names import (
    alpha_edges,
    attribute_importance,
    entity_names,
    name_block_index,
    name_pairs,
    top_k_name_attrs,
)
from repro.oracle import assert_equivalent


@pytest.fixture(scope="module")
def attrkb(spark):
    # attr "a:name": 3 subjects, 3 distinct values, 3 instances
    # attr "a:type": 3 subjects, 1 distinct value, 3 instances
    # attr "a:note": 1 subject, 1 value
    return kb(
        spark,
        [
            (1, "a:name", "alpha", None),
            (2, "a:name", "beta", None),
            (3, "a:name", "gamma", None),
            (1, "a:type", "thing", None),
            (2, "a:type", "thing", None),
            (3, "a:type", "thing", None),
            (1, "a:note", "misc", None),
            (1, "a:rel", None, 2),
        ],
    )


class TestAttributeImportance:
    def test_support(self, spark, attrkb):
        rows = {r.attr: r for r in attribute_importance(attrkb, 3).collect()}
        assert rows["a:name"].support == pytest.approx(1.0)
        assert rows["a:note"].support == pytest.approx(1 / 3)

    def test_discriminability(self, spark, attrkb):
        rows = {r.attr: r for r in attribute_importance(attrkb, 3).collect()}
        assert rows["a:name"].discriminability == pytest.approx(1.0)
        assert rows["a:type"].discriminability == pytest.approx(1 / 3)

    def test_harmonic_mean(self, spark, attrkb):
        rows = {r.attr: r for r in attribute_importance(attrkb, 3).collect()}
        s, d = rows["a:type"].support, rows["a:type"].discriminability
        assert rows["a:type"].importance == pytest.approx(2 * s * d / (s + d))

    def test_relations_excluded(self, spark, attrkb):
        attrs = {r.attr for r in attribute_importance(attrkb, 3).collect()}
        assert "a:rel" not in attrs

    def test_matches_reference(self, micro_pair):
        got = (
            attribute_importance(micro_pair.triples1)
            .toPandas()
            .set_index("attr")
            .importance.round(9)
            .to_dict()
        )
        ref = (
            reference.attribute_importance(micro_pair.pdf1)
            .set_index("attr")
            .importance.round(9)
            .to_dict()
        )
        assert got == ref

    def test_oracle_equivalence(self, spark, micro_pair):
        t = micro_pair.triples1
        n = t.select("eid").distinct().count()
        got = attribute_importance(t, n).select(
            "attr",
            F.round("support", 9).alias("support"),
            F.round("discriminability", 9).alias("discriminability"),
        )
        assert_equivalent(
            got,
            f"""
            SELECT attr,
                   round(count(DISTINCT eid) * 1.0 / {n}, 9) AS support,
                   round(count(DISTINCT val) * 1.0 / count(*), 9)
                       AS discriminability
            FROM t WHERE val IS NOT NULL GROUP BY attr
            """,
            t=t,
        )


class TestTopKNameAttrs:
    def test_name_ranks_first(self, spark, attrkb):
        assert top_k_name_attrs(attrkb, 1) == ["a:name"]

    def test_k_two(self, spark, attrkb):
        got = top_k_name_attrs(attrkb, 2)
        assert got[0] == "a:name"
        assert len(got) == 2

    def test_deterministic_tie_break(self, spark):
        k = kb(
            spark,
            [
                (1, "a:x", "v1", None),
                (2, "a:x", "v2", None),
                (1, "a:y", "w1", None),
                (2, "a:y", "w2", None),
            ],
        )
        assert top_k_name_attrs(k, 1) == ["a:x"]  # tie -> name ascending

    def test_top_one_is_first_of_top_two(self, micro_pair):
        """SiGMa-lite's seed attribute is the first of MinoanER's top-2 list."""
        for t in (micro_pair.triples1, micro_pair.triples2):
            assert top_k_name_attrs(t, 1) == top_k_name_attrs(t, 2)[:1]

    def test_decoy_outranks_name_in_bbc_kb2(self, spark):
        """The BBCmusic-DBpedia k=1 failure mode: KB2's top attribute is
        the decoy id, the real name attribute only enters at k=2."""
        from repro.kbgen import PROFILES, generate_kb_pair
        from repro.kbgen.profiles import scaled

        pair = generate_kb_pair(spark, scaled(PROFILES["bbc_dbpedia"], 0.1), seed=7)
        top2 = top_k_name_attrs(pair.triples2, 2)
        assert top2[0] == "w0:id"
        assert "w0:name" in top2


class TestEntityNames:
    def test_normalizes_case_and_space(self, spark):
        k = kb(spark, [(1, "a:name", "  Golden   FORK ", None)])
        rows = entity_names(k, ["a:name"]).collect()
        assert rows[0].name == "golden fork"

    def test_only_selected_attrs(self, spark, attrkb):
        names = {r.name for r in entity_names(attrkb, ["a:name"]).collect()}
        assert names == {"alpha", "beta", "gamma"}

    def test_empty_attr_list(self, spark, attrkb):
        assert entity_names(attrkb, []).count() == 0

    def test_multiple_name_attrs(self, spark, attrkb):
        names = entity_names(attrkb, ["a:name", "a:note"])
        assert names.filter(F.col("eid") == 1).count() == 2


class TestNameBlocks:
    def _two_kbs(self, spark):
        k1 = kb(
            spark,
            [
                (1, "a:name", "unique shared", None),
                (2, "a:name", "popular", None),
                (3, "a:name", "popular", None),
                (4, "a:name", "kb1 only", None),
            ],
        )
        k2 = kb(
            spark,
            [
                (11, "b:name", "Unique  Shared", None),
                (12, "b:name", "popular", None),
                (14, "b:name", "kb2 only", None),
            ],
        )
        n1 = entity_names(k1, ["a:name"])
        n2 = entity_names(k2, ["b:name"])
        return n1, n2

    def test_block_index_counts(self, spark):
        n1, n2 = self._two_kbs(spark)
        idx = {r.name: (r.cnt1, r.cnt2) for r in name_block_index(n1, n2).collect()}
        assert idx == {"unique shared": (1, 1), "popular": (2, 1)}

    def test_alpha_only_1x1_blocks(self, spark):
        n1, n2 = self._two_kbs(spark)
        pairs = {(r.eid1, r.eid2) for r in alpha_edges(n1, n2).collect()}
        assert pairs == {(1, 11)}  # "popular" block is 2x1 -> excluded

    def test_alpha_pair_with_two_unique_names_once(self, spark):
        """An entity with two names, each held only by it in KB1 and only by
        one entity in KB2, gives that alpha pair once."""
        k1 = kb(spark, [(1, "a:name", "first", None), (1, "a:name", "second", None)])
        k2 = kb(spark, [(11, "b:name", "First", None), (11, "b:name", "second", None)])
        got = alpha_edges(entity_names(k1, ["a:name"]), entity_names(k2, ["b:name"]))
        assert [(r.eid1, r.eid2) for r in got.collect()] == [(1, 11)]

    def test_name_pairs_all_cooccurrences(self, spark):
        n1, n2 = self._two_kbs(spark)
        pairs = {(r.eid1, r.eid2) for r in name_pairs(n1, n2).collect()}
        assert pairs == {(1, 11), (2, 12), (3, 12)}

    def test_alpha_subset_of_name_pairs(self, micro_pair, micro_graph):
        n1 = entity_names(micro_pair.triples1, micro_graph.name_attrs1)
        n2 = entity_names(micro_pair.triples2, micro_graph.name_attrs2)
        a = {(r.eid1, r.eid2) for r in alpha_edges(n1, n2).collect()}
        p = {(r.eid1, r.eid2) for r in name_pairs(n1, n2).collect()}
        assert a <= p
