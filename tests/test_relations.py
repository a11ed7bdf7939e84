"""Unit tests for core.relations: importance stats and top neighbors."""
from __future__ import annotations

import pytest
from pyspark.sql import functions as F

from tests import reference
from tests.kbutil import kb, n_entities, top_neighbors
from repro.core.relations import relation_edges, relation_importance, top_in_neighbors
from repro.oracle import assert_equivalent


@pytest.fixture(scope="module")
def relkb(spark):
    # "a:good": 4 edges, 4 distinct objects (discriminative)
    # "a:hub":  4 edges, 1 distinct object (hub-like); equal support, so
    # discriminability decides the harmonic-mean importance.
    return kb(
        spark,
        [
            (1, "a:good", None, 10),
            (2, "a:good", None, 11),
            (3, "a:good", None, 12),
            (4, "a:good", None, 13),
            (1, "a:hub", None, 99),
            (2, "a:hub", None, 99),
            (3, "a:hub", None, 99),
            (4, "a:hub", None, 99),
            (5, "a:hub", None, 99),
            (1, "a:name", "x", None),
        ],
    )


class TestRelationImportance:
    def test_support_formula(self, spark, relkb):
        n = relkb.select("eid").distinct().count()  # subjects + objects seen
        rows = {r.rel: r for r in relation_importance(relkb, n).collect()}
        assert rows["a:good"].support == pytest.approx(4 / n**2)
        assert rows["a:hub"].support == pytest.approx(5 / n**2)

    def test_discriminability(self, spark, relkb):
        rows = {r.rel: r for r in relation_importance(relkb, 8).collect()}
        assert rows["a:good"].discriminability == pytest.approx(1.0)
        assert rows["a:hub"].discriminability == pytest.approx(1 / 5)

    def test_hub_less_important_than_discriminative(self, spark, relkb):
        rows = {r.rel: r for r in relation_importance(relkb, 8).collect()}
        assert rows["a:good"].importance > rows["a:hub"].importance

    def test_literal_attrs_excluded(self, spark, relkb):
        rels = {r.rel for r in relation_importance(relkb, 8).collect()}
        assert "a:name" not in rels

    def test_duplicate_edges_counted_once(self, spark):
        k = kb(spark, [(1, "a:r", None, 2), (1, "a:r", None, 2)])
        row = relation_importance(k, 2).collect()[0]
        assert row.discriminability == pytest.approx(1.0)

    def test_matches_reference(self, micro_pair):
        got = (
            relation_importance(micro_pair.triples1, n_entities(micro_pair.triples1))
            .toPandas()
            .set_index("rel")
            .importance.round(9)
            .to_dict()
        )
        ref = (
            reference.relation_importance(micro_pair.pdf1)
            .set_index("rel")
            .importance.round(9)
            .to_dict()
        )
        assert got == ref

    def test_oracle_equivalence(self, spark, micro_pair):
        t = micro_pair.triples1
        n = t.select("eid").distinct().count()
        got = relation_importance(t, n).select(
            "rel",
            F.round("support", 12).alias("support"),
            F.round("discriminability", 9).alias("discriminability"),
        )
        assert_equivalent(
            got,
            f"""
            WITH e AS (
              SELECT DISTINCT eid, attr AS rel, obj FROM t WHERE obj IS NOT NULL
            )
            SELECT rel,
                   round(count(*) * 1.0 / ({n} * {n}), 12) AS support,
                   round(count(DISTINCT obj) * 1.0 / count(*), 9)
                       AS discriminability
            FROM e GROUP BY rel
            """,
            t=t,
        )


class TestTopNeighbors:
    def test_top1_picks_most_important_relation(self, spark, relkb):
        top = top_neighbors(relkb, 1)
        nb1 = {r.neighbor for r in top.filter(F.col("eid") == 1).collect()}
        assert nb1 == {10}  # a:good outranks a:hub

    def test_top2_includes_hub(self, spark, relkb):
        top = top_neighbors(relkb, 2)
        nb1 = {r.neighbor for r in top.filter(F.col("eid") == 1).collect()}
        assert nb1 == {10, 99}

    def test_entity_with_only_hub(self, spark, relkb):
        top = top_neighbors(relkb, 1)
        nb5 = {r.neighbor for r in top.filter(F.col("eid") == 5).collect()}
        assert nb5 == {99}  # local order: its only relation is its best

    def test_matches_reference(self, micro_pair):
        for n in (1, 3):
            got: dict[int, set[int]] = {}
            for r in top_neighbors(micro_pair.triples1, n).collect():
                got.setdefault(r.eid, set()).add(r.neighbor)
            ref = reference.top_n_neighbors(micro_pair.pdf1, n)
            assert got == ref

    def test_importance_tie_at_the_cut_breaks_on_relation_name(self, spark):
        """Two relations of equal instance and distinct-object counts, so of
        equal importance, both used twice by entity 1: with N = 1 it keeps
        both objects of the relation whose name sorts first, with N = 2 all
        four."""
        k = kb(
            spark,
            [
                (1, "a:b", None, 20),
                (1, "a:b", None, 21),
                (1, "a:a", None, 10),
                (1, "a:a", None, 11),
            ],
        )
        imp = {r.rel: r.importance for r in relation_importance(k, n_entities(k)).collect()}
        assert imp["a:a"] == imp["a:b"]
        for n, want in ((1, {10, 11}), (2, {10, 11, 20, 21})):
            got = {(r.eid, r.neighbor) for r in top_neighbors(k, n).collect()}
            assert got == {(1, o) for o in want}
            assert reference.top_n_neighbors(k.toPandas(), n) == {1: want}

    def test_in_neighbors_is_reverse(self, spark, relkb):
        top = top_neighbors(relkb, 2)
        inn = top_in_neighbors(top)
        fwd = {(r.eid, r.neighbor) for r in top.collect()}
        rev = {(r.in_neighbor, r.eid) for r in inn.collect()}
        assert fwd == rev

    def test_relation_edges_dedup(self, spark):
        k = kb(spark, [(1, "a:r", None, 2), (1, "a:r", None, 2)])
        assert relation_edges(k).count() == 1
