"""Unit tests for the matching rules R1-R4 (Algorithm 2).

The rules read a pruned blocking graph, so these tests construct small
graphs directly (exact control over alpha/beta/gamma edges and ranks)
and assert each rule's decisions, including the paper's edge cases.
"""
from __future__ import annotations

import pandas as pd
import pytest
from pyspark.sql import functions as F

from tests import reference
from tests.test_graph import EDGE_FRAMES
from repro.core import DEFAULT_CONFIG, MinoanerRun
from repro.core.graph import BlockingGraph
from repro.core.matching import match_graph, rule1, rule2, rule3, rule4
from repro.tables.table4 import ablations

VARIANTS = ["R1", "R2", "R3", "no_R4", "no_neighbors", "full"]

BETA_COLS = ["eid1", "eid2", "beta", "rank"]
GAMMA_COLS = ["eid1", "eid2", "gamma", "rank"]


def mkgraph(
    spark,
    alpha=(),
    b1=(),
    b2=(),
    g1=(),
    g2=(),
    n1: int = 10,
    n2: int = 10,
) -> BlockingGraph:
    def df(rows, cols):
        from pyspark.sql import types as T

        schema = T.StructType(
            [
                T.StructField(
                    c,
                    T.LongType() if c in ("eid1", "eid2", "rank") else T.DoubleType(),
                    False,
                )
                for c in cols
            ]
        )
        return spark.createDataFrame(list(rows), schema=schema)

    return BlockingGraph(
        alpha=df([(a, b) for a, b in alpha], ["eid1", "eid2"]),
        beta_out1=df(b1, BETA_COLS),
        beta_out2=df(b2, BETA_COLS),
        gamma_out1=df(g1, GAMMA_COLS),
        gamma_out2=df(g2, GAMMA_COLS),
        n1=n1,
        n2=n2,
        name_attrs1=["a:label"],
        name_attrs2=["b:name"],
        purge_threshold=1023,
    )


def pairs(df) -> set[tuple[int, int]]:
    return {(r.eid1, r.eid2) for r in df.select("eid1", "eid2").collect()}


def ruled(df) -> list[tuple[int, int, str]]:
    """``(eid1, eid2, rule)`` rows, sorted."""
    return sorted((r.eid1, r.eid2, r.rule) for r in df.collect())


class TestRule1:
    def test_alpha_edges_match(self, spark):
        g = mkgraph(spark, alpha=[(1, 11), (2, 12)])
        assert pairs(rule1(g)) == {(1, 11), (2, 12)}

    def test_no_alpha_no_match(self, spark):
        g = mkgraph(spark, b1=[(1, 11, 5.0, 1)])
        assert rule1(g).count() == 0

    def test_rule_column(self, spark):
        g = mkgraph(spark, alpha=[(1, 11)])
        assert rule1(g).collect()[0].rule == "R1"


class TestRule2:
    def test_matches_top_beta_at_least_one(self, spark):
        g = mkgraph(spark, b1=[(1, 11, 1.2, 1), (1, 12, 0.9, 2)])
        assert pairs(rule2(g)) == {(1, 11)}

    def test_rejects_below_one(self, spark):
        g = mkgraph(spark, b1=[(1, 11, 0.99, 1)])
        assert rule2(g).count() == 0

    def test_accepts_exactly_one(self, spark):
        g = mkgraph(spark, b1=[(1, 11, 1.0, 1)])
        assert pairs(rule2(g)) == {(1, 11)}

    def test_only_rank_one_considered(self, spark):
        g = mkgraph(spark, b1=[(1, 11, 2.0, 1), (1, 12, 1.5, 2)])
        assert pairs(rule2(g)) == {(1, 11)}

    def test_iterates_smaller_kb_side1(self, spark):
        g = mkgraph(
            spark,
            b1=[(1, 11, 2.0, 1)],
            b2=[(2, 12, 3.0, 1)],
            n1=5,
            n2=100,
        )
        assert pairs(rule2(g)) == {(1, 11)}  # KB1 smaller: beta_out1 used

    def test_iterates_smaller_kb_side2(self, spark):
        g = mkgraph(
            spark,
            b1=[(1, 11, 2.0, 1)],
            b2=[(2, 12, 3.0, 1)],
            n1=100,
            n2=5,
        )
        assert pairs(rule2(g)) == {(2, 12)}

    def test_skips_matched_entities(self, spark):
        g = mkgraph(spark, alpha=[(1, 99)], b1=[(1, 11, 2.0, 1), (2, 12, 2.0, 1)])
        matched = rule1(g)
        assert pairs(rule2(g, matched)) == {(2, 12)}


class TestRule3:
    def test_mutual_agreement_with_both_lists(self, spark):
        g = mkgraph(
            spark,
            b1=[(1, 11, 0.5, 1)],
            b2=[(1, 11, 0.5, 1)],
            g1=[(1, 11, 3.0, 1)],
            g2=[(1, 11, 3.0, 1)],
        )
        assert pairs(rule3(g)) == {(1, 11)}

    def test_one_sided_pick_rejected_in_mutual_mode(self, spark):
        # node 1 picks 11, but 11's best is 2 -> no mutual agreement
        g = mkgraph(
            spark,
            b1=[(1, 11, 0.5, 1)],
            b2=[(2, 11, 0.9, 1), (1, 11, 0.5, 2)],
            g1=[(1, 11, 3.0, 1)],
            g2=[(2, 11, 5.0, 1), (1, 11, 3.0, 2)],
        )
        assert rule3(g).count() == 0

    def test_winner_needs_both_lists(self, spark):
        # candidate has only value evidence -> rejected even if mutual
        g = mkgraph(
            spark,
            b1=[(1, 11, 0.5, 1)],
            b2=[(1, 11, 0.5, 1)],
        )
        assert rule3(g).count() == 0

    def test_theta_tradeoff_flips_winner(self, spark):
        # value list prefers 11; neighbor list prefers 12
        b1 = [(1, 11, 0.9, 1), (1, 12, 0.5, 2)]
        g1 = [(1, 12, 9.0, 1), (1, 11, 1.0, 2)]
        # make both candidates reciprocate in both lists
        b2 = [(1, 11, 0.9, 1), (1, 12, 0.5, 1)]
        g2 = [(1, 11, 1.0, 1), (1, 12, 9.0, 1)]
        g_hi = mkgraph(spark, b1=b1, g1=g1, b2=b2, g2=g2)
        # theta=0.9: value dominates -> 11; theta=0.1: neighbors -> 12
        assert pairs(rule3(g_hi, theta=0.9)) == {(1, 11)}
        assert pairs(rule3(g_hi, theta=0.1)) == {(1, 12)}

    def test_skips_matched(self, spark):
        g = mkgraph(
            spark,
            alpha=[(1, 11)],
            b1=[(1, 11, 0.5, 1)],
            b2=[(1, 11, 0.5, 1)],
            g1=[(1, 11, 3.0, 1)],
            g2=[(1, 11, 3.0, 1)],
        )
        skipped = rule3(g, matched=rule1(g))
        assert skipped.count() == 0
        assert skipped.columns == ["eid1", "eid2", "rule"]

    def test_normalized_rank_scores(self, spark):
        """With theta=0.6: cand A rank1-of-2 in value (0.6), rank2-of-2 in
        neighbors (0.2) -> 0.8; cand B rank2 value (0.3), rank1 nbr (0.4)
        -> 0.7. A wins."""
        b1 = [(1, 11, 0.9, 1), (1, 12, 0.5, 2)]
        g1 = [(1, 12, 9.0, 1), (1, 11, 1.0, 2)]
        b2 = [(1, 11, 0.9, 1), (1, 12, 0.5, 1)]
        g2 = [(1, 11, 1.0, 1), (1, 12, 9.0, 1)]
        g = mkgraph(spark, b1=b1, g1=g1, b2=b2, g2=g2)
        assert pairs(rule3(g, theta=0.6)) == {(1, 11)}


class TestRule4:
    def test_keeps_reciprocal(self, spark):
        g = mkgraph(spark, b1=[(1, 11, 2.0, 1)], b2=[(1, 11, 2.0, 1)])
        m = rule2(g)
        assert pairs(rule4(m, g)) == {(1, 11)}

    def test_drops_non_reciprocal(self, spark):
        # edge only from KB1 side: KB2's node never listed 1 as candidate
        g = mkgraph(spark, b1=[(1, 11, 2.0, 1)], b2=[(2, 11, 9.0, 1)], n1=5, n2=9)
        m = rule2(g)
        assert pairs(m) == {(1, 11)}
        assert rule4(m, g).count() == 0

    def test_alpha_edges_always_reciprocal(self, spark):
        g = mkgraph(spark, alpha=[(1, 11)])
        m = rule1(g)
        assert pairs(rule4(m, g)) == {(1, 11)}

    def test_gamma_edge_counts_for_reciprocity(self, spark):
        g = mkgraph(spark, b1=[(1, 11, 2.0, 1)], g2=[(1, 11, 4.0, 1)], n1=5, n2=9)
        m = rule2(g)
        assert pairs(rule4(m, g)) == {(1, 11)}


class TestMatchGraph:
    def test_rule_precedence(self, spark):
        # pair matchable by R1 and R2: attributed to R1
        g = mkgraph(
            spark,
            alpha=[(1, 11)],
            b1=[(1, 11, 5.0, 1)],
            b2=[(1, 11, 5.0, 1)],
        )
        rows = {(r.eid1, r.eid2): r.rule for r in match_graph(g).collect()}
        assert rows == {(1, 11): "R1"}

    def test_r4_toggle(self, spark):
        g = mkgraph(spark, b1=[(1, 11, 2.0, 1)], b2=[(2, 11, 9.0, 1)], n1=5, n2=9)
        assert match_graph(g, use_r4=False).count() == 1
        assert match_graph(g, use_r4=True).count() == 0

    def test_r2_sees_r1_matches(self, spark):
        # entity 1 matched by R1; its beta-top pick must not re-match it
        g = mkgraph(
            spark,
            alpha=[(1, 11)],
            b1=[(1, 12, 5.0, 1), (2, 13, 2.0, 1)],
            b2=[(1, 12, 5.0, 1), (2, 13, 2.0, 1)],
        )
        rows = {(r.eid1, r.eid2): r.rule for r in match_graph(g).collect()}
        assert (1, 12) not in rows
        assert rows[(2, 13)] == "R2"

    @pytest.fixture(scope="class")
    def variants(self, micro_run):
        """Table 4's variant frames on micro, read from the run's frames."""
        return {**ablations(micro_run), "full": micro_run.matches}

    @pytest.mark.parametrize("variant", VARIANTS)
    def test_no_pair_twice(self, variants, variant):
        """Each rule skips the entities matched before it, so the union
        needs no dedupe: every row is a distinct pair."""
        m = variants[variant]
        assert m.count() == m.select("eid1", "eid2").distinct().count()

    def test_variants_are_the_rules(self, micro_graph, variants):
        """Each variant, read from the run's frames, is the call of the
        public rules it stands for."""
        g = micro_graph
        r1 = rule1(g)
        r12 = r1.unionByName(rule2(g, r1.select("eid1", "eid2")))
        calls = {
            "R1": r1,
            "R2": rule2(g),
            "R3": rule3(g),
            "no_R4": match_graph(g, use_r4=False),
            "no_neighbors": rule4(r12, g),
            "full": match_graph(g),
        }
        for variant, call in calls.items():
            assert ruled(variants[variant]) == ruled(call), variant

    def test_r4_keeps_every_r1_and_r3_match(self, micro_graph, variants):
        """Why R4 removes nothing here (DESIGN section 5): alpha edges point
        both ways, and an R3 pick is mutual and needs both lists on each
        side, so only an R2 match can lack an edge from one side."""
        r13 = variants["no_R4"].filter(F.col("rule") != "R2")
        assert {rule for _, _, rule in ruled(r13)} == {"R1", "R3"}
        assert ruled(rule4(r13, micro_graph)) == ruled(r13)

    def test_full_flow_on_micro(self, micro_run):
        prf = micro_run.prf
        assert prf.recall >= 95.0
        assert prf.precision >= 85.0

    def test_rules_cover_output(self, micro_run):
        rules = {r.rule for r in micro_run.matches.select("rule").distinct().collect()}
        assert rules <= {"R1", "R2", "R3"}


@pytest.fixture(scope="module")
def restaurant_small_run(restaurant_small_pair):
    pair = restaurant_small_pair
    run = MinoanerRun(pair.triples1, pair.triples2, pair.gt, DEFAULT_CONFIG)
    yield run
    run.release()


class TestAlg2Oracle:
    """A run's verdict frame, its ``matches`` and Table 4's six variants equal
    the pure-Python Algorithm 2 (``reference.alg2``) over the run's collected
    graph frames."""

    @pytest.fixture(scope="class", params=["micro_run", "restaurant_small_run"])
    def checked(self, request):
        run = request.getfixturevalue(request.param)
        g = run.graph
        frames = ([tuple(r) for r in getattr(g, f).collect()] for f in EDGE_FRAMES)
        verdicts, variants = reference.alg2(*frames, g.n1, g.n2, run.cfg.theta)
        return run, verdicts, variants

    def test_verdict_rows(self, checked):
        run, verdicts, variants = checked
        assert all(variants[rule] for rule in ("R1", "R2", "R3"))  # no vacuous check
        rows = run.verdicts.collect()
        assert len(rows) == len(verdicts)  # no pair twice
        assert {(r.eid1, r.eid2): (r.rule, r.r4) for r in rows} == verdicts

    def test_matches(self, checked):
        run, _, variants = checked
        assert ruled(run.matches) == sorted((*p, rule) for p, rule in variants["full"].items())

    @pytest.mark.parametrize("variant", VARIANTS)
    def test_table4_variant(self, checked, variant):
        run, _, variants = checked
        frames = {**ablations(run), "full": run.matches}
        assert ruled(frames[variant]) == sorted((*p, rule) for p, rule in variants[variant].items())
