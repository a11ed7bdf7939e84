"""Unit tests for core.graph: beta/gamma scores, top-K pruning, edge sets."""
from __future__ import annotations

import sys
import threading
from collections import Counter

import pytest
from pyspark.sql import functions as F

from tests import reference
from tests.kbutil import cached_rdds, persistent_rdds, top_neighbors
from repro.core import DEFAULT_CONFIG
from repro.core.blocking import composite_blocking, token_block_index
from repro.core.graph import beta_scores, build_graph, gamma_scores, top_k_directed
from repro.core.matching import match_graph
from repro.core.relations import top_in_neighbors
from repro.oracle import assert_equivalent


EDGE_FRAMES = ["alpha", "beta_out1", "beta_out2", "gamma_out1", "gamma_out2"]


def _plan_lines(df) -> int:
    """Lines of the DataFrame's analysed logical plan (one per operator)."""
    return len(df._jdf.queryExecution().analyzed().toString().strip().splitlines())


def _leaf_rdd(df) -> int:
    """Id of the RDD under a local checkpoint (its plan is one LogicalRDD)."""
    return df._jdf.queryExecution().analyzed().rdd().id()


def _edge_rows(g) -> dict[str, list]:
    """The graph's five edge frames, collected and sorted.

    Weights are rounded to 9 digits: Spark sums beta and gamma in shuffle
    arrival order, which varies between runs, so they may differ in the
    last bits.
    """
    return {
        f: sorted(
            tuple(round(v, 9) if isinstance(v, float) else v for v in r)
            for r in getattr(g, f).collect()
        )
        for f in EDGE_FRAMES
    }


class TestBetaScores:
    """The micro blocking's beta against oracles."""

    def test_oracle_equivalence(self, micro_blocking):
        b = micro_blocking
        assert_equivalent(
            b.beta.select("eid1", "eid2", F.round("beta", 9).alias("beta")),
            """
            SELECT t1.eid AS eid1, t2.eid AS eid2,
                   round(sum(k.weight), 9) AS beta
            FROM t1 JOIN k USING (token) JOIN t2 USING (token)
            GROUP BY t1.eid, t2.eid
            """,
            t1=b.tokens1,
            t2=b.tokens2,
            k=b.kept.select("token", "weight"),
        )

    def test_matches_reference_value_sim(self, micro_pair, micro_blocking):
        b = micro_blocking
        purged = {
            r.token
            for r in token_block_index(b.tokens1, b.tokens2)
            .join(b.kept.select("token"), "token", "left_anti")
            .collect()
        }
        tok1 = reference.tokens_of(micro_pair.pdf1)
        tok2 = reference.tokens_of(micro_pair.pdf2)
        ef1 = reference.entity_frequency(tok1)
        ef2 = reference.entity_frequency(tok2)
        beta = {(r.eid1, r.eid2): r.beta for r in b.beta.collect()}
        # spot-check all ground-truth pairs plus some non-pairs
        for e1, e2 in zip(micro_pair.gt_pdf.eid1, micro_pair.gt_pdf.eid2):
            want = reference.value_sim(
                tok1.get(int(e1), set()), tok2.get(int(e2), set()), ef1, ef2, purged
            )
            got = beta.get((int(e1), int(e2)), 0.0)
            assert got == pytest.approx(want, abs=1e-9)

    def test_beta_positive(self, micro_blocking):
        assert micro_blocking.beta.filter(F.col("beta") <= 0).count() == 0

    def test_symmetric_in_inputs(self, micro_blocking):
        """valueSim is symmetric: swapping the KBs transposes the matrix."""
        b = micro_blocking
        a = {(r.eid1, r.eid2, round(r.beta, 9)) for r in b.beta.collect()}
        kept_sw = b.kept.withColumnRenamed("ef1", "ef2x").withColumnRenamed(
            "ef2", "ef1"
        ).withColumnRenamed("ef2x", "ef2")
        # beta_scores(t2, t1, ...) labels the t2 entity as eid1, so the
        # transposed tuple is (r.eid2, r.eid1).
        t = {
            (r.eid2, r.eid1, round(r.beta, 9))
            for r in beta_scores(b.tokens2, b.tokens1, kept_sw).collect()
        }
        assert a == t


class TestTopKDirected:
    def test_keeps_k_best(self, spark, micro_blocking):
        top = top_k_directed(micro_blocking.beta, "eid1", "eid2", "beta", 3)
        counts = top.groupBy("eid1").count().agg(F.max("count")).collect()[0][0]
        assert counts <= 3

    def test_rank_one_is_max(self, micro_blocking):
        beta = micro_blocking.beta
        top1 = top_k_directed(beta, "eid1", "eid2", "beta", 1)
        maxes = beta.groupBy("eid1").agg(F.max("beta").alias("mx"))
        joined = top1.join(maxes, "eid1")
        assert joined.filter(F.col("beta") != F.col("mx")).count() == 0

    def test_ranks_are_dense_from_one(self, micro_blocking):
        top = top_k_directed(micro_blocking.beta, "eid1", "eid2", "beta", 5)
        mins = top.groupBy("eid1").agg(
            F.min("rank").alias("lo"), F.max("rank").alias("hi"), F.count("*").alias("n")
        )
        assert mins.filter(F.col("lo") != 1).count() == 0
        assert mins.filter(F.col("hi") != F.col("n")).count() == 0

    def test_deterministic_tie_break(self, spark):
        import pandas as pd

        df = spark.createDataFrame(
            pd.DataFrame(
                {"eid1": [1, 1, 1], "eid2": [30, 10, 20], "beta": [1.0, 1.0, 1.0]}
            )
        )
        top = top_k_directed(df, "eid1", "eid2", "beta", 2).orderBy("rank")
        assert [r.eid2 for r in top.collect()] == [10, 20]


class TestGammaScores:
    def test_matches_reference(self, micro_pair, micro_graph):
        # reference gamma from the same retained beta edges
        retained = (
            micro_graph.beta_out1.select("eid1", "eid2", "beta")
            .union(micro_graph.beta_out2.select("eid1", "eid2", "beta"))
            .distinct()
        )
        edges = [(r.eid1, r.eid2, r.beta) for r in retained.collect()]
        topin1 = reference.top_in_neighbors(
            reference.top_n_neighbors(micro_pair.pdf1, DEFAULT_CONFIG.N)
        )
        topin2 = reference.top_in_neighbors(
            reference.top_n_neighbors(micro_pair.pdf2, DEFAULT_CONFIG.N)
        )
        want = reference.gamma_scores(edges, topin1, topin2)

        tin1 = top_in_neighbors(top_neighbors(micro_pair.triples1, DEFAULT_CONFIG.N))
        tin2 = top_in_neighbors(top_neighbors(micro_pair.triples2, DEFAULT_CONFIG.N))
        got = {
            (r.eid1, r.eid2): r.gamma
            for r in gamma_scores(retained, tin1, tin2).collect()
        }
        assert set(got) == set(want)
        for k, v in want.items():
            assert got[k] == pytest.approx(v, abs=1e-9)

    def test_gamma_oracle_equivalence(self, spark, micro_graph, micro_pair):
        retained = (
            micro_graph.beta_out1.select("eid1", "eid2", "beta")
            .union(micro_graph.beta_out2.select("eid1", "eid2", "beta"))
            .distinct()
        )
        tin1 = top_in_neighbors(top_neighbors(micro_pair.triples1, DEFAULT_CONFIG.N))
        tin2 = top_in_neighbors(top_neighbors(micro_pair.triples2, DEFAULT_CONFIG.N))
        got = gamma_scores(retained, tin1, tin2).select(
            "eid1", "eid2", F.round("gamma", 9).alias("gamma")
        )
        assert_equivalent(
            got,
            """
            SELECT i1.in_neighbor AS eid1, i2.in_neighbor AS eid2,
                   round(sum(e.beta), 9) AS gamma
            FROM e
            JOIN i1 ON i1.eid = e.eid1
            JOIN i2 ON i2.eid = e.eid2
            GROUP BY i1.in_neighbor, i2.in_neighbor
            """,
            e=retained,
            i1=tin1,
            i2=tin2,
        )


class TestGraphStructure:
    def test_alpha_pairs_unique_names(self, micro_graph, micro_pair, micro_blocking):
        """Every alpha edge is a 1x1 name block of the blocking's name
        attributes, recounted in pure Python."""
        attrs1, attrs2 = micro_blocking.name_attrs
        names1 = reference.names_of(micro_pair.pdf1, attrs1)
        names2 = reference.names_of(micro_pair.pdf2, attrs2)
        holders1, holders2 = Counter(), Counter()
        for names, holders in ((names1, holders1), (names2, holders2)):
            for ns in names.values():
                holders.update(ns)
        expect = {
            (e1, e2)
            for e1, ns1 in names1.items()
            for e2, ns2 in names2.items()
            if any(holders1[n] == 1 and holders2[n] == 1 for n in ns1 & ns2)
        }
        assert expect  # names take part
        got = {(r.eid1, r.eid2) for r in micro_graph.alpha.collect()}
        assert got == expect

    def test_beta_out_capped_by_k(self, micro_graph):
        for df, node in ((micro_graph.beta_out1, "eid1"), (micro_graph.beta_out2, "eid2")):
            worst = df.groupBy(node).count().agg(F.max("count")).collect()[0][0]
            assert worst <= DEFAULT_CONFIG.K

    def test_gamma_out_capped_by_k(self, micro_graph):
        for df, node in ((micro_graph.gamma_out1, "eid1"), (micro_graph.gamma_out2, "eid2")):
            worst = df.groupBy(node).count().agg(F.max("count")).collect()[0][0]
            assert worst <= DEFAULT_CONFIG.K

    def test_directed_edges_superset_of_alpha(self, micro_graph):
        a = micro_graph.alpha.select("eid1", "eid2")
        assert a.join(micro_graph.directed_from1(), ["eid1", "eid2"], "left_anti").count() == 0
        assert a.join(micro_graph.directed_from2(), ["eid1", "eid2"], "left_anti").count() == 0

    def test_counts_recorded(self, micro_graph, micro_pair):
        assert micro_graph.n1 == micro_pair.triples1.select("eid").distinct().count()
        assert micro_graph.n2 == micro_pair.triples2.select("eid").distinct().count()

    def test_blocking_evidence_is_the_graphs(self, micro_graph, micro_blocking):
        """|E|, the name attributes and the purge threshold come from the blocking."""
        b = micro_blocking
        assert (micro_graph.n1, micro_graph.n2) == (b.n1, b.n2)
        assert [micro_graph.name_attrs1, micro_graph.name_attrs2] == b.name_attrs
        assert micro_graph.purge_threshold == b.purge_threshold


class TestLineageCut:
    """The pruned graph is a materialised boundary between Alg. 1 and 2."""

    @pytest.mark.parametrize("field", EDGE_FRAMES)
    def test_graph_frames_are_leaves(self, micro_graph, field):
        assert _plan_lines(getattr(micro_graph, field)) == 1

    def test_match_plan_stays_small(self, micro_graph):
        # Re-embedding Alg. 1 in every rule made this plan ~1,700 lines.
        assert _plan_lines(match_graph(micro_graph)) < 100


class TestConcurrentBuild:
    """``build_graph`` submits Alg. 1's independent jobs from driver threads,
    all of them reading the KB pair's one ``Blocking``."""

    def test_leaves_only_its_checkpoints(self, spark, micro_pair, micro_blocking):
        micro_blocking.beta.count()  # the blocking's caches exist before the build
        before = persistent_rdds(spark)
        g = build_graph(
            micro_pair.triples1, micro_pair.triples2, micro_blocking, DEFAULT_CONFIG
        )
        leaves = {_leaf_rdd(getattr(g, f)) for f in EDGE_FRAMES}
        assert persistent_rdds(spark) - before <= leaves

    @pytest.mark.parametrize(
        "stage",
        [
            "top_in_neighbors",  # the neighbour branch, in a pool thread
            "gamma_scores",  # level 2, after every branch has cached its frames
        ],
    )
    def test_failure_propagates_and_releases_caches(
        self, spark, micro_pair, monkeypatch, stage
    ):
        """``build_graph`` releases its own caches; the caller, the blocking."""

        def fail(*args, **kwargs):
            raise RuntimeError(f"{stage} failed")

        monkeypatch.setattr(f"repro.core.graph.{stage}", fail)
        t1, t2 = micro_pair.triples1, micro_pair.triples2
        before = cached_rdds(spark)
        blocking = composite_blocking(t1, t2, DEFAULT_CONFIG)
        try:
            with pytest.raises(RuntimeError, match=f"{stage} failed"):
                build_graph(t1, t2, blocking, DEFAULT_CONFIG)
        finally:
            blocking.unpersist()
        assert cached_rdds(spark) <= before

    def test_concurrent_builds_match_a_serial_build(
        self, micro_pair, micro_blocking, micro_graph
    ):
        want = _edge_rows(micro_graph)
        results: dict[int, dict] = {}
        errors: list[BaseException] = []

        def build(i: int) -> None:
            try:
                g = build_graph(
                    micro_pair.triples1, micro_pair.triples2, micro_blocking, DEFAULT_CONFIG
                )
                results[i] = _edge_rows(g)
            except BaseException as exc:  # reported by the main thread
                errors.append(exc)
                raise
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            # More threads than a 4-core machine has cores.
            threads = [threading.Thread(target=build, args=(i,)) for i in range(6)]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=600)
        finally:
            sys.setswitchinterval(interval)
        assert not any(t.is_alive() for t in threads)
        assert errors == []
        assert set(results) == set(range(6))
        for rows in results.values():
            assert rows == want
