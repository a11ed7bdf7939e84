"""Tests for the BSL baseline: n-grams, weights, similarity measures, grid."""
from __future__ import annotations

import math
from collections import Counter

import pandas as pd
import pytest
from pyspark.sql import functions as F

from tests.kbutil import kb, persistent_rdds
from repro.baselines import bsl
from repro.baselines.bsl import (
    entity_grams,
    pair_similarities,
    run_bsl,
    score_pairs,
    weighted_grams,
)

SCORES = ["tf_cosine", "tf_genjaccard", "tfidf_cosine", "tfidf_genjaccard", "tfidf_sigma", "jaccard"]


@pytest.fixture(scope="module")
def micro_candidates(micro_blocking):
    """The micro pair's unpruned disjunctive blocking graph, cached and
    materialised for the module; released afterwards."""
    pairs = micro_blocking.candidate_pairs().cache()
    pairs.count()
    yield pairs
    pairs.unpersist()


@pytest.fixture(scope="module")
def gramkb(spark):
    return kb(spark, [(1, "a:d", "alpha beta gamma", None), (1, "a:d", "beta", None)])


class TestEntityGrams:
    def test_unigrams_with_tf(self, spark, gramkb):
        g = {(r.gram, r.tf) for r in entity_grams(gramkb, 1).collect()}
        assert g == {("alpha", 1), ("beta", 2), ("gamma", 1)}

    def test_bigrams_within_value(self, spark, gramkb):
        g = {r.gram for r in entity_grams(gramkb, 2).collect()}
        assert g == {"alpha_beta", "beta_gamma"}  # no grams span values

    def test_trigrams(self, spark, gramkb):
        g = {r.gram for r in entity_grams(gramkb, 3).collect()}
        assert g == {"alpha_beta_gamma"}

    def test_short_values_skipped(self, spark):
        k = kb(spark, [(1, "a:d", "solo", None)])
        assert entity_grams(k, 2).count() == 0


class TestWeights:
    def test_tf_weighting(self, spark, gramkb):
        g = entity_grams(gramkb, 1)
        w1, _ = weighted_grams(g, g)
        ws = {r.gram: r.tf for r in w1.collect()}
        assert ws["beta"] == 2.0 and isinstance(ws["beta"], float)

    def test_tfidf_rare_tokens_weigh_more(self, spark):
        k1 = kb(spark, [(1, "a:d", "rare common", None), (2, "a:d", "common", None)])
        k2 = kb(spark, [(11, "b:d", "rare common", None), (12, "b:d", "common", None)])
        w1, _ = weighted_grams(entity_grams(k1, 1), entity_grams(k2, 1))
        ws = {r.gram: r.tfidf for r in w1.filter(F.col("eid") == 1).collect()}
        assert ws["rare"] > ws["common"]

    def test_tfidf_formula(self, spark):
        k1 = kb(spark, [(1, "a:d", "rare", None), (2, "a:d", "x", None)])
        k2 = kb(spark, [(11, "b:d", "rare", None), (12, "b:d", "y", None)])
        w1, _ = weighted_grams(entity_grams(k1, 1), entity_grams(k2, 1))
        got = w1.filter(F.col("gram") == "rare").collect()[0]
        assert (got.tf, got.tfidf) == (1.0, pytest.approx(1.0 * math.log(4 / 2)))

    def test_shared_ids_do_not_change_idf(self, spark):
        """A KB2 entity with a KB1 entity's id is still its own document."""
        k1 = kb(spark, [(1, "a:d", "rare", None), (2, "a:d", "x", None)])

        def rare_weights(eid2: int) -> list[float]:
            k2 = kb(spark, [(eid2, "b:d", "rare", None), (12, "b:d", "y", None)])
            w1, w2 = weighted_grams(entity_grams(k1, 1), entity_grams(k2, 1))
            return [w.filter(F.col("gram") == "rare").first().tfidf for w in (w1, w2)]

        assert rare_weights(1) == rare_weights(11) == [pytest.approx(math.log(4 / 2))] * 2


class TestPairSimilarities:
    """Entity 1 ``a b c`` against entity 11 ``b c d e``; one more entity per
    KB makes N = 4 documents, so ``a``, ``d``, ``e`` weigh ``ln 4 = 2 ln 2``
    under TF-IDF and the shared ``b``, ``c`` weigh ``ln 2``."""

    @pytest.fixture(scope="class")
    def sims(self, spark):
        k1 = kb(spark, [(1, "a:d", "a b c", None), (2, "a:d", "x", None)])
        k2 = kb(spark, [(11, "b:d", "b c d e", None), (12, "b:d", "y", None)])
        pairs = spark.createDataFrame(pd.DataFrame({"eid1": [1], "eid2": [11]}))
        w1, w2 = weighted_grams(entity_grams(k1, 1), entity_grams(k2, 1))
        return pair_similarities(pairs, w1, w2).collect()[0]

    def test_columns(self, sims):
        assert list(sims.asDict()) == ["eid1", "eid2", *SCORES]

    def test_jaccard(self, sims):
        # |common|=2, |A|=3, |B|=4 -> 2/5
        assert sims.jaccard == pytest.approx(2 / 5)

    def test_cosine(self, sims):
        # all tf=1: dot=2, norms sqrt(3), sqrt(4)
        assert sims.tf_cosine == pytest.approx(2 / (math.sqrt(3) * 2))

    def test_genjaccard_equals_jaccard_for_unit_weights(self, sims):
        assert sims.tf_genjaccard == pytest.approx(sims.jaccard)

    def test_tfidf_cosine(self, sims):
        # in units of ln 2: A = (2, 1, 1), B = (1, 1, 2, 2), dot = 2
        assert sims.tfidf_cosine == pytest.approx(2 / (math.sqrt(6) * math.sqrt(10)))

    def test_tfidf_genjaccard(self, sims):
        # sum_min = 2, sum_A = 4, sum_B = 6 (units of ln 2) -> 2 / 8
        assert sims.tfidf_genjaccard == pytest.approx(2 / 8)

    def test_sigma_measure(self, sims):
        # sum_common (wA+wB) = 4, sumA + sumB = 10 (units of ln 2)
        assert sims.tfidf_sigma == pytest.approx(4 / 10)

    def test_all_measures_in_unit_interval(self, micro_pair, micro_candidates):
        w1, w2 = weighted_grams(
            entity_grams(micro_pair.triples1, 1), entity_grams(micro_pair.triples2, 1)
        )
        pdf = pair_similarities(micro_candidates, w1, w2).toPandas()
        assert len(pdf)
        for m in SCORES:
            assert (pdf[m] >= -1e-9).all() and (pdf[m] <= 1 + 1e-9).all()


class TestRunBSL:
    """The paper's full grid, run once on micro."""

    @pytest.fixture(scope="class")
    def run(self, spark, micro_pair, micro_candidates):
        """``(result, persistent RDDs before, persistent RDDs after, calls)``;
        ``calls`` counts the Spark scoring passes and the UMC scans."""
        calls = Counter()
        before = persistent_rdds(spark)
        with pytest.MonkeyPatch.context() as mp:
            for name in ("pair_similarities", "unique_mapping_clustering"):
                real = getattr(bsl, name)

                def counted(*args, _real=real, _name=name):
                    calls[_name] += 1
                    return _real(*args)

                mp.setattr(bsl, name, counted)
            scores = score_pairs(micro_pair.triples1, micro_pair.triples2, micro_candidates)
            res = run_bsl(scores, micro_pair.gt_pdf)
        return res, before, persistent_rdds(spark), calls

    def test_finds_good_config_on_micro(self, run):
        res = run[0]
        assert res.prf.f1 >= 70.0  # micro is value-rich: tuned BSL must do well
        assert res.measure in ("cosine", "jaccard", "genjaccard", "sigma")

    def test_grid_has_all_configs(self, run):
        grid = run[0].grid
        # the paper's 420: 3 n-gram sizes x (tf: 3 measures + tfidf: 4) x 20 thresholds
        assert len(grid) == 420
        configs = set(zip(grid.n, grid.weighting, grid.measure))
        assert configs == {
            (n, w, m)
            for n in (1, 2, 3)
            for w in ("tf", "tfidf")
            for m in ("cosine", "jaccard", "genjaccard", "sigma")
            if m != "sigma" or w == "tfidf"
        }
        assert sorted(set(grid.threshold)) == [round(0.05 * i, 2) for i in range(20)]
        assert len(grid.drop_duplicates(["n", "weighting", "measure", "threshold"])) == 420

    def test_best_row_consistent_with_grid(self, run):
        res = run[0]
        assert res.prf.f1 == pytest.approx(res.grid.f1.max())
        best = res.grid.loc[res.grid.f1.idxmax()]
        assert (best.n, best.weighting, best.measure, best.threshold) == (
            res.n, res.weighting, res.measure, res.threshold
        )

    def test_leaves_no_cached_frame(self, run):
        _, before, after, _ = run
        assert after <= before

    def test_one_pass_per_n_one_scan_per_score_column(self, run):
        # 3 n-gram sizes x 6 score columns; Jaccard serves TF and TF-IDF
        assert run[3] == {"pair_similarities": 3, "unique_mapping_clustering": 18}

    def test_tf_and_tfidf_jaccard_rows_agree(self, run):
        grid = run[0].grid
        jac = grid[grid.measure == "jaccard"]
        tf, tfidf = (
            jac[jac.weighting == w].drop(columns="weighting").reset_index(drop=True)
            for w in ("tf", "tfidf")
        )
        assert len(tf) == 60
        pd.testing.assert_frame_equal(tf, tfidf)
