"""Tests for pair-level P/R/F1 evaluation."""
from __future__ import annotations

import pytest

from tests.kbutil import gt_df
from repro.core.evaluation import evaluate


class TestEvaluate:
    def test_perfect(self, spark):
        m = gt_df(spark, [(1, 1), (2, 2)])
        gt = gt_df(spark, [(1, 1), (2, 2)])
        prf = evaluate(m, gt)
        assert (prf.precision, prf.recall, prf.f1) == (100.0, 100.0, 100.0)

    def test_half_precision(self, spark):
        m = gt_df(spark, [(1, 1), (3, 9)])
        gt = gt_df(spark, [(1, 1), (2, 2)])
        prf = evaluate(m, gt)
        assert prf.precision == 50.0
        assert prf.recall == 50.0

    def test_empty_matches(self, spark):
        m = gt_df(spark, [])
        gt = gt_df(spark, [(1, 1)])
        prf = evaluate(m, gt)
        assert (prf.precision, prf.recall, prf.f1) == (0.0, 0.0, 0.0)

    def test_duplicates_count_once(self, spark):
        m = gt_df(spark, [(1, 1), (1, 1)])
        gt = gt_df(spark, [(1, 1)])
        prf = evaluate(m, gt)
        assert prf.precision == 100.0
        assert prf.n_matches == 1

    def test_f1_harmonic(self, spark):
        m = gt_df(spark, [(1, 1), (3, 9), (4, 9)])
        gt = gt_df(spark, [(1, 1), (2, 2)])
        prf = evaluate(m, gt)
        p, r = prf.precision, prf.recall
        assert prf.f1 == pytest.approx(2 * p * r / (p + r))

    def test_row_rounding(self, spark):
        m = gt_df(spark, [(1, 1), (3, 9), (4, 9)])
        gt = gt_df(spark, [(1, 1), (2, 2), (3, 3)])
        row = evaluate(m, gt).row()
        assert row["precision"] == 33.33

    def test_duplicate_truth_counts_once(self, spark):
        m = gt_df(spark, [(1, 1), (2, 2)])
        gt = gt_df(spark, [(1, 1), (1, 1), (2, 2)])
        prf = evaluate(m, gt)
        assert prf.recall == 100.0
        assert (prf.n_matches, prf.n_gt, prf.n_correct) == (2, 2, 2)

    def test_empty_truth(self, spark):
        m = gt_df(spark, [(1, 1), (2, 2)])
        gt = gt_df(spark, [])
        prf = evaluate(m, gt)
        assert (prf.precision, prf.recall, prf.f1) == (0.0, 0.0, 0.0)
        assert (prf.n_matches, prf.n_gt, prf.n_correct) == (2, 0, 0)

    def test_both_empty(self, spark):
        prf = evaluate(gt_df(spark, []), gt_df(spark, []))
        assert (prf.precision, prf.recall, prf.f1) == (0.0, 0.0, 0.0)
        assert (prf.n_matches, prf.n_gt, prf.n_correct) == (0, 0, 0)
