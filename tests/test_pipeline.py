"""End-to-end pipeline tests: effectiveness, determinism, sensitivity.

The sensitivity tests mirror the paper's Fig. 5 analysis at micro scale:
varying one knob of (k, K, N, theta) around the default must keep the
pipeline functional and reasonably effective (the paper's robustness
claim), though micro-scale F1 values are noisier than bench-scale ones.
"""
from __future__ import annotations

import pytest

from repro.core import DEFAULT_CONFIG, MinoanerConfig, evaluate, run_minoaner
from repro.core.matching import match_graph


class TestEndToEnd:
    def test_micro_effectiveness(self, micro_result):
        assert micro_result.prf.recall >= 95.0
        assert micro_result.prf.f1 >= 85.0

    def test_restaurant_small_effectiveness(self, restaurant_small_result):
        # ~27 ground-truth pairs at this scale: each miss costs ~4 F1,
        # so the bound is loose; `python -m repro.jobs table3` checks the
        # full-scale shape (tables/claims.py).
        assert restaurant_small_result.prf.recall >= 90.0
        assert restaurant_small_result.prf.f1 >= 82.0

    def test_run_minoaner_is_match_graph_over_build_graph(self, micro_pair, micro_result):
        """``run_minoaner`` scores as Algorithm 2 + ``evaluate`` over the
        micro graph (``micro_result``), the sharing the table harnesses do."""
        res = run_minoaner(micro_pair.triples1, micro_pair.triples2, micro_pair.gt)
        res.matches.unpersist()
        assert res.prf == micro_result.prf

    def test_matches_are_cross_kb_pairs(self, micro_result, micro_pair):
        e1 = {r.eid for r in micro_pair.triples1.select("eid").distinct().collect()}
        e2 = {r.eid for r in micro_pair.triples2.select("eid").distinct().collect()}
        for r in micro_result.matches.collect():
            assert r.eid1 in e1
            assert r.eid2 in e2

    def test_deterministic(self, micro_pair, micro_graph):
        a = match_graph(micro_graph, theta=DEFAULT_CONFIG.theta)
        b = match_graph(micro_graph, theta=DEFAULT_CONFIG.theta)
        sa = {(r.eid1, r.eid2, r.rule) for r in a.collect()}
        sb = {(r.eid1, r.eid2, r.rule) for r in b.collect()}
        assert sa == sb

    def test_r4_never_increases_matches(self, micro_graph):
        with_r4 = match_graph(micro_graph, use_r4=True).count()
        without = match_graph(micro_graph, use_r4=False).count()
        assert with_r4 <= without


@pytest.mark.parametrize("theta", [0.4, 0.5, 0.7])
def test_sensitivity_theta(micro_pair, micro_graph, theta):
    # theta only enters Algorithm 2, so the default graph serves every value
    assert evaluate(match_graph(micro_graph, theta), micro_pair.gt).f1 >= 75.0


@pytest.mark.parametrize("K", [5, 25])
def test_sensitivity_K(micro_pair, K):
    cfg = MinoanerConfig(K=K)
    res = run_minoaner(micro_pair.triples1, micro_pair.triples2, micro_pair.gt, cfg)
    assert res.prf.f1 >= 75.0


@pytest.mark.parametrize("N", [1, 5])
def test_sensitivity_N(micro_pair, N):
    cfg = MinoanerConfig(N=N)
    res = run_minoaner(micro_pair.triples1, micro_pair.triples2, micro_pair.gt, cfg)
    assert res.prf.f1 >= 75.0


@pytest.mark.parametrize("k", [1, 3])
def test_sensitivity_k(micro_pair, k):
    cfg = MinoanerConfig(k=k)
    res = run_minoaner(micro_pair.triples1, micro_pair.triples2, micro_pair.gt, cfg)
    assert res.prf.f1 >= 70.0
