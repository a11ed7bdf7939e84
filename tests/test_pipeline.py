"""End-to-end pipeline tests: effectiveness, determinism, sensitivity.

The sensitivity tests mirror the paper's Fig. 5 analysis at micro scale:
varying one knob of (k, K, N, theta) around the default must keep the
pipeline functional and reasonably effective (the paper's robustness
claim), though micro-scale F1 values are noisier than bench-scale ones.
"""
from __future__ import annotations

import pytest

from tests.kbutil import cached_rdds, persistent_rdds
from tests.test_graph import EDGE_FRAMES, _leaf_rdd
from repro.core import DEFAULT_CONFIG, MinoanerConfig, evaluate, run_minoaner
from repro.core.matching import match_graph


def _plan_nodes(plan) -> list[str]:
    """Node names of a logical plan, outside any cached relation (an
    ``InMemoryRelation`` is a leaf)."""
    children = plan.children()
    return [plan.nodeName()] + [
        n for i in range(children.size()) for n in _plan_nodes(children.apply(i))
    ]


def _resolve(pair, cfg: MinoanerConfig = DEFAULT_CONFIG):
    """``run_minoaner`` on ``pair``; returns the run's P/R/F1 and releases it."""
    res = run_minoaner(pair.triples1, pair.triples2, pair.gt, cfg)
    res.release()
    return res.prf


class TestEndToEnd:
    def test_micro_effectiveness(self, micro_run):
        assert micro_run.prf.recall >= 95.0
        assert micro_run.prf.f1 >= 85.0

    def test_restaurant_small_effectiveness(self, restaurant_small_pair):
        # ~27 ground-truth pairs at this scale: each miss costs ~4 F1,
        # so the bound is loose; `python -m repro.jobs table3` checks the
        # full-scale shape (tables/claims.py).
        prf = _resolve(restaurant_small_pair)
        assert prf.recall >= 90.0
        assert prf.f1 >= 82.0

    def test_run_minoaner_is_match_graph_over_build_graph(self, micro_pair, micro_run):
        """``run_minoaner``, which releases the blocking before Algorithm 2,
        scores as the micro run read step by step (``micro_run``), as the
        table harnesses read it."""
        assert _resolve(micro_pair) == micro_run.prf

    def test_holds_one_match_frame_until_released(self, spark, micro_pair):
        """After ``run_minoaner`` the only new cache is the verdict frame; the
        graph's frames and R3 alone are local checkpoints, and R2 alone
        plans over one leaf, the smaller KB's beta list checkpoint.
        ``release()`` frees the cache."""
        persistent, cached = persistent_rdds(spark), cached_rdds(spark)
        res = run_minoaner(micro_pair.triples1, micro_pair.triples2, micro_pair.gt)
        try:
            assert len(cached_rdds(spark) - cached) == 1
            assert res.verdicts.storageLevel.useMemory  # the one new cache
            g = res.graph
            leaves = {_leaf_rdd(getattr(g, f)) for f in EDGE_FRAMES}
            leaves.add(_leaf_rdd(res.rules[2]))  # R3
            assert leaves <= persistent_rdds(spark) - persistent
            r2_leaves = res.rules[1]._jdf.queryExecution().analyzed().collectLeaves()
            beta = g.beta_out1 if g.n1 <= g.n2 else g.beta_out2
            assert r2_leaves.size() == 1
            assert r2_leaves.apply(0).rdd().id() == _leaf_rdd(beta)
        finally:
            res.release()
        assert not res.verdicts.storageLevel.useMemory
        assert cached_rdds(spark) <= cached

    def test_matches_reread_plans_over_the_cache(self, micro_run):
        """Once ``prf`` has read them, the run's ``matches`` plan over the
        cached verdict frame: R4's joins do not run again."""
        micro_run.prf
        nodes = _plan_nodes(micro_run.matches._jdf.queryExecution().withCachedData())
        assert "InMemoryRelation" in nodes
        assert not [n for n in nodes if "Join" in n]

    def test_matches_are_cross_kb_pairs(self, micro_run, micro_pair):
        e1 = {r.eid for r in micro_pair.triples1.select("eid").distinct().collect()}
        e2 = {r.eid for r in micro_pair.triples2.select("eid").distinct().collect()}
        for r in micro_run.matches.collect():
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
    assert _resolve(micro_pair, MinoanerConfig(K=K)).f1 >= 75.0


@pytest.mark.parametrize("N", [1, 5])
def test_sensitivity_N(micro_pair, N):
    assert _resolve(micro_pair, MinoanerConfig(N=N)).f1 >= 75.0


@pytest.mark.parametrize("k", [1, 3])
def test_sensitivity_k(micro_pair, k):
    assert _resolve(micro_pair, MinoanerConfig(k=k)).f1 >= 70.0
