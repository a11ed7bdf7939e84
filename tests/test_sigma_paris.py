"""Tests for the SiGMa-lite and PARIS-lite baselines."""
from __future__ import annotations

import pandas as pd
import pytest

from tests.kbutil import kb
from repro.baselines.bsl import entity_grams, pair_similarities, weighted_grams
from repro.baselines.paris import run_paris
from repro.baselines import sigma
from repro.baselines.sigma import run_sigma
from repro.core import DEFAULT_CONFIG
from repro.core.blocking import composite_blocking
from repro.kbgen import PROFILES, generate_kb_pair, generate_pandas
from repro.kbgen.profiles import scaled


@pytest.fixture(scope="module")
def rest_small(spark):
    pair = generate_kb_pair(spark, scaled(PROFILES["restaurant"], 0.3), seed=7)
    pair.triples1.cache().count()
    pair.triples2.cache().count()
    return pair


class TestSigmaLite:
    @pytest.fixture(scope="class")
    def result(self, rest_small):
        p = rest_small
        t1, t2 = p.triples1, p.triples2
        b = composite_blocking(t1, t2, DEFAULT_CONFIG)
        try:
            # BSL's unigram scores, as Table 3 hands them over
            w1, w2 = weighted_grams(entity_grams(t1, 1), entity_grams(t2, 1))
            scores = pair_similarities(b.candidate_pairs(), w1, w2).toPandas()
            return run_sigma(t1, t2, scores, b.name_attrs, p.pdf1, p.pdf2, p.gt_pdf)
        finally:
            b.unpersist()

    def test_high_f1_on_low_variety(self, result):
        # paper: SiGMa 97 F1 on Restaurant — the greedy propagation works
        # when names and values are strongly shared
        assert result.prf.f1 >= 80.0

    def test_one_to_one(self, result):
        assert result.matches.eid1.is_unique
        assert result.matches.eid2.is_unique

    def test_counts_consistent(self, result, rest_small):
        hit = len(result.matches.merge(rest_small.gt_pdf, on=["eid1", "eid2"]))
        assert result.prf.n_correct == hit
        assert result.prf.recall == pytest.approx(100.0 * hit / len(rest_small.gt_pdf))

    def test_tied_candidate_cut_ignores_row_order(self, spark):
        """Two KB1 entities each tie with 25 KB2 candidates, more than the
        cut keeps: the survivors, and so the matches, are the lowest eid2s
        whatever order the score rows arrive in."""
        cands = range(11, 11 + sigma.MAX_CANDS_PER_ENTITY + 5)
        t1 = kb(spark, [(e, "a:name", f"left {e}", None) for e in (1, 2)])
        t2 = kb(spark, [(e, "b:name", f"right {e}", None) for e in cands])
        pdf1, pdf2 = t1.toPandas(), t2.toPandas()
        scores = pd.DataFrame(
            [(a, b, 0.9) for a in (1, 2) for b in cands],
            columns=["eid1", "eid2", "tfidf_sigma"],
        )
        gt = pd.DataFrame({"eid1": [1, 2], "eid2": [11, 12]})
        got = set()
        for seed in range(4):
            shuffled = scores.sample(frac=1.0, random_state=seed).reset_index(drop=True)
            res = run_sigma(t1, t2, shuffled, [["a:name"], ["b:name"]], pdf1, pdf2, gt)
            got.add(frozenset(map(tuple, res.matches[["eid1", "eid2"]].values.tolist())))
        assert got == {frozenset({(1, 11), (2, 12)})}


class TestParisLite:
    def test_works_on_low_variety(self, rest_small):
        res = run_paris(rest_small.pdf1, rest_small.pdf2, rest_small.gt_pdf)
        # paper: PARIS 91 F1 on Restaurant; the lite version must at least
        # resolve the majority via exact names + relation propagation
        assert res.prf.f1 >= 55.0

    def test_collapses_on_format_heterogeneity(self, spark):
        """The BBCmusic-DBpedia failure: KB2 renders values in a different
        raw format, so exact-value evidence vanishes (paper: 0.51 F1)."""
        prof = scaled(PROFILES["bbc_dbpedia"], 0.1)
        p1, p2, gt = generate_pandas(prof, seed=7)
        res = run_paris(p1, p2, gt)
        assert res.prf.f1 <= 15.0

    def test_hub_relation_carries_no_evidence(self, spark):
        """Two entities sharing only a hub neighbor must not be matched:
        inverse functionality damps hub relations to ~nothing."""
        import pandas as pd

        rows1, rows2 = [], []
        # seed pair (0,0) via unique shared literal
        rows1.append((0, "a:n", "seedname", None))
        rows2.append((0, "b:n", "seedname", None))
        # many entities all pointing at the seed via one hub relation
        for e in range(1, 30):
            rows1.append((e, "a:hub", None, 0))
            rows2.append((e, "b:hub", None, 0))
            rows1.append((e, "a:n", f"k1n{e}", None))
            rows2.append((e, "b:n", f"k2n{e}", None))
        p1 = pd.DataFrame(rows1, columns=["eid", "attr", "val", "obj"])
        p2 = pd.DataFrame(rows2, columns=["eid", "attr", "val", "obj"])
        gt = pd.DataFrame({"eid1": [0], "eid2": [0]})
        res = run_paris(p1, p2, gt)
        got = set(map(tuple, res.matches[["eid1", "eid2"]].values))
        assert (0, 0) in got
        assert len(got) <= 2  # hub co-membership alone proves nothing

    def test_empty_inputs(self):
        import pandas as pd

        empty = pd.DataFrame(columns=["eid", "attr", "val", "obj"])
        gt = pd.DataFrame({"eid1": [], "eid2": []})
        res = run_paris(empty, empty, gt)
        assert res.prf.f1 == 0.0
