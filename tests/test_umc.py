"""Tests for Unique Mapping Clustering."""
from __future__ import annotations

import numpy as np
import pandas as pd

from tests import reference
from repro.baselines.bsl import THRESHOLDS
from repro.baselines.umc import unique_mapping_clustering


def scored(rows):
    return pd.DataFrame(rows, columns=["eid1", "eid2", "sim"])


def pairs(df: pd.DataFrame) -> set[tuple[int, int]]:
    return set(map(tuple, df[["eid1", "eid2"]].values.tolist()))


class TestUMC:
    def test_greedy_takes_best_first(self):
        s = scored([(1, 10, 0.9), (1, 11, 0.8), (2, 10, 0.7), (2, 11, 0.6)])
        assert pairs(unique_mapping_clustering(s)) == {(1, 10), (2, 11)}

    def test_one_to_one(self):
        s = scored([(1, 10, 0.9), (2, 10, 0.8), (3, 10, 0.7)])
        out = unique_mapping_clustering(s)
        assert len(out) == 1
        assert tuple(out.iloc[0][["eid1", "eid2"]]) == (1, 10)

    def test_threshold_cuts(self):
        out = unique_mapping_clustering(scored([(1, 10, 0.9), (2, 11, 0.3)]))
        assert len(out[out.sim >= 0.5]) == 1

    def test_threshold_inclusive(self):
        out = unique_mapping_clustering(scored([(1, 10, 0.5)]))
        assert len(out[out.sim >= 0.5]) == 1

    def test_threshold_cut_is_greedy_over_rows_above_it(self):
        """The paper stops the scan at the first score below ``t``; one full
        scan cut at ``sim >= t`` accepts the same pairs, ties included."""
        rng = np.random.default_rng(0)
        for _ in range(50):
            n = int(rng.integers(1, 40))
            ids = rng.choice(8 * 8, size=n, replace=False)
            # scores on a coarse grid, so that ties and scores equal to a
            # threshold are common
            sims = rng.integers(0, 21, size=n) / 20
            rows = [(int(i // 8), int(10 + i % 8), float(v)) for i, v in zip(ids, sims)]
            out = unique_mapping_clustering(scored(rows))
            for t in [*map(float, THRESHOLDS), *sims]:
                assert pairs(out[out.sim >= t]) == reference.unique_mapping(rows, t)

    def test_empty_input(self):
        s = scored([])
        assert len(unique_mapping_clustering(s)) == 0

    def test_deterministic_tie_break(self):
        s = scored([(2, 11, 0.5), (1, 10, 0.5), (1, 11, 0.5)])
        got = pairs(unique_mapping_clustering(s))
        assert got == {(1, 10), (2, 11)}  # (1,10) first by id, then (2,11)

    def test_result_is_subset_of_input(self):
        s = scored([(1, 10, 0.9), (2, 11, 0.8)])
        out = unique_mapping_clustering(s)
        assert len(out.merge(s, on=["eid1", "eid2"])) == len(out)
