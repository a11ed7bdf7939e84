"""Tests for Unique Mapping Clustering."""
from __future__ import annotations

import pandas as pd
import pytest

from repro.baselines.umc import unique_mapping_clustering


def scored(rows):
    return pd.DataFrame(rows, columns=["eid1", "eid2", "sim"])


class TestUMC:
    def test_greedy_takes_best_first(self):
        s = scored([(1, 10, 0.9), (1, 11, 0.8), (2, 10, 0.7), (2, 11, 0.6)])
        out = unique_mapping_clustering(s, 0.0)
        assert set(map(tuple, out[["eid1", "eid2"]].values)) == {(1, 10), (2, 11)}

    def test_one_to_one(self):
        s = scored([(1, 10, 0.9), (2, 10, 0.8), (3, 10, 0.7)])
        out = unique_mapping_clustering(s, 0.0)
        assert len(out) == 1
        assert tuple(out.iloc[0][["eid1", "eid2"]]) == (1, 10)

    def test_threshold_cuts(self):
        s = scored([(1, 10, 0.9), (2, 11, 0.3)])
        out = unique_mapping_clustering(s, 0.5)
        assert len(out) == 1

    def test_threshold_inclusive(self):
        s = scored([(1, 10, 0.5)])
        assert len(unique_mapping_clustering(s, 0.5)) == 1

    def test_empty_input(self):
        s = scored([])
        assert len(unique_mapping_clustering(s, 0.0)) == 0

    def test_deterministic_tie_break(self):
        s = scored([(2, 11, 0.5), (1, 10, 0.5), (1, 11, 0.5)])
        out = unique_mapping_clustering(s, 0.0)
        got = set(map(tuple, out[["eid1", "eid2"]].values))
        assert got == {(1, 10), (2, 11)}  # (1,10) first by id, then (2,11)

    def test_result_is_subset_of_input(self):
        s = scored([(1, 10, 0.9), (2, 11, 0.8)])
        out = unique_mapping_clustering(s, 0.0)
        assert len(out.merge(s, on=["eid1", "eid2"])) == len(out)
