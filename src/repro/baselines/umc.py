"""Unique Mapping Clustering (Section 5 of the paper).

All scored candidate pairs enter a priority queue in decreasing
similarity; at each step the top pair is accepted as a match iff neither
entity has been matched yet. The paper stops the scan when the top
similarity drops below a threshold ``t``. Nothing after that point
changes what was accepted before it, so the matches at threshold ``t``
are the rows of one full scan with ``sim >= t``: BSL sweeps its
thresholds as cuts of one scan. Used by BSL, SiGMa-lite and PARIS-lite.

The greedy scan is inherently sequential, so it runs on the driver over
Spark-computed scores (DESIGN.md section 5); candidate scoring — the
heavy part — stays distributed.
"""
from __future__ import annotations

import numpy as np
import pandas as pd


def unique_mapping_clustering(scored: pd.DataFrame) -> pd.DataFrame:
    """Greedy 1-1 matching over ``(eid1, eid2, sim)`` rows.

    Returns the accepted pairs as a DataFrame with the same columns, in
    scan order (decreasing ``sim``). Ties break on (eid1, eid2) ascending
    for determinism.
    """
    if scored.empty:
        return scored.head(0)
    s = scored.sort_values(
        ["sim", "eid1", "eid2"], ascending=[False, True, True], kind="mergesort"
    )
    taken1: set[int] = set()
    taken2: set[int] = set()
    keep = np.zeros(len(s), dtype=bool)
    e1s = s["eid1"].to_numpy()
    e2s = s["eid2"].to_numpy()
    for i in range(len(s)):
        a, b = int(e1s[i]), int(e2s[i])
        if a not in taken1 and b not in taken2:
            keep[i] = True
            taken1.add(a)
            taken2.add(b)
    return s[keep].reset_index(drop=True)
