"""Benchmark inputs: a seeded KB pair whose entity ids carry no match signal.

``repro.kbgen`` gives a matched entity the same id in both KBs and puts the
matches at the lowest ids. Every top-K, R3 and UMC tie-break in the program
is "candidate id ascending", so raw generator ids quietly favour true
matches. Before the program sees them, each KB's ids (``eid`` and ``obj``)
are sent through a seeded random bijection into its own disjoint range, and
the ground truth is rewritten to match.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import pandas as pd

from repro.kbgen import Profile, generate_pandas


@dataclass(frozen=True)
class PairData:
    """One generated, relabelled KB pair as pandas frames."""

    triples1: pd.DataFrame  # (eid, attr, val, obj)
    triples2: pd.DataFrame
    gt: pd.DataFrame  # (eid1, eid2)

    @property
    def n_entities(self) -> int:
        """|E1| + |E2|: the distinct subjects of both KBs."""
        return int(self.triples1["eid"].nunique() + self.triples2["eid"].nunique())

    @property
    def n_triples(self) -> int:
        return len(self.triples1) + len(self.triples2)


def kb_ids(triples: pd.DataFrame) -> np.ndarray:
    """Sorted distinct entity ids of one KB: subjects and relation objects."""
    objs = triples["obj"].dropna().to_numpy(dtype=np.int64)
    return np.union1d(triples["eid"].to_numpy(dtype=np.int64), objs)


def _bijection(ids: np.ndarray, base: int, rng: np.random.Generator) -> np.ndarray:
    """New id for each of the sorted ``ids``: a shuffle of ``base..base+len-1``."""
    return base + rng.permutation(ids.size).astype(np.int64)


def _map(values: np.ndarray, ids: np.ndarray, new: np.ndarray) -> np.ndarray:
    return new[np.searchsorted(ids, values)]


def _relabel_kb(triples: pd.DataFrame, ids: np.ndarray, new: np.ndarray) -> pd.DataFrame:
    out = triples.copy()
    out["eid"] = _map(triples["eid"].to_numpy(dtype=np.int64), ids, new)
    has_obj = triples["obj"].notna().to_numpy()
    out.loc[has_obj, "obj"] = _map(
        triples.loc[has_obj, "obj"].to_numpy(dtype=np.int64), ids, new
    )
    return out


def relabel(
    triples1: pd.DataFrame, triples2: pd.DataFrame, gt: pd.DataFrame, seed: int
) -> PairData:
    """Relabel both KBs through seeded bijections into disjoint id ranges.

    KB1 ids become a shuffle of ``0..|ids1|-1`` and KB2 ids a shuffle of
    the next ``|ids2|`` integers, so no id is shared across the KBs and id
    order says nothing about which entities match.
    """
    rng = np.random.default_rng((seed, 0x1D5))
    ids1, ids2 = kb_ids(triples1), kb_ids(triples2)
    new1 = _bijection(ids1, 0, rng)
    new2 = _bijection(ids2, ids1.size, rng)
    gt_out = pd.DataFrame(
        {
            "eid1": _map(gt["eid1"].to_numpy(dtype=np.int64), ids1, new1),
            "eid2": _map(gt["eid2"].to_numpy(dtype=np.int64), ids2, new2),
        }
    )
    return PairData(
        _relabel_kb(triples1, ids1, new1), _relabel_kb(triples2, ids2, new2), gt_out
    )


def make_pair(profile: Profile, seed: int) -> PairData:
    """Generate the profile's KB pair from ``seed`` and relabel its ids."""
    t1, t2, gt = generate_pandas(profile, seed)
    return relabel(t1, t2, gt, seed)
