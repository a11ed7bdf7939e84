"""Self-tests of the benchmark's helpers; none of them starts Spark.

Run from the root of the repository:

    python3 -m pytest perfbench -q -p no:cacheprovider
"""
from __future__ import annotations

import json
import sys
from pathlib import Path

import numpy as np
import pandas as pd
import pytest

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT)]

from perfbench.checks import digest, non_reciprocal, prf_problems, recount  # noqa: E402
from perfbench.eventlog import span_work  # noqa: E402
from perfbench.inputs import kb_ids, relabel  # noqa: E402
from repro.core import PRF  # noqa: E402
from repro.kbgen import MICRO, generate_pandas  # noqa: E402


# --- event log attribution ----------------------------------------------------


def _props(group):
    return {"spark.jobGroup.id": group} if group else {}


def _job(job_id, group):
    return {"Event": "SparkListenerJobStart", "Job ID": job_id, "Properties": _props(group)}


def _stage(stage_id, group, attempt=0):
    return {
        "Event": "SparkListenerStageSubmitted",
        "Stage Info": {"Stage ID": stage_id, "Stage Attempt ID": attempt},
        "Properties": _props(group),
    }


def _task(stage_id, run_ms, cpu_ns, shuffle_bytes, attempt=0):
    return {
        "Event": "SparkListenerTaskEnd",
        "Stage ID": stage_id,
        "Stage Attempt ID": attempt,
        "Task Metrics": {
            "Executor Run Time": run_ms,
            "Executor CPU Time": cpu_ns,
            "Shuffle Write Metrics": {"Shuffle Bytes Written": shuffle_bytes},
        },
    }


def test_span_work_charges_jobs_and_tasks_to_their_group():
    events = [
        {"Event": "SparkListenerApplicationStart"},
        _job(0, "tokens"),
        _stage(0, "tokens"),
        _task(0, 100, 50_000_000, 1000),
        _task(0, 300, 150_000_000, 3000),
        _job(1, "graph.beta"),
        _stage(1, "graph.beta"),
        _stage(2, "graph.beta"),
        _task(1, 1000, 900_000_000, 0),
        _task(2, 500, 400_000_000, 7),
        _job(2, None),  # outside any span
        _stage(3, None),
        _task(3, 9999, 9_999_000_000, 9999),
        _job(3, "tokens"),  # a span's second job, whose stage is retried
        _stage(4, "tokens"),
        _stage(4, "tokens", attempt=1),
        _task(4, 10, 1_000_000, 0, attempt=1),
    ]
    work = span_work(json.dumps(e) for e in events)
    assert set(work) == {"tokens", "graph.beta"}
    tokens, beta = work["tokens"], work["graph.beta"]
    assert (tokens.jobs, tokens.tasks, tokens.shuffle_write_bytes) == (2, 3, 4000)
    assert tokens.run_s == pytest.approx(0.41)
    assert tokens.cpu_s == pytest.approx(0.201)
    assert (beta.jobs, beta.tasks, beta.shuffle_write_bytes) == (1, 2, 7)
    assert beta.run_s == pytest.approx(1.5)
    assert beta.cpu_s == pytest.approx(1.3)


def test_span_work_tolerates_tasks_without_metrics():
    events = [_job(0, "s"), _stage(0, "s"), {**_task(0, 1, 1, 1), "Task Metrics": None}]
    work = span_work(json.dumps(e) for e in events)
    assert (work["s"].jobs, work["s"].tasks, work["s"].run_s) == (1, 1, 0.0)


# --- id relabelling -----------------------------------------------------------


@pytest.fixture(scope="module")
def micro():
    return generate_pandas(MICRO, seed=3)


def _inverse(old: pd.DataFrame, new: pd.DataFrame) -> dict[int, int]:
    """new id -> old id, read off the row-aligned subject and object columns."""
    pairs = set(zip(new["eid"], old["eid"]))
    has_obj = old["obj"].notna()
    pairs |= set(zip(new.loc[has_obj, "obj"].astype(int), old.loc[has_obj, "obj"].astype(int)))
    inv = dict(pairs)
    assert len(inv) == len(pairs), "one new id stands for two old ids"
    return inv


def test_relabel_is_a_bijection_into_disjoint_ranges(micro):
    t1, t2, gt = micro
    out = relabel(t1, t2, gt, seed=3)
    for old, new in ((t1, out.triples1), (t2, out.triples2)):
        inv = _inverse(old, new)
        assert len(set(inv.values())) == len(inv)  # injective both ways
        assert sorted(inv) == list(kb_ids(new))
        assert sorted(inv.values()) == list(kb_ids(old))
        pd.testing.assert_series_equal(new["attr"], old["attr"])
        pd.testing.assert_series_equal(new["val"], old["val"])
        assert (new["obj"].isna() == old["obj"].isna()).all()
    ids1, ids2 = kb_ids(out.triples1), kb_ids(out.triples2)
    assert list(ids1) == list(range(len(ids1)))
    assert list(ids2) == list(range(len(ids1), len(ids1) + len(ids2)))


def test_relabel_preserves_the_ground_truth(micro):
    t1, t2, gt = micro
    out = relabel(t1, t2, gt, seed=3)
    inv1, inv2 = _inverse(t1, out.triples1), _inverse(t2, out.triples2)
    back = {(inv1[a], inv2[b]) for a, b in zip(out.gt["eid1"], out.gt["eid2"])}
    assert back == set(zip(gt["eid1"], gt["eid2"]))
    assert len(out.gt) == len(gt)


def test_relabel_removes_the_id_order_signal(micro):
    t1, t2, gt = micro
    out = relabel(t1, t2, gt, seed=3)
    # Raw generator ids put every match below every non-match.
    assert gt["eid1"].max() < t1.loc[~t1["eid"].isin(gt["eid1"]), "eid"].min()
    rest = out.triples1.loc[~out.triples1["eid"].isin(out.gt["eid1"]), "eid"]
    assert out.gt["eid1"].max() > rest.min()
    assert not np.array_equal(np.sort(out.gt["eid1"]), out.gt["eid1"])


def test_relabel_depends_only_on_the_seed(micro):
    t1, t2, gt = micro
    a, b = relabel(t1, t2, gt, seed=3), relabel(t1, t2, gt, seed=3)
    c = relabel(t1, t2, gt, seed=4)
    pd.testing.assert_frame_equal(a.gt, b.gt)
    assert not a.gt.equals(c.gt)


# --- output checks ------------------------------------------------------------


def _pairs(rows, rule="R1"):
    return pd.DataFrame(
        {"eid1": [r[0] for r in rows], "eid2": [r[1] for r in rows], "rule": rule}
    )


def test_recount_and_prf_problems():
    gt = _pairs([(1, 10), (2, 20), (3, 30), (4, 40)])
    matches = _pairs([(1, 10), (2, 20), (2, 20), (5, 50)])
    assert recount(matches, gt) == (3, 4, 2)
    p, r = 100 * 2 / 3, 100 * 2 / 4
    good = PRF(p, r, 2 * p * r / (p + r), 3, 4, 2)
    assert prf_problems(good, matches, gt) == []
    assert prf_problems(PRF(p, r, good.f1 + 1e-3, 3, 4, 2), matches, gt)
    assert prf_problems(PRF(p, r, good.f1, 3, 4, 3), matches, gt)


def test_non_reciprocal_counts_r4_violations():
    matches = _pairs([(1, 10), (2, 20), (3, 30)])
    from1 = _pairs([(1, 10), (2, 20)])
    from2 = _pairs([(1, 10), (3, 30)])
    assert non_reciprocal(matches, from1, from2) == 2
    assert non_reciprocal(matches.iloc[:1], from1, from2) == 0


def test_digest_ignores_row_order_but_not_content():
    a = _pairs([(1, 10), (2, 20)])
    assert digest(a) == digest(a.iloc[::-1])
    assert digest(a) != digest(_pairs([(1, 10), (2, 21)]))
    assert digest(a) != digest(_pairs([(1, 10), (2, 20)], "R2"))
    assert digest(a, "x") != digest(a, "y")
