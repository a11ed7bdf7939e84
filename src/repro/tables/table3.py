"""Table 3 harness: MinoanER vs baselines per profile.

LINDA and RiMOM rows are quoted from the paper (they are not runnable:
no public implementation / instructions, as the paper itself notes);
``rows`` measures MinoanER (the run's ``prf``, Table 4's ``full``), BSL,
SiGMa-lite and PARIS-lite. BSL and SiGMa-lite score the run's ``Blocking``.
"""
from __future__ import annotations

from ..core import DEFAULT_CONFIG
from ..baselines import paris, run_bsl, run_paris, run_sigma, sigma
from .pairs import ProfileRun

TITLE = "Table 3 — effectiveness vs baselines (ours)"


def rows(run: ProfileRun) -> list[dict]:
    """The profile's four rows: MinoanER, BSL, SiGMa-lite, PARIS-lite."""
    pair, blocking = run.pair, run.blocking
    t1, t2 = pair.triples1, pair.triples2
    out = [
        {
            "dataset": run.name,
            "method": "MinoanER",
            **run.prf.row(),
            "config": f"(k,K,N,theta)=({DEFAULT_CONFIG.k},{DEFAULT_CONFIG.K},"
            f"{DEFAULT_CONFIG.N},{DEFAULT_CONFIG.theta})",
        }
    ]

    # BSL and SiGMa-lite share the run's unpruned disjunctive blocking graph.
    pairs = blocking.candidate_pairs().cache()
    try:
        bsl = run_bsl(t1, t2, pairs, pair.gt_pdf)
        sg = run_sigma(t1, t2, pairs, blocking.name_attrs, pair.pdf1, pair.pdf2, pair.gt_pdf)
    finally:
        pairs.unpersist()
    pr = run_paris(pair.pdf1, pair.pdf2, pair.gt_pdf)
    for method, res, config in (
        ("BSL", bsl, f"n={bsl.n},{bsl.weighting},{bsl.measure},t={bsl.threshold}"),
        ("SiGMa-lite", sg, f"seeds=names,lambda={sigma.NEIGHBOR_WEIGHT},t={sigma.THRESHOLD}"),
        ("PARIS-lite", pr, f"iters={paris.ITERATIONS},t={paris.ACCEPT_THRESHOLD}"),
    ):
        out.append({"dataset": run.name, "method": method, **res.prf.row(), "config": config})
    return out
