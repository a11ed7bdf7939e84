"""Table 3 harness: MinoanER vs baselines per profile.

LINDA and RiMOM rows are quoted from the paper (they are not runnable:
no public implementation / instructions, as the paper itself notes);
``rows`` measures MinoanER (the run's ``prf``, Table 4's ``full``), BSL,
SiGMa-lite and PARIS-lite. The candidate pairs of the run's ``Blocking``
are scored once (``bsl.score_pairs``, one Spark pass per n-gram size); BSL
sweeps every score column and SiGMa-lite reads the unigram TF-IDF one.
"""
from __future__ import annotations

from ..baselines import paris, run_bsl, run_paris, run_sigma, score_pairs, sigma
from .pairs import ProfileRun

TITLE = "Table 3 — effectiveness vs baselines (ours)"


def rows(run: ProfileRun) -> list[dict]:
    """The profile's four rows: MinoanER, BSL, SiGMa-lite, PARIS-lite."""
    blocking, cfg = run.blocking, run.cfg
    t1, t2 = run.triples1, run.triples2
    out = [
        {
            "dataset": run.name,
            "method": "MinoanER",
            **run.prf.row(),
            "config": f"(k,K,N,theta)=({cfg.k},{cfg.K},{cfg.N},{cfg.theta})",
        }
    ]

    # BSL and SiGMa-lite share the scores of the unpruned disjunctive
    # blocking graph, cached for the three scoring passes only.
    pairs = blocking.candidate_pairs().cache()
    try:
        scores = score_pairs(t1, t2, pairs)
    finally:
        pairs.unpersist()
    bsl = run_bsl(scores, run.gt_pdf)
    sg = run_sigma(t1, t2, scores[1], blocking.name_attrs, run.pdf1, run.pdf2, run.gt_pdf)
    pr = run_paris(run.pdf1, run.pdf2, run.gt_pdf)
    for method, res, config in (
        ("BSL", bsl, f"n={bsl.n},{bsl.weighting},{bsl.measure},t={bsl.threshold}"),
        ("SiGMa-lite", sg, f"seeds=names,lambda={sigma.NEIGHBOR_WEIGHT},t={sigma.THRESHOLD}"),
        ("PARIS-lite", pr, f"iters={paris.ITERATIONS},t={paris.ACCEPT_THRESHOLD}"),
    ):
        out.append({"dataset": run.name, "method": method, **res.prf.row(), "config": config})
    return out
