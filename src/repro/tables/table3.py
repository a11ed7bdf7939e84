"""Table 3 harness: MinoanER vs baselines per profile.

LINDA and RiMOM rows are quoted from the paper (they are not runnable:
no public implementation / instructions, as the paper itself notes);
``table3_rows`` measures MinoanER, BSL, SiGMa-lite and PARIS-lite.
"""
from __future__ import annotations

from pyspark.sql import SparkSession

from ..core import DEFAULT_CONFIG, run_minoaner
from ..core.blocking import composite_blocking
from ..core.names import entity_names
from ..baselines import run_bsl, run_paris, run_sigma
from .fmt import format_rows
from .pairs import profile_pairs


def table3_rows(
    spark: SparkSession,
    profiles: list[str] | None = None,
    seed: int = 7,
    sf: float | None = None,
    bsl_ns: tuple[int, ...] = (1, 2, 3),
    with_sigma: bool = True,
    with_paris: bool = True,
) -> list[dict]:
    rows = []
    for name, pair in profile_pairs(spark, profiles, seed, sf):
        t1, t2 = pair.triples1, pair.triples2

        res = run_minoaner(t1, t2, pair.gt, DEFAULT_CONFIG)
        res.matches.unpersist()
        rows.append(
            {
                "dataset": name,
                "method": "MinoanER",
                **res.prf.row(),
                "config": f"(k,K,N,theta)=({DEFAULT_CONFIG.k},{DEFAULT_CONFIG.K},"
                f"{DEFAULT_CONFIG.N},{DEFAULT_CONFIG.theta})",
            }
        )

        # BSL and SiGMa-lite share one unpruned disjunctive blocking graph,
        # blocked with the name attributes MinoanER discovered.
        blocking = composite_blocking(
            t1,
            t2,
            entity_names(t1, res.graph.name_attrs1),
            entity_names(t2, res.graph.name_attrs2),
            DEFAULT_CONFIG.purge_max_comparisons,
        )
        pairs = blocking.candidate_pairs().cache()
        try:
            bsl = run_bsl(t1, t2, pairs, pair.gt_pdf, ns=bsl_ns)
            sg = (
                run_sigma(t1, t2, pairs, pair.pdf1, pair.pdf2, pair.gt_pdf)
                if with_sigma
                else None
            )
        finally:
            pairs.unpersist()
            blocking.unpersist()
        rows.append(
            {
                "dataset": name,
                "method": "BSL",
                "precision": round(bsl.precision, 2),
                "recall": round(bsl.recall, 2),
                "f1": round(bsl.f1, 2),
                "config": f"n={bsl.n},{bsl.weighting},{bsl.measure},t={bsl.threshold}",
            }
        )

        if sg is not None:
            rows.append(
                {
                    "dataset": name,
                    "method": "SiGMa-lite",
                    "precision": round(sg.precision, 2),
                    "recall": round(sg.recall, 2),
                    "f1": round(sg.f1, 2),
                    "config": "seeds=names,lambda=0.4,t=0.15",
                }
            )
        if with_paris:
            pr = run_paris(pair.pdf1, pair.pdf2, pair.gt_pdf)
            rows.append(
                {
                    "dataset": name,
                    "method": "PARIS-lite",
                    "precision": round(pr.precision, 2),
                    "recall": round(pr.recall, 2),
                    "f1": round(pr.f1, 2),
                    "config": "iters=3,t=0.5",
                }
            )
    return rows


def main(spark: SparkSession) -> str:
    return format_rows("Table 3 — effectiveness vs baselines (ours)", table3_rows(spark))
