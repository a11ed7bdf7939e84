"""Table 4 harness: matching-rule ablation per profile.

Rows, as in the paper: R1 alone, R2 alone, R3 alone, the full workflow
without R4 ("¬R4"), the full workflow without R3 ("No Neighbors"), and
the full workflow. Every variant runs Algorithm 2 (``match_graph``) over
the run's one blocking graph — Algorithm 1 runs once per profile, shared
with Table 3's MinoanER row — mirroring how the paper isolates
Algorithm 2's rules.
"""
from __future__ import annotations

from pyspark.sql import SparkSession

from ..core import DEFAULT_CONFIG, evaluate, match_graph
from .pairs import SEED, ProfileRun, run_tables

TITLE = "Table 4 — matching-rule ablation (ours)"

VARIANTS = {
    "R1": dict(use_r1=True, use_r2=False, use_r3=False, use_r4=False),
    "R2": dict(use_r1=False, use_r2=True, use_r3=False, use_r4=False),
    "R3": dict(use_r1=False, use_r2=False, use_r3=True, use_r4=False),
    "no_R4": dict(use_r1=True, use_r2=True, use_r3=True, use_r4=False),
    "no_neighbors": dict(use_r1=True, use_r2=True, use_r3=False, use_r4=True),
    "full": dict(use_r1=True, use_r2=True, use_r3=True, use_r4=True),
}


def rows(run: ProfileRun) -> list[dict]:
    """One row per variant of the profile."""
    return [
        {
            "dataset": run.name,
            "variant": variant,
            **evaluate(
                match_graph(run.graph, DEFAULT_CONFIG.theta, **toggles), run.pair.gt
            ).row(),
        }
        for variant, toggles in VARIANTS.items()
    ]


def table4_rows(
    spark: SparkSession, profiles: list[str] | None = None, seed: int = SEED, sf: float | None = None
) -> list[dict]:
    """Six rows per profile (Table 4 alone)."""
    return run_tables(spark, [rows], profiles, seed, sf)[0]
