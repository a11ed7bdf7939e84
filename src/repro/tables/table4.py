"""Table 4 harness: matching-rule ablation per profile.

Rows, as in the paper: R1 alone, R2 alone, R3 alone, the full workflow
without R4 ("¬R4"), the full workflow without R3 ("No Neighbors"), and
the full workflow. Algorithms 1 and 2 run once per profile, and every
variant is one of the run's frames or a filter of them; no rule runs here.
R1, R2 and R3 alone are the run's ``rules``, each computed alone as the
paper isolates Algorithm 2's rules. ¬R4 is ``before_r4``, and No Neighbors
is its R1 and R2 rows that pass R4 (``verdicts``): R2 skips only R1's
entities, so they are R1 ∪ R2-after-R1. ``full`` is the run's ``prf``,
Table 3's MinoanER row.
"""
from __future__ import annotations

from pyspark.sql import DataFrame
from pyspark.sql import functions as F

from ..core import MinoanerRun, evaluate
from .pairs import ProfileRun

TITLE = "Table 4 — matching-rule ablation (ours)"


def ablations(run: MinoanerRun) -> dict[str, DataFrame]:
    """Every variant's matches but the full workflow's, in row order, from
    the run's rules alone and its verdict frame."""
    r1, r2, r3 = run.rules
    return {
        "R1": r1,
        "R2": r2,
        "R3": r3,
        "no_R4": run.before_r4,
        "no_neighbors": run.verdicts.filter((F.col("rule") != "R3") & F.col("r4")).drop("r4"),
    }


def rows(run: ProfileRun) -> list[dict]:
    """One row per variant of the profile."""
    prfs = {variant: evaluate(df, run.gt) for variant, df in ablations(run).items()}
    prfs["full"] = run.prf
    return [
        {"dataset": run.name, "variant": variant, **prf.row()}
        for variant, prf in prfs.items()
    ]
