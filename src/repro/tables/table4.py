"""Table 4 harness: matching-rule ablation per profile.

Rows, as in the paper: R1 alone, R2 alone, R3 alone, the full workflow
without R4 ("¬R4"), the full workflow without R3 ("No Neighbors"), and
the full workflow. Algorithms 1 and 2 run once per profile: R1, ¬R4 and
No Neighbors come from the run's matches before R4, by their ``rule``
column, and ``full`` is the run's ``prf``, Table 3's MinoanER row. R2
alone and R3 alone may match entities an earlier rule took, so each runs
on its own over the graph, as the paper isolates Algorithm 2's rules.
"""
from __future__ import annotations

from pyspark.sql import DataFrame
from pyspark.sql import functions as F

from ..core import DEFAULT_CONFIG, BlockingGraph, evaluate, rule2, rule3, rule4
from .pairs import ProfileRun

TITLE = "Table 4 — matching-rule ablation (ours)"


def ablations(g: BlockingGraph, matches: DataFrame, theta: float) -> dict[str, DataFrame]:
    """Every variant's matches but the full workflow's, in row order, from
    ``matches = match_graph(g, theta, use_r4=False)``."""
    return {
        "R1": matches.filter(F.col("rule") == "R1"),
        "R2": rule2(g),
        "R3": rule3(g, theta=theta),
        "no_R4": matches,
        "no_neighbors": rule4(matches.filter(F.col("rule") != "R3"), g),
    }


def rows(run: ProfileRun) -> list[dict]:
    """One row per variant of the profile."""
    prfs = {
        variant: evaluate(df, run.pair.gt)
        for variant, df in ablations(run.graph, run.matches, DEFAULT_CONFIG.theta).items()
    }
    prfs["full"] = run.prf
    return [
        {"dataset": run.name, "variant": variant, **prf.row()}
        for variant, prf in prfs.items()
    ]
