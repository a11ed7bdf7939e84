"""Pair-level precision / recall / F1 against the ground truth.

The paper reports percentages; so do we. A proposed pair counts as a
true positive iff it appears verbatim in the ground truth (clean-clean
ER: the ground truth is a partial 1-1 mapping between the KBs).
"""
from __future__ import annotations

from dataclasses import dataclass

from pyspark.sql import DataFrame
from pyspark.sql import functions as F

_PAIR = ["eid1", "eid2"]


@dataclass(frozen=True)
class PRF:
    """Precision / recall / F1 in percent, plus the raw counts."""

    precision: float
    recall: float
    f1: float
    n_matches: int
    n_gt: int
    n_correct: int

    @classmethod
    def from_counts(cls, n_matches: int, n_gt: int, n_correct: int) -> PRF:
        """The scores of ``n_correct`` true pairs among ``n_matches`` proposed
        ones, against ``n_gt`` true pairs; an empty side scores 0."""
        p = 100.0 * n_correct / n_matches if n_matches else 0.0
        r = 100.0 * n_correct / n_gt if n_gt else 0.0
        f1 = 2 * p * r / (p + r) if p + r else 0.0
        return cls(p, r, f1, n_matches, n_gt, n_correct)

    def row(self) -> dict[str, float]:
        return {
            "precision": round(self.precision, 2),
            "recall": round(self.recall, 2),
            "f1": round(self.f1, 2),
        }


def evaluate(matches: DataFrame, gt: DataFrame) -> PRF:
    """Score a set of proposed ``(eid1, eid2)`` pairs against ``gt``.

    Both sides are deduplicated, so a pair repeated in either counts once.
    All three counts come from one aggregation over a full outer join of
    the two pair sets, i.e. one Spark job.
    """
    pairs = matches.select(*_PAIR).distinct().withColumn("_m", F.lit(True))
    truth = gt.select(*_PAIR).distinct().withColumn("_g", F.lit(True))
    n_m, n_gt, n_ok = (
        pairs.join(truth, _PAIR, "full_outer")
        .agg(
            F.count("_m"),
            F.count("_g"),
            F.count(F.when(F.col("_m") & F.col("_g"), True)),
        )
        .collect()[0]
    )
    return PRF.from_counts(n_m, n_gt, n_ok)
