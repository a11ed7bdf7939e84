"""End-to-end MinoanER pipeline: blocking, blocking graph, matching, scoring.

:class:`MinoanerRun` is the one chain of ``composite_blocking``, Algorithm 1
(``build_graph``), Algorithm 2 and ``evaluate`` for a KB pair; the table
harnesses read one run per profile (``tables.pairs``). Algorithm 2 runs
once: the rules alone (``matching.rules_alone``), put in order once
(``matching.precedence``), with R4's verdict as a column
(``matching.r4_verdict``). ``run_minoaner`` is its one-call form, as
perfbench and the tests use it. Only final P/R/F1 counts are collected to
the driver.
"""
from __future__ import annotations

from functools import cached_property

from pyspark.sql import DataFrame
from pyspark.sql import functions as F

from .blocking import Blocking, composite_blocking
from .config import DEFAULT_CONFIG, MinoanerConfig
from .evaluation import PRF, evaluate
from .graph import BlockingGraph, build_graph
from .matching import precedence, r4_verdict, rules_alone


class MinoanerRun:
    """MinoanER over one KB pair, scored against ``gt``. Each property is
    built at most once, when first read; ``release()`` unpersists what the
    run cached (the inputs are the caller's)."""

    def __init__(self, triples1: DataFrame, triples2: DataFrame, gt: DataFrame, cfg: MinoanerConfig):
        self.triples1, self.triples2, self.gt, self.cfg = triples1, triples2, gt, cfg

    @cached_property
    def blocking(self) -> Blocking:
        return composite_blocking(self.triples1, self.triples2, self.cfg)

    @cached_property
    def graph(self) -> BlockingGraph:
        return build_graph(self.blocking)

    @cached_property
    def rules(self) -> tuple[DataFrame, DataFrame, DataFrame]:
        """R1, R2 and R3, each alone: ``(eid1, eid2, rule)``; R3 is a local
        checkpoint, R1 and R2 project graph leaves."""
        return rules_alone(self.graph, self.cfg.theta)

    @cached_property
    def verdicts(self) -> DataFrame:
        """``(eid1, eid2, rule, r4)``: R1-R3 in Alg. 2's order, each pair with
        R4's verdict. Cached: the run's one match frame."""
        return r4_verdict(precedence(self.graph, *self.rules), self.graph).cache()

    @cached_property
    def before_r4(self) -> DataFrame:
        """R1-R3: ``(eid1, eid2, rule)``."""
        return self.verdicts.drop("r4")

    @cached_property
    def matches(self) -> DataFrame:
        """``(R1 v R2 v R3) ^ R4``: ``(eid1, eid2, rule)``."""
        return self.verdicts.filter(F.col("r4")).drop("r4")

    @cached_property
    def prf(self) -> PRF:
        return evaluate(self.matches, self.gt)

    def release(self) -> None:
        """Unpersist ``verdicts`` and the ``Blocking``, those that were built."""
        if "verdicts" in self.__dict__:
            self.verdicts.unpersist()
        if "blocking" in self.__dict__:
            self.blocking.unpersist()


def run_minoaner(
    triples1: DataFrame, triples2: DataFrame, gt: DataFrame, cfg: MinoanerConfig = DEFAULT_CONFIG
) -> MinoanerRun:
    """Block the pair, build the blocking graph, release the blocking, match
    with R1-R4, and score against gt. The run returned holds the graph's
    checkpoints and one cached match frame until its ``release()``."""
    run = MinoanerRun(triples1, triples2, gt, cfg)
    blocking = run.blocking
    try:
        run.graph
    finally:
        blocking.unpersist()
    run.prf
    return run
