"""End-to-end MinoanER pipeline: blocking, blocking graph, matching, scoring.

:class:`MinoanerRun` is the one chain of ``composite_blocking``, Algorithm 1
(``build_graph``), Algorithm 2 (``match_graph``) and ``evaluate`` for a KB
pair; the table harnesses read one run per profile (``tables.pairs``).
``run_minoaner`` is its one-call form, as perfbench and the tests use it.
Only final P/R/F1 counts are collected to the driver.
"""
from __future__ import annotations

from functools import cached_property

from pyspark.sql import DataFrame

from .blocking import Blocking, composite_blocking
from .config import DEFAULT_CONFIG, MinoanerConfig
from .evaluation import PRF, evaluate
from .graph import BlockingGraph, build_graph
from .matching import match_graph, rule4


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
    def before_r4(self) -> DataFrame:
        """R1-R3: ``(eid1, eid2, rule)``, cached."""
        return match_graph(self.graph, self.cfg.theta, use_r4=False).cache()

    @cached_property
    def matches(self) -> DataFrame:
        """``(R1 v R2 v R3) ^ R4``: ``(eid1, eid2, rule)``."""
        return rule4(self.before_r4, self.graph)

    @cached_property
    def prf(self) -> PRF:
        return evaluate(self.matches, self.gt)

    def release(self) -> None:
        """Unpersist ``before_r4`` and the ``Blocking``, those that were built."""
        if "before_r4" in self.__dict__:
            self.before_r4.unpersist()
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
