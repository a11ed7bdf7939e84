"""One pass over the profiles: each KB pair is generated once, and every table
reads what it needs from one :class:`ProfileRun`.

The run's one composite ``Blocking`` holds |E|, the name attributes, the
tokens and beta; Algorithm 1 (the graph) is built from it, and one
Algorithm 2 run over the graph feeds Table 3's MinoanER row and every
Table 4 variant.
"""
from __future__ import annotations

from collections.abc import Callable
from dataclasses import dataclass
from functools import cached_property

from pyspark.sql import DataFrame, SparkSession

from ..core import DEFAULT_CONFIG, PRF, BlockingGraph, build_graph, evaluate, match_graph, rule4
from ..core.blocking import Blocking, composite_blocking
from ..kbgen import PROFILES, KBPair, generate_kb_pair, scaled

SEED = 7
"""The seed the tables' KB pairs are generated from."""


@dataclass
class ProfileRun:
    """One profile's cached KB pair, and what the tables share from it: the
    ``Blocking``, the graph built from it, and Algorithm 2's matches over the
    graph, each built at most once, when a table first asks for it."""

    name: str
    pair: KBPair

    @cached_property
    def blocking(self) -> Blocking:
        """The composite blocking, with MinoanER's name attributes."""
        return composite_blocking(self.pair.triples1, self.pair.triples2, DEFAULT_CONFIG)

    @cached_property
    def graph(self) -> BlockingGraph:
        return build_graph(self.blocking)

    @cached_property
    def matches(self) -> DataFrame:
        """R1-R3 over the graph, before R4: ``(eid1, eid2, rule)``, cached."""
        return match_graph(self.graph, DEFAULT_CONFIG.theta, use_r4=False).cache()

    @cached_property
    def prf(self) -> PRF:
        """The full workflow's (R1-R4) P/R/F1 against the ground truth."""
        return evaluate(rule4(self.matches, self.graph), self.pair.gt)

    def release(self) -> None:
        """Unpersist the matches and the ``Blocking``, if built, and the KB pair."""
        if "matches" in self.__dict__:
            self.matches.unpersist()
        if "blocking" in self.__dict__:
            self.blocking.unpersist()
        self.pair.triples1.unpersist()
        self.pair.triples2.unpersist()


def run_tables(
    spark: SparkSession,
    tables: list[Callable[[ProfileRun], list[dict]]],
    profiles: list[str] | None,
    seed: int,
    sf: float | None,
) -> list[list[dict]]:
    """Each table function's rows over the profiles (all if ``None``).

    Each profile is scaled by ``sf`` if given, generated from ``seed`` and
    cached; its run goes to every function in ``tables`` and is released
    before the next profile, on the error path too.
    """
    out: list[list[dict]] = [[] for _ in tables]
    for name in profiles or list(PROFILES):
        prof = PROFILES[name] if sf is None else scaled(PROFILES[name], sf)
        run = ProfileRun(name, generate_kb_pair(spark, prof, seed=seed))
        run.pair.triples1.cache()
        run.pair.triples2.cache()
        try:
            for rows, table in zip(out, tables):
                rows.extend(table(run))
        finally:
            run.release()
    return out
