"""One pass over the profiles: each KB pair is generated once, and every table
reads the graph and the ``Blocking`` it needs from one :class:`ProfileRun`.

Alg. 1 still tokenizes inside ``build_graph``: sharing the ``Blocking``'s
tokens would make its value branch wait for the names.
"""
from __future__ import annotations

from collections.abc import Callable
from dataclasses import dataclass
from functools import cached_property

from pyspark.sql import SparkSession

from ..core import DEFAULT_CONFIG, BlockingGraph, build_graph
from ..core.blocking import Blocking, composite_blocking
from ..core.names import entity_names, top_k_name_attrs
from ..kbgen import PROFILES, KBPair, generate_kb_pair, scaled

SEED = 7
"""The seed the tables' KB pairs are generated from."""


@dataclass
class ProfileRun:
    """One profile's cached KB pair, and what the tables share from it: |E|,
    the name attributes, the graph and the ``Blocking``, each built at most
    once, when a table first asks for it."""

    name: str
    pair: KBPair

    @cached_property
    def n_entities(self) -> tuple[int, int]:
        """``(|E1|, |E2|)``."""
        return tuple(
            t.select("eid").distinct().count()
            for t in (self.pair.triples1, self.pair.triples2)
        )

    @cached_property
    def name_attrs(self) -> tuple[list[str], list[str]]:
        """Both KBs' top-``k`` name attributes; the graph's, if it is built."""
        if "graph" in self.__dict__:
            return self.graph.name_attrs1, self.graph.name_attrs2
        n1, n2 = self.n_entities
        return (
            top_k_name_attrs(self.pair.triples1, DEFAULT_CONFIG.k, n1),
            top_k_name_attrs(self.pair.triples2, DEFAULT_CONFIG.k, n2),
        )

    @cached_property
    def graph(self) -> BlockingGraph:
        return build_graph(self.pair.triples1, self.pair.triples2, DEFAULT_CONFIG)

    @cached_property
    def blocking(self) -> Blocking:
        """The composite blocking, with MinoanER's name attributes."""
        t1, t2 = self.pair.triples1, self.pair.triples2
        names1, names2 = (entity_names(t, a) for t, a in zip((t1, t2), self.name_attrs))
        return composite_blocking(t1, t2, names1, names2, DEFAULT_CONFIG.purge_max_comparisons)

    def release(self) -> None:
        """Unpersist the ``Blocking``'s tokens, if built, and the KB pair."""
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
