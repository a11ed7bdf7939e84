"""End-to-end MinoanER pipeline: blocking, blocking graph, matching, scoring.

``run_minoaner`` is ``composite_blocking``, Algorithm 1 over it
(``build_graph``), Algorithm 2 (``match_graph``) and ``evaluate`` in one
call, as perfbench and the tests use it; the blocking is released once
the graph is built. The table harnesses share one blocking, graph and
Algorithm 2 run per profile (``tables.pairs.ProfileRun``) instead. Only
final P/R/F1 counts are collected to the driver.
"""
from __future__ import annotations

from dataclasses import dataclass

from pyspark.sql import DataFrame

from .blocking import composite_blocking
from .config import DEFAULT_CONFIG, MinoanerConfig
from .evaluation import PRF, evaluate
from .graph import BlockingGraph, build_graph
from .matching import match_graph


@dataclass
class MinoanerResult:
    """The graph, the matches and their P/R/F1 from one pipeline run."""

    graph: BlockingGraph
    matches: DataFrame  # (eid1, eid2, rule), cached; the caller unpersists it
    prf: PRF


def run_minoaner(
    triples1: DataFrame,
    triples2: DataFrame,
    gt: DataFrame,
    cfg: MinoanerConfig = DEFAULT_CONFIG,
) -> MinoanerResult:
    """Block the pair, build the blocking graph, release the blocking, match
    with R1-R4, and score against gt."""
    blocking = composite_blocking(triples1, triples2, cfg)
    try:
        graph = build_graph(triples1, triples2, blocking, cfg)
    finally:
        blocking.unpersist()
    matches = match_graph(graph, cfg.theta).cache()
    return MinoanerResult(graph=graph, matches=matches, prf=evaluate(matches, gt))
