"""End-to-end MinoanER pipeline: blocking graph + matching + scoring.

``run_minoaner`` is Algorithm 1 (``build_graph``), Algorithm 2
(``match_graph``) and ``evaluate`` in one call, as perfbench and the
tests use it. The table harnesses share one graph per profile across
Tables 3 and 4 (``tables.pairs.ProfileRun``), so they call
``match_graph`` and ``evaluate`` on it themselves. All heavy lifting is
DataFrame work; only final P/R/F1 counts are collected to the driver.
"""
from __future__ import annotations

from dataclasses import dataclass

from pyspark.sql import DataFrame

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
    """Build the blocking graph, match with R1-R4, and score against gt."""
    graph = build_graph(triples1, triples2, cfg)
    matches = match_graph(graph, cfg.theta).cache()
    return MinoanerResult(graph=graph, matches=matches, prf=evaluate(matches, gt))
