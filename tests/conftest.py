"""Shared fixtures: fast shuffle config, generated KB pairs, built graphs.

Heavy artifacts (generated pairs, blocking graphs, pipeline results) are
session-scoped so the many tests that inspect them pay the Spark cost
once.
"""
from __future__ import annotations

import pytest

from repro.core import (
    DEFAULT_CONFIG,
    MinoanerResult,
    evaluate,
    match_graph,
    run_minoaner,
)
from repro.core.blocking import composite_blocking
from repro.core.graph import build_graph
from repro.kbgen import MICRO, PROFILES, generate_kb_pair
from repro.kbgen.profiles import scaled


@pytest.fixture(scope="session", autouse=True)
def _fast_spark(spark):
    """Small shuffle fan-out: test data is tiny, 64 partitions just add latency."""
    spark.conf.set("spark.sql.shuffle.partitions", "8")
    spark.sparkContext.setLogLevel("ERROR")
    return spark


@pytest.fixture(scope="session")
def micro_pair(spark, _fast_spark):
    pair = generate_kb_pair(spark, MICRO, seed=7)
    pair.triples1.cache().count()
    pair.triples2.cache().count()
    return pair


@pytest.fixture(scope="session")
def micro_blocking(micro_pair):
    """The micro pair's composite blocking, released at the end of the session."""
    b = composite_blocking(micro_pair.triples1, micro_pair.triples2, DEFAULT_CONFIG)
    yield b
    b.unpersist()


@pytest.fixture(scope="session")
def micro_graph(micro_pair, micro_blocking):
    return build_graph(
        micro_pair.triples1, micro_pair.triples2, micro_blocking, DEFAULT_CONFIG
    )


@pytest.fixture(scope="session")
def micro_result(micro_pair, micro_graph):
    """Algorithm 2 and ``evaluate`` over ``micro_graph``: ``run_minoaner``
    without re-running Algorithm 1."""
    matches = match_graph(micro_graph, DEFAULT_CONFIG.theta).cache()
    return MinoanerResult(micro_graph, matches, evaluate(matches, micro_pair.gt))


@pytest.fixture(scope="session")
def restaurant_small_pair(spark, _fast_spark):
    """Restaurant profile at 30% scale: the cheapest 'real' profile."""
    prof = scaled(PROFILES["restaurant"], 0.3)
    pair = generate_kb_pair(spark, prof, seed=7)
    pair.triples1.cache().count()
    pair.triples2.cache().count()
    return pair


@pytest.fixture(scope="session")
def restaurant_small_result(restaurant_small_pair):
    p = restaurant_small_pair
    return run_minoaner(p.triples1, p.triples2, p.gt, DEFAULT_CONFIG)
