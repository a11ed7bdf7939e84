"""Shared fixtures: fast shuffle config, generated KB pairs, pipeline runs.

Heavy artifacts (generated pairs, pipeline runs) are session-scoped so the
many tests that inspect them pay the Spark cost once. The micro pair's
blocking, graph and matches are the steps of one run (``micro_run``).
"""
from __future__ import annotations

import pytest

from repro.core import DEFAULT_CONFIG, MinoanerRun
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
def micro_run(micro_pair):
    """The micro pair's one ``MinoanerRun``; each step is built when a test
    first reads it, and what it cached is released at the end of the session."""
    run = MinoanerRun(micro_pair.triples1, micro_pair.triples2, micro_pair.gt, DEFAULT_CONFIG)
    yield run
    run.release()


@pytest.fixture(scope="session")
def micro_blocking(micro_run):
    return micro_run.blocking


@pytest.fixture(scope="session")
def micro_graph(micro_run):
    return micro_run.graph


@pytest.fixture(scope="session")
def restaurant_small_pair(spark, _fast_spark):
    """Restaurant profile at 30% scale: the cheapest 'real' profile."""
    prof = scaled(PROFILES["restaurant"], 0.3)
    pair = generate_kb_pair(spark, prof, seed=7)
    pair.triples1.cache().count()
    pair.triples2.cache().count()
    return pair
