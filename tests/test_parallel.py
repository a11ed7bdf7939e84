"""Unit tests for core.parallel.concurrently: order, errors, nesting, job groups."""
from __future__ import annotations

import threading
import time

import pytest

from repro.core.parallel import concurrently

_GROUP_KEYS = ("spark.jobGroup.id", "spark.job.description", "spark.job.interruptOnCancel")


def _wait_for_job(tracker, group: str, timeout_s: float = 30.0) -> None:
    """Wait until the status tracker lists a job of ``group``.

    The tracker is fed by Spark's asynchronous listener bus, in event order,
    so once a later job is listed every earlier one is too.
    """
    deadline = time.monotonic() + timeout_s
    while not tracker.getJobIdsForGroup(group):
        assert time.monotonic() < deadline, f"no job of group {group!r} was listed"
        time.sleep(0.05)


class TestConcurrently:
    def test_results_in_argument_order(self, spark):
        def after(delay: float, value: str):
            def thunk():
                time.sleep(delay)
                return value

            return thunk

        # The first thunk finishes last.
        got = concurrently(spark, after(0.3, "a"), after(0.0, "b"), after(0.1, "c"))
        assert got == ["a", "b", "c"]

    def test_error_reaches_caller_after_others_finish(self, spark):
        before = threading.active_count()
        finished = []

        def slow():
            time.sleep(0.3)
            finished.append("slow")
            return 1

        def boom():
            raise ValueError("boom")

        with pytest.raises(ValueError, match="boom"):
            concurrently(spark, boom, slow)
        assert finished == ["slow"]
        assert threading.active_count() == before

    def test_first_error_in_argument_order_wins(self, spark):
        def fail(exc: Exception, delay: float):
            def thunk():
                time.sleep(delay)
                raise exc

            return thunk

        with pytest.raises(KeyError):
            concurrently(spark, fail(KeyError("first"), 0.2), fail(ValueError("second"), 0.0))

    def test_nested_call_from_a_pool_thread(self, spark):
        # SparkSession.getActiveSession() is None in a pool thread, so the
        # inner call takes its session from the DataFrame.
        df = spark.range(10)

        def inner():
            return concurrently(
                df.sparkSession, df.count, lambda: df.filter("id < 3").count()
            )

        assert concurrently(spark, inner, lambda: "x") == [[10, 3], "x"]

    def test_jobs_keep_the_callers_job_group(self, spark):
        sc = spark.sparkContext
        tracker = sc.statusTracker()
        saved = {k: sc.getLocalProperty(k) for k in _GROUP_KEYS}
        df = spark.range(100)
        try:
            ungrouped = set(tracker.getJobIdsForGroup())
            sc.setJobGroup("g", "concurrent jobs")
            concurrently(
                spark,
                df.count,
                lambda: df.filter("id % 2 = 0").collect(),
                lambda: concurrently(df.sparkSession, df.count, df.count),
            )
            sc.setJobGroup("g.done", "marker")
            df.count()
        finally:
            for key, value in saved.items():
                sc.setLocalProperty(key, value)
        _wait_for_job(tracker, "g.done")
        assert len(tracker.getJobIdsForGroup("g")) >= 4
        assert set(tracker.getJobIdsForGroup()) <= ungrouped
