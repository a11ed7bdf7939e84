"""Run independent Spark actions as concurrent jobs from driver threads.

Spark's scheduler runs jobs submitted from different driver threads side
by side, so one branch's query planning and code generation overlap
another branch's tasks. ``concurrently`` is the only place in the
program that starts threads. It relies on PySpark's pinned thread mode
(the default), in which every Python thread has its own JVM thread and
therefore its own Spark local properties.
"""
from __future__ import annotations

from concurrent.futures import ThreadPoolExecutor
from typing import Any, Callable

from pyspark import inheritable_thread_target
from pyspark.sql import SparkSession


def concurrently(session: SparkSession, *thunks: Callable[[], Any]) -> list[Any]:
    """Call every thunk in its own driver thread; return results in argument order.

    Each thread inherits the caller's Spark local properties (job group,
    job description, scheduler pool) through
    ``pyspark.inheritable_thread_target``, so the jobs it launches are
    labelled as if the caller had launched them. ``session`` is passed
    explicitly, usually as ``df.sparkSession``:
    ``SparkSession.getActiveSession()`` is ``None`` inside a pool thread,
    so a nested call could not look it up.

    Every thunk runs to completion. If any raised, the exception of the
    first such thunk (in argument order) is re-raised once all are done.
    """
    # One wrapper per thunk: each gets its own copy of the local properties.
    wrapped = [inheritable_thread_target(session)(t) for t in thunks]
    with ThreadPoolExecutor(max_workers=len(thunks)) as pool:
        futures = [pool.submit(w) for w in wrapped]
    # Every thunk has finished; result() re-raises the first failure in order.
    return [f.result() for f in futures]
