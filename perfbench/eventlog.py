"""Attribute Spark work to benchmark spans by reading Spark's event log.

Each span runs its jobs under ``SparkContext.setJobGroup(<span>)``. The
event log carries that group in the ``Properties`` of every job start and
stage submission, so jobs are counted per group and every finished task is
charged to the group of the stage it ran in. The log must be written
uncompressed and non-rolling, one JSON event per line.
"""
from __future__ import annotations

import json
from collections import defaultdict
from dataclasses import dataclass
from typing import Iterable

GROUP_KEY = "spark.jobGroup.id"


@dataclass
class SpanWork:
    """Spark work done under one job group."""

    jobs: int = 0
    tasks: int = 0
    run_s: float = 0.0  # executor run time, summed over tasks
    cpu_s: float = 0.0  # executor CPU time, summed over tasks
    shuffle_write_bytes: int = 0


def _group(event: dict) -> str | None:
    return (event.get("Properties") or {}).get(GROUP_KEY)


def span_work(lines: Iterable[str]) -> dict[str, SpanWork]:
    """Jobs, tasks, run/CPU time and shuffle bytes written, per job group.

    Work outside any job group is not reported.
    """
    work: dict[str, SpanWork] = defaultdict(SpanWork)
    stage_group: dict[tuple[int, int], str] = {}
    for line in lines:
        event = json.loads(line)
        kind = event["Event"]
        if kind == "SparkListenerJobStart":
            group = _group(event)
            if group is not None:
                work[group].jobs += 1
        elif kind == "SparkListenerStageSubmitted":
            group = _group(event)
            info = event["Stage Info"]
            if group is not None:
                stage_group[(info["Stage ID"], info["Stage Attempt ID"])] = group
        elif kind == "SparkListenerTaskEnd":
            group = stage_group.get((event["Stage ID"], event["Stage Attempt ID"]))
            if group is None:
                continue
            span = work[group]
            span.tasks += 1
            metrics = event.get("Task Metrics") or {}
            span.run_s += metrics.get("Executor Run Time", 0) / 1e3
            span.cpu_s += metrics.get("Executor CPU Time", 0) / 1e9
            shuffle = metrics.get("Shuffle Write Metrics") or {}
            span.shuffle_write_bytes += shuffle.get("Shuffle Bytes Written", 0)
    return dict(work)
