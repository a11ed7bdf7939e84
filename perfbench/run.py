"""Run one MinoanER benchmark workload and print its metrics.

Usage, from the root of a checkout of the repository:

    python3 perfbench/run.py --workload yago --seed 1 --seconds 1 --trace 0

The run starts Spark with the pinned engine settings below, generates its
KB pair from ``--seed`` and caches it, then resolves it from a freshly
cached input again and again until ``--seconds`` have passed. Every resolution is checked (see ``checks``).
``--trace 1`` adds one traced resolution, split into per-module spans, and
reports per-layer metrics from Spark's event log instead of the end-to-end
ones. The last line of standard output is one JSON object; see README.md.
"""
from __future__ import annotations

import argparse
import json
import os
import shlex
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
WORK = ROOT / ".perfbench_work"
THREADS = min(4, os.cpu_count() or 1)
DRIVER_MEMORY = "3g"
SETUP_REPEATS = 3
ENGINE = {
    "spark.master": f"local[{THREADS}]",
    "spark.driver.memory": DRIVER_MEMORY,
    "spark.driver.host": "127.0.0.1",
    "spark.sql.shuffle.partitions": str(THREADS),
    "spark.sql.adaptive.enabled": "false",
    "spark.sql.codegen.wholeStage": "false",
    "spark.sql.autoBroadcastJoinThreshold": "-1",
    "spark.sql.execution.arrow.pyspark.enabled": "true",
    "spark.ui.enabled": "false",
    "spark.ui.showConsoleProgress": "false",
    "spark.local.dir": str(WORK / "spark-local"),
}
EVENT_LOG = {
    "spark.eventLog.enabled": "true",
    "spark.eventLog.dir": (WORK / "eventlog").as_uri(),
    "spark.eventLog.compress": "false",
    "spark.eventLog.rolling.enabled": "false",
}
SPANS = [
    "names",
    "tokens",
    "blocking",
    "relations",
    "graph.beta",
    "graph.gamma",
    "matching.r1",
    "matching.r2",
    "matching.r3",
    "matching.r4",
    "evaluation",
    "blocking.stats",
]
COUNTS = [
    "tokens.rows",
    "blocking.blocks",
    "blocking.kept_blocks",
    "blocking.kept_comparisons",
    "names.alpha_edges",
    "relations.in_neighbor_edges",
    *(f"graph.{g}.{m}" for g in ("beta", "gamma") for m in ("edges", "kept", "kept_ratio")),
    *(f"matching.r{i}.{m}" for i in range(1, 5) for m in ("matches", "correct")),
    "matching.r4.removed",
]


def parse_args(argv: list[str] | None) -> argparse.Namespace:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return ap.parse_args(argv)


def launch_spark(trace: bool):
    """Start a fresh JVM with the pinned settings; all scratch stays in WORK."""
    tmp = WORK / "tmp"
    for d in (tmp, WORK / "spark-local", WORK / "eventlog"):
        d.mkdir(parents=True)
    conf = {**ENGINE, **(EVENT_LOG if trace else {})}
    args = [
        "--master", conf["spark.master"],
        "--driver-memory", DRIVER_MEMORY,
        # No hsperfdata files in the system temp directory.
        "--driver-java-options", f"-Djava.io.tmpdir={tmp} -XX:-UsePerfData",
    ]
    for key, value in conf.items():
        args += ["--conf", f"{key}={value}"]
    os.environ["PYSPARK_SUBMIT_ARGS"] = shlex.join([*args, "pyspark-shell"])
    os.environ["PYSPARK_PYTHON"] = sys.executable
    os.environ["SPARK_LOCAL_DIRS"] = str(WORK / "spark-local")
    os.environ["TMPDIR"] = str(tmp)

    from pyspark.sql import SparkSession

    spark = SparkSession.builder.appName("perfbench").getOrCreate()
    spark.sparkContext.setLogLevel("ERROR")
    return spark


def stop_spark(spark) -> None:
    """Stop Spark and wait for its JVM to exit."""
    from pyspark import SparkContext

    gateway = SparkContext._gateway
    spark.stop()
    if gateway is None:
        return
    proc = gateway.proc
    gateway.shutdown()
    proc.stdin.close()  # the JVM exits when its stdin closes
    try:
        proc.wait(timeout=30)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.wait()


def jvm_live_heap_mb(spark) -> float:
    """Driver JVM heap in use after a full garbage collection, in MB.

    Measured while the last resolution's cached frames are still alive, so
    it is the memory the program leaves held, not GC timing.
    """
    jvm = spark.sparkContext._jvm
    jvm.java.lang.System.gc()
    used = jvm.java.lang.management.ManagementFactory.getMemoryMXBean().getHeapMemoryUsage().getUsed()
    return used / 1e6


class Run:
    """One benchmark process: its inputs, checks and failure count."""

    def __init__(self, spark, workload, data):
        from perfbench.workloads import Inputs, PAIR

        from repro.kbgen import to_spark
        from repro.kbgen.generator import GT_SCHEMA

        self.spark, self.workload, self.data = spark, workload, data
        self.inputs = Inputs(
            to_spark(spark, data.triples1),
            to_spark(spark, data.triples2),
            spark.createDataFrame(data.gt[PAIR], schema=GT_SCHEMA),
        )
        self.digest: str | None = None
        self.attempted = 0
        self.failed = 0
        self.cache_s: list[float] = []

    def fresh_inputs(self) -> None:
        """Drop every cached frame, then cache and materialise the inputs."""
        t0 = time.perf_counter()
        self.spark.catalog.clearCache()
        for df in (self.inputs.t1, self.inputs.t2, self.inputs.gt):
            df.cache().count()
        self.cache_s.append(time.perf_counter() - t0)

    def problems(self, outcome) -> list[str]:
        """Independent checks of one resolution's output."""
        from perfbench import checks

        matches = outcome.matches.select("eid1", "eid2", "rule").toPandas()
        found = checks.prf_problems(outcome.prf, matches, self.data.gt)
        digest = checks.digest(matches, outcome.extra)
        if self.digest is None:
            self.digest = digest
        elif digest != self.digest:
            found.append(f"output digest {digest} differs from the first resolution's")
        return found

    def attempt(self, resolve) -> tuple[float, object | None]:
        """Resolve from fresh inputs; returns (seconds, outcome).

        The outcome is None if the resolution raised or failed a check.
        """
        self.fresh_inputs()
        self.attempted += 1
        t0 = time.perf_counter()
        try:
            outcome = resolve()
            elapsed = time.perf_counter() - t0
            found = self.problems(outcome)
        except Exception:
            traceback.print_exc()
            self.failed += 1
            return time.perf_counter() - t0, None
        if found:
            print("check failed:", *found, sep="\n  ", file=sys.stderr)
            self.failed += 1
            return elapsed, None
        return elapsed, outcome


def traced_resolution(run: Run):
    """Resolve once more, one span per module, and check R4 on the result.

    Returns the tracer; the Spark work of its spans is read from the event
    log once Spark has stopped.
    """
    from perfbench import checks
    from perfbench.workloads import OUTSIDE, Tracer, resolve_traced

    run.fresh_inputs()
    sc = run.spark.sparkContext
    sc.setJobGroup(OUTSIDE, OUTSIDE)
    tracer = Tracer(sc)
    run.attempted += 1
    outcome, graph, rules = resolve_traced(run.workload, run.inputs, tracer)
    found = run.problems(outcome)
    for name, frame in rules.items():
        pdf = frame.select("eid1", "eid2").toPandas()
        tracer.counts[f"matching.{name}.correct"] = checks.recount(pdf, run.data.gt)[2]
    bad = checks.non_reciprocal(
        rules["r4"].toPandas(),
        graph.directed_from1().toPandas(),
        graph.directed_from2().toPandas(),
    )
    if bad:
        found.append(f"{bad} matches lack an edge from both sides (R4)")
    if found:
        print("check failed:", *found, sep="\n  ", file=sys.stderr)
        run.failed += 1
    return tracer


def layer_metrics(tracer, work: dict, resolve_s: float) -> dict[str, tuple[float, str]]:
    """Per-layer metrics: span work from the event log plus layer counts.

    A span the workload does not run reports zero work.
    """
    from perfbench.eventlog import SpanWork

    out = {}
    for span in SPANS:
        wall = tracer.wall_s.get(span, 0.0)
        w = work.get(span, SpanWork())
        out[f"{span}.wall_s"] = (wall, "s")
        out[f"{span}.jobs"] = (w.jobs, "count")
        out[f"{span}.tasks"] = (w.tasks, "count")
        out[f"{span}.cpu_s"] = (w.cpu_s, "s")
        out[f"{span}.shuffle_write_mb"] = (w.shuffle_write_bytes / 1e6, "MB")
        out[f"{span}.busy_cores"] = (w.run_s / wall if wall else 0.0, "cores")
    for name in COUNTS:
        out[name] = (tracer.counts[name], "ratio" if name.endswith("_ratio") else "count")
    out["trace_overhead"] = (sum(tracer.wall_s.values()) / resolve_s, "ratio")
    return out


def main(argv: list[str] | None = None) -> int:
    args = parse_args(argv)
    if not (ROOT / "src" / "repro" / "core" / "pipeline.py").is_file():
        print(f"perfbench: no program sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    sys.path[:0] = [str(ROOT / "src"), str(ROOT)]
    from perfbench.inputs import make_pair
    from perfbench.workloads import WORKLOADS, resolve

    if args.workload not in WORKLOADS:
        print(f"perfbench: unknown workload {args.workload!r}; one of {sorted(WORKLOADS)}", file=sys.stderr)
        return 2
    workload = WORKLOADS[args.workload]
    shutil.rmtree(WORK, ignore_errors=True)

    t0 = time.perf_counter()
    spark = launch_spark(bool(args.trace))
    session_s = time.perf_counter() - t0
    try:
        t0 = time.perf_counter()
        data = make_pair(workload.profile, args.seed)
        run = Run(spark, workload, data)
        gen_s = time.perf_counter() - t0
        for _ in range(SETUP_REPEATS):
            run.fresh_inputs()

        times, outcome = [], None
        start = time.perf_counter()
        while not run.attempted or time.perf_counter() - start < args.seconds:
            elapsed, result = run.attempt(lambda: resolve(workload, run.inputs))
            if result is not None:
                times.append(elapsed)
                outcome = result
        if not times:
            raise RuntimeError("no timed resolution succeeded")
        resolve_s = statistics.median(times)
        heap_mb = jvm_live_heap_mb(spark)
        tracer = traced_resolution(run) if args.trace else None
    finally:
        stop_spark(spark)
    setup_s = session_s + gen_s + statistics.median(run.cache_s)

    if args.trace:
        from perfbench.eventlog import span_work

        (log,) = (WORK / "eventlog").iterdir()
        with log.open() as lines:
            metrics = layer_metrics(tracer, span_work(lines), resolve_s)
    else:
        prf = outcome.prf
        metrics = {
            "resolve_s": (resolve_s, "s"),
            "entities_per_s": (data.n_entities / resolve_s, "1/s"),
            "setup_s": (setup_s, "s"),
            "f1": (prf.f1, "%"),
            "precision": (prf.precision, "%"),
            "recall": (prf.recall, "%"),
            "jvm_live_heap_mb": (heap_mb, "MB"),
        }
    shutil.rmtree(WORK, ignore_errors=True)

    print(f"workload {workload.name}: seed {args.seed}, {data.n_entities} entities, "
          f"{data.n_triples} triples, {len(times)} timed resolutions, "
          f"output digest {run.digest[:16]}")
    # Timings and quality are medians over the timed resolutions (their
    # outputs are identical, see the digest); everything else is one sample.
    samples = {"resolve_s", "entities_per_s", "f1", "precision", "recall"}
    for name, (value, unit) in metrics.items():
        n = len(times) if name in samples else 1
        print(f"  {name:40s} {value:14.4f} {unit:6s} n={n}")
    print(f"  {'op_failure_rate':40s} {run.failed / run.attempted:14.4f} {'ratio':6s} "
          f"n={run.attempted} ({run.failed} failed)")
    print(json.dumps({
        "correct": run.failed == 0,
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
