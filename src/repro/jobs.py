"""Command-line entry point: compute and print the paper's Tables 1-4.

Usage::

    python -m repro.jobs {table1,table2,table3,table4,all}

The SparkSession is built here, once: 16 shuffle partitions, broadcast
joins off (the shuffle paths the paper's Spark jobs take), log level
ERROR. Master and driver memory come from ``spark-submit`` /
``PYSPARK_SUBMIT_ARGS`` as usual.
"""
from __future__ import annotations

import argparse

from pyspark.sql import SparkSession

from .tables import table1, table2, table3, table4

TABLES = {
    "table1": table1.main,
    "table2": table2.main,
    "table3": table3.main,
    "table4": table4.main,
}


def main(argv: list[str] | None = None) -> None:
    ap = argparse.ArgumentParser(
        prog="python -m repro.jobs", description="Print the paper's Tables 1-4."
    )
    ap.add_argument("table", choices=[*TABLES, "all"])
    args = ap.parse_args(argv)
    spark = (
        SparkSession.builder.appName(f"minoaner-{args.table}")
        .config("spark.sql.shuffle.partitions", "16")
        .config("spark.sql.autoBroadcastJoinThreshold", -1)
        .getOrCreate()
    )
    spark.sparkContext.setLogLevel("ERROR")
    try:
        for name in TABLES if args.table == "all" else [args.table]:
            print(TABLES[name](spark))
    finally:
        spark.stop()


if __name__ == "__main__":
    main()
