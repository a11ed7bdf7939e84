"""Command-line entry point: compute and print the paper's Tables 1-4.

Usage::

    python -m repro.jobs {table1,table2,table3,table4,all}

The tables asked for are computed in one pass over the profiles
(``tables.pairs.run_tables``). The SparkSession is built here, once: 16
shuffle partitions, broadcast joins off (the shuffle paths the paper's
Spark jobs take), log level ERROR. Master and driver memory come from
``spark-submit`` / ``PYSPARK_SUBMIT_ARGS`` as usual.
"""
from __future__ import annotations

import argparse

from pyspark.sql import SparkSession

from .tables import format_rows, table1, table2, table3, table4
from .tables.pairs import SEED, run_tables

TABLES = {"table1": table1, "table2": table2, "table3": table3, "table4": table4}


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
    chosen = [TABLES[t] for t in (TABLES if args.table == "all" else [args.table])]
    try:
        all_rows = run_tables(spark, [t.rows for t in chosen], None, SEED, None)
        for table, rows in zip(chosen, all_rows):
            print(format_rows(table.TITLE, rows))
    finally:
        spark.stop()


if __name__ == "__main__":
    main()
