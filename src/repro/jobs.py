"""Command-line entry point: compute and print the paper's Tables 1-4, then
check the paper's claims about them.

Usage::

    python -m repro.jobs {table1,table2,table3,table4,all}

The tables asked for are computed in one pass over the profiles
(``tables.pairs.run_tables``) and printed. Then every claim of
``tables.claims`` about those tables gets one PASS or FAIL row; the exit
status is 1 if any claim fails. The SparkSession is built here, once: 16
shuffle partitions, broadcast joins off (the shuffle paths the paper's
Spark jobs take), log level ERROR. Master and driver memory come from
``spark-submit`` / ``PYSPARK_SUBMIT_ARGS`` as usual.
"""
from __future__ import annotations

import argparse
import sys

from pyspark.sql import SparkSession

from .tables import claims, format_rows, table1, table2, table3, table4
from .tables.pairs import SEED, run_tables

TABLES = {"table1": table1, "table2": table2, "table3": table3, "table4": table4}
CLAIMS_TITLE = "Claims of the paper's Section 6"


def main(argv: list[str] | None = None) -> int:
    """Print the tables asked for and their claims; 1 if a claim fails, else 0."""
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
    chosen = list(TABLES) if args.table == "all" else [args.table]
    try:
        all_rows = run_tables(spark, [TABLES[t].rows for t in chosen], None, SEED, None)
    finally:
        spark.stop()
    for t, rows in zip(chosen, all_rows):
        print(format_rows(TABLES[t].TITLE, rows))
    results = [res for t, rows in zip(chosen, all_rows) for res in claims.check(t, rows)]
    print(format_rows(CLAIMS_TITLE, [
        {"holds": "PASS" if ok else "FAIL", "table": c.table, "claim": c.text}
        for c, ok in results
    ]))
    return 0 if all(ok for _, ok in results) else 1


if __name__ == "__main__":
    sys.exit(main())
