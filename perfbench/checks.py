"""Correctness checks that do not trust the code they check.

P/R/F1 is recounted in DuckDB from the collected matches and the ground
truth, so a rewrite of ``repro.core.evaluation`` cannot grade itself. R4
is checked against the graph's directed edges, and a digest of the sorted
output pins every iteration of a run to the same answer.
"""
from __future__ import annotations

import hashlib
import math

import duckdb
import pandas as pd

from repro.core import PRF


def _duckdb() -> duckdb.DuckDBPyConnection:
    con = duckdb.connect()
    con.execute("SET threads TO 1")
    return con


def recount(matches: pd.DataFrame, gt: pd.DataFrame) -> tuple[int, int, int]:
    """``(distinct matches, distinct gt pairs, correct matches)`` in DuckDB."""
    con = _duckdb()
    try:
        con.register("m", matches[["eid1", "eid2"]])
        con.register("g", gt[["eid1", "eid2"]])
        return con.execute(
            """
            WITH dm AS (SELECT DISTINCT eid1, eid2 FROM m),
                 dg AS (SELECT DISTINCT eid1, eid2 FROM g)
            SELECT (SELECT count(*) FROM dm),
                   (SELECT count(*) FROM dg),
                   (SELECT count(*) FROM dm JOIN dg USING (eid1, eid2))
            """
        ).fetchone()
    finally:
        con.close()


def prf_problems(prf: PRF, matches: pd.DataFrame, gt: pd.DataFrame) -> list[str]:
    """Ways in which ``prf`` disagrees with an independent recount."""
    n_m, n_gt, n_ok = recount(matches, gt)
    problems = []
    if (prf.n_matches, prf.n_gt, prf.n_correct) != (n_m, n_gt, n_ok):
        problems.append(
            f"counts {prf.n_matches, prf.n_gt, prf.n_correct} != recount {n_m, n_gt, n_ok}"
        )
    p = 100.0 * n_ok / n_m if n_m else 0.0
    r = 100.0 * n_ok / n_gt if n_gt else 0.0
    f1 = 2 * p * r / (p + r) if p + r else 0.0
    for name, mine, theirs in (
        ("precision", p, prf.precision),
        ("recall", r, prf.recall),
        ("f1", f1, prf.f1),
    ):
        if not math.isclose(mine, theirs, rel_tol=1e-9, abs_tol=1e-9):
            problems.append(f"{name} {theirs} != recount {mine}")
    return problems


def non_reciprocal(
    matches: pd.DataFrame, from1: pd.DataFrame, from2: pd.DataFrame
) -> int:
    """Matches lacking a directed edge from either side (R4 violations)."""
    con = _duckdb()
    try:
        con.register("m", matches[["eid1", "eid2"]])
        con.register("f1", from1[["eid1", "eid2"]])
        con.register("f2", from2[["eid1", "eid2"]])
        return con.execute(
            """
            SELECT count(*) FROM m
            WHERE NOT EXISTS (SELECT 1 FROM f1 WHERE f1.eid1 = m.eid1 AND f1.eid2 = m.eid2)
               OR NOT EXISTS (SELECT 1 FROM f2 WHERE f2.eid1 = m.eid1 AND f2.eid2 = m.eid2)
            """
        ).fetchone()[0]
    finally:
        con.close()


def digest(matches: pd.DataFrame, extra: str = "") -> str:
    """SHA-256 over the sorted ``(eid1, eid2, rule)`` rows, then ``extra``."""
    rows = matches[["eid1", "eid2", "rule"]].sort_values(["eid1", "eid2", "rule"])
    h = hashlib.sha256(rows.to_csv(index=False, header=False).encode())
    h.update(extra.encode())
    return h.hexdigest()
