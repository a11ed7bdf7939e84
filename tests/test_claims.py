"""Tests for the paper's claims about Tables 1-4 (``tables.claims``).

Every claim must hold on the paper's own numbers, and each must fail on a
row set that breaks it and no other claim.
"""
from __future__ import annotations

import pytest

from repro.tables import claims, paper_numbers
from repro.tables.paper_numbers import DATASETS

TABLE3_METHODS = {"MinoanER": "minoaner", "BSL": "bsl", "SiGMa-lite": "sigma", "PARIS-lite": "paris"}


def _prf(triple: tuple[float, float, float]) -> dict[str, float]:
    return dict(zip(("precision", "recall", "f1"), triple))


def paper_rows() -> dict[str, list[dict]]:
    """Tables 1-4 as ``jobs`` would print them, from ``paper_numbers``; Table
    4's ``full`` is Table 3's MinoanER row, as in ours. Cells the paper leaves
    empty get no row."""
    t3, t4 = paper_numbers.TABLE3, paper_numbers.TABLE4
    return {
        "table1": [{"dataset": ds, **paper_numbers.TABLE1[ds]} for ds in DATASETS],
        "table2": [{"dataset": ds, **paper_numbers.TABLE2[ds]} for ds in DATASETS],
        "table3": [
            {"dataset": ds, "method": method, **_prf(t3[key][ds])}
            for ds in DATASETS
            for method, key in TABLE3_METHODS.items()
            if t3[key][ds] is not None
        ],
        "table4": [
            {"dataset": ds, "variant": variant, **_prf(prf[ds])}
            for ds in DATASETS
            for variant, prf in {**t4, "full": t3["minoaner"]}.items()
        ],
    }


def _set(table: str, dataset: str, label: str | None, **cells):
    """A breaker: set ``cells`` in one row of ``table``."""
    def apply(rows: dict[str, list[dict]]) -> None:
        claims._row(rows[table], dataset, label).update(cells)
    return apply


def _repeat_row(table: str):
    """A breaker: one row too many in ``table``."""
    def apply(rows: dict[str, list[dict]]) -> None:
        rows[table].append(dict(rows[table][0]))
    return apply


# One row set per claim, in CLAIMS order, that breaks that claim alone.
BREAKERS = [
    _repeat_row("table1"),
    *(_set("table1", ds, None, matches=0) for ds in DATASETS),
    _repeat_row("table2"),
    *(_set("table2", ds, None, recall=98.99) for ds in DATASETS),
    *(
        _set("table2", ds, None, cartesian=paper_numbers.TABLE2[ds]["name_comparisons"]
             + paper_numbers.TABLE2[ds]["token_comparisons"])
        for ds in DATASETS
    ),
    *(_set("table3", ds, "MinoanER", recall=0.0) for ds in DATASETS),
    _set("table3", "restaurant", "BSL", f1=89.99),
    _set("table3", "restaurant", "MinoanER", f1=89.99),
    _set("table3", "bbc_dbpedia", "BSL", f1=paper_numbers.TABLE3["minoaner"]["bbc_dbpedia"][2]),
    _set("table3", "yago_imdb", "BSL", f1=paper_numbers.TABLE3["minoaner"]["yago_imdb"][2]),
    _set("table3", "bbc_dbpedia", "PARIS-lite", f1=20.0),
    _set("table3", "bbc_dbpedia", "MinoanER", f1=69.99),
    *(_set("table4", ds, "R1", precision=89.99) for ds in DATASETS),
    # yago loses 3.06 F1 without R3; make restaurant lose more
    _set("table4", "restaurant", "no_neighbors", f1=100 - 3.07),
]


def _failing(rows: dict[str, list[dict]]) -> list[claims.Claim]:
    return [c for table, r in rows.items() for c, ok in claims.check(table, r) if not ok]


def test_every_claim_is_about_a_table():
    assert {c.table for c in claims.CLAIMS} == {"table1", "table2", "table3", "table4"}
    assert len({(c.table, c.text) for c in claims.CLAIMS}) == len(claims.CLAIMS)


def test_every_claim_holds_on_the_paper_numbers():
    assert _failing(paper_rows()) == []


def test_one_breaker_per_claim():
    assert len(BREAKERS) == len(claims.CLAIMS)


@pytest.mark.parametrize(
    "claim, breaker",
    zip(claims.CLAIMS, BREAKERS),
    ids=[f"{c.table}: {c.text}" for c in claims.CLAIMS],
)
def test_claim_fails_on_rows_that_break_only_it(claim, breaker):
    rows = paper_rows()
    breaker(rows)
    assert _failing(rows) == [claim]


def test_check_reads_only_its_table():
    rows = paper_rows()
    for table in rows:
        assert [c for c, _ in claims.check(table, rows[table])] == [
            c for c in claims.CLAIMS if c.table == table
        ]

