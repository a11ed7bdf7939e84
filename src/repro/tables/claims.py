"""The shape of Tables 1-4 that the paper's Section 6 reports, as claims
over the rows ``python -m repro.jobs`` computes.

Our KB pairs are synthetic stand-ins, orders of magnitude smaller than the
paper's (DESIGN.md section 4), so what is claimed is the shape of each table,
not its numbers:

* Table 1: every profile has one row and ground-truth matches;
* Table 2: blocking keeps nearly every true pair while comparing far fewer
  pairs than brute force;
* Table 3: MinoanER and the fine-tuned BSL both do well on Restaurant, and
  MinoanER beats BSL on the heterogeneous pairs; PARIS collapses on
  BBCmusic-DBpedia;
* Table 4: R1 is precise everywhere, and neighbour evidence (R3) matters
  more where value similarity is low (YAGO-IMDb) than where it is high
  (Restaurant).

Each claim is a pure predicate over the rows of the one table it is about;
the paper's own numbers satisfy every one (``tests/test_claims.py``).
"""
from __future__ import annotations

from collections.abc import Callable
from dataclasses import dataclass

from .paper_numbers import DATASETS

Rows = list[dict]


@dataclass(frozen=True)
class Claim:
    """One claim about one table: ``holds(rows)`` over that table's rows."""

    table: str  # the table whose rows it reads: table1 .. table4
    text: str
    holds: Callable[[Rows], bool]


def _row(rows: Rows, dataset: str, label: str | None = None) -> dict:
    """The row of ``dataset`` whose method (Table 3) or variant (Table 4) is
    ``label``; Tables 1 and 2 have one row per dataset and no label."""
    for r in rows:
        if r["dataset"] == dataset and r.get("method", r.get("variant")) == label:
            return r
    raise KeyError((dataset, label))


def _below_cartesian(row: dict) -> bool:
    """Whether a Table 2 row's blocks compare fewer pairs than brute force."""
    return row["token_comparisons"] + row["name_comparisons"] < row["cartesian"]


def _neighbour_drop(rows: Rows, dataset: str) -> float:
    """The F1 that ``dataset`` loses when R3 is dropped (Table 4)."""
    return _row(rows, dataset, "full")["f1"] - _row(rows, dataset, "no_neighbors")["f1"]


CLAIMS = [
    Claim("table1", "one row per profile (4)", lambda rows: len(rows) == 4),
    *(
        Claim("table1", f"{ds}: ground-truth matches > 0",
              lambda rows, ds=ds: _row(rows, ds)["matches"] > 0)
        for ds in DATASETS
    ),
    Claim("table2", "one row per profile (4)", lambda rows: len(rows) == 4),
    *(
        Claim("table2", f"{ds}: blocking recall >= 99",
              lambda rows, ds=ds: _row(rows, ds)["recall"] >= 99.0)
        for ds in DATASETS
    ),
    *(
        Claim("table2", f"{ds}: name + token comparisons < cartesian",
              lambda rows, ds=ds: _below_cartesian(_row(rows, ds)))
        for ds in DATASETS
    ),
    *(
        Claim("table3", f"{ds}: MinoanER recall > 0",
              lambda rows, ds=ds: _row(rows, ds, "MinoanER")["recall"] > 0)
        for ds in DATASETS
    ),
    Claim("table3", "restaurant: BSL F1 >= 90",
          lambda rows: _row(rows, "restaurant", "BSL")["f1"] >= 90),
    Claim("table3", "restaurant: MinoanER F1 >= 90",
          lambda rows: _row(rows, "restaurant", "MinoanER")["f1"] >= 90),
    *(
        Claim("table3", f"{ds}: MinoanER F1 > BSL F1",
              lambda rows, ds=ds: _row(rows, ds, "MinoanER")["f1"] > _row(rows, ds, "BSL")["f1"])
        for ds in ("bbc_dbpedia", "yago_imdb")
    ),
    Claim("table3", "bbc_dbpedia: PARIS-lite F1 < 20",
          lambda rows: _row(rows, "bbc_dbpedia", "PARIS-lite")["f1"] < 20),
    Claim("table3", "bbc_dbpedia: MinoanER F1 >= 70",
          lambda rows: _row(rows, "bbc_dbpedia", "MinoanER")["f1"] >= 70),
    *(
        Claim("table4", f"{ds}: R1 precision >= 90",
              lambda rows, ds=ds: _row(rows, ds, "R1")["precision"] >= 90)
        for ds in DATASETS
    ),
    Claim("table4", "dropping R3 (no_neighbors) costs yago_imdb at least the F1 it costs restaurant",
          lambda rows: _neighbour_drop(rows, "yago_imdb")
          >= _neighbour_drop(rows, "restaurant") - 1e-9),
]


def check(table: str, rows: Rows) -> list[tuple[Claim, bool]]:
    """Every claim about ``table``, in order, and whether it holds on ``rows``."""
    return [(claim, claim.holds(rows)) for claim in CLAIMS if claim.table == table]
