"""``run_minoaner`` on degenerate KB pairs: each returns the right answer
and none raises.

Each case is a hand-made pair whose right answer is computed in pure
Python: R1's pairs (``reference.alpha_pairs``), and nothing else, because
no two entities outside those pairs share a token or have neighbours that
do, so R2 and R3 have no evidence.
"""
from __future__ import annotations

from collections import defaultdict
from dataclasses import dataclass

import pandas as pd
import pytest

from tests import reference
from tests.kbutil import gt_df, kb
from repro.core import DEFAULT_CONFIG, run_minoaner


@dataclass(frozen=True)
class Case:
    name: str
    rows1: list[tuple]
    rows2: list[tuple]
    gt: list[tuple[int, int]]
    n_expected: int  # |R1's pairs|: the case as designed


CASES = [
    Case(
        "no_relations",
        [
            (1, "a:label", "Golden Fork", None),
            (1, "a:city", "Bray", None),
            (2, "a:label", "Blue Door", None),
            (2, "a:city", "Cork", None),
        ],
        [
            (11, "b:name", "golden fork", None),
            (11, "b:town", "Bray", None),
            (12, "b:name", "Blue  Door", None),
            (12, "b:town", "Cork", None),
        ],
        [(1, 11), (2, 12)],
        2,
    ),
    Case(
        "no_shared_tokens",
        [
            (1, "a:label", "Golden Fork", None),
            (2, "a:label", "Blue Door", None),
            (1, "a:near", None, 2),
        ],
        [
            (11, "b:name", "Red Lion", None),
            (12, "b:name", "Green Man", None),
            (11, "b:near", None, 12),
        ],
        [(1, 11), (2, 12)],
        0,
    ),
    Case(
        "relations_only",
        [(1, "a:near", None, 2), (2, "a:near", None, 1)],
        [(11, "b:near", None, 12), (12, "b:near", None, 11)],
        [(1, 11), (2, 12)],
        0,
    ),
    Case(
        "one_entity_per_side",
        [(1, "a:label", "Golden Fork", None)],
        [(11, "b:name", "Golden Fork", None)],
        [(1, 11)],
        1,
    ),
    Case(
        "null_and_blank_values",
        [
            (1, "a:label", "Golden Fork", None),
            (1, "a:note", None, None),
            (2, "a:label", "   ", None),
            (2, "a:note", "", None),
        ],
        [
            (11, "b:name", "golden fork", None),
            (11, "b:note", None, None),
            (12, "b:name", "", None),
        ],
        [(1, 11)],
        1,
    ),
    Case("empty_kb2", [(1, "a:label", "Golden Fork", None)], [], [], 0),
]


def frame(rows: list[tuple]) -> pd.DataFrame:
    return pd.DataFrame(rows, columns=["eid", "attr", "val", "obj"])


def out_neighbours(pdf: pd.DataFrame) -> dict[int, set[int]]:
    out: dict[int, set[int]] = defaultdict(set)
    for e, o in zip(pdf.eid, pdf.obj):
        if pd.notna(o):
            out[int(e)].add(int(o))
    return out


def expected_matches(pdf1: pd.DataFrame, pdf2: pd.DataFrame) -> set[tuple[int, int]]:
    """R1's pairs, after checking that no other pair has value or neighbour
    evidence."""
    alpha = reference.alpha_pairs(pdf1, pdf2, DEFAULT_CONFIG.k)
    tok1, tok2 = reference.tokens_of(pdf1), reference.tokens_of(pdf2)
    out1, out2 = out_neighbours(pdf1), out_neighbours(pdf2)

    def shares_tokens(a: int, b: int) -> bool:
        return bool(tok1.get(a, set()) & tok2.get(b, set()))

    left1 = set(pdf1.eid) - {a for a, _ in alpha}
    left2 = set(pdf2.eid) - {b for _, b in alpha}
    for a in left1:
        for b in left2:
            assert not shares_tokens(a, b)
            assert not any(
                shares_tokens(x, y) for x in out1.get(a, ()) for y in out2.get(b, ())
            )
    return alpha


@pytest.mark.parametrize("case", CASES, ids=[c.name for c in CASES])
def test_run_minoaner(spark, case):
    expected = expected_matches(frame(case.rows1), frame(case.rows2))
    assert len(expected) == case.n_expected
    res = run_minoaner(kb(spark, case.rows1), kb(spark, case.rows2), gt_df(spark, case.gt))
    try:
        got = {(r.eid1, r.eid2): r.rule for r in res.matches.collect()}
    finally:
        res.release()
    assert set(got) == expected
    assert set(got.values()) <= {"R1"}
    prf = res.prf
    assert (prf.precision, prf.recall, prf.f1) == pytest.approx(
        reference.prf(expected, set(case.gt))
    )
