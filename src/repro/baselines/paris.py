"""PARIS-lite: a re-implementation of PARIS's probabilistic core [33].

PARIS matches instances by iterating two kinds of evidence:

* **literal evidence** — two entities sharing an (exact, raw) literal
  value are equal with probability governed by the value's inverse
  functionality (a value carried by a single entity on each side is
  near-conclusive; a common value is weak);
* **relational evidence** — if r1(x, a) and r2(y, b) with a ~ b already
  probable, and r1/r2 appear aligned (their subjects co-match), then
  x ~ y gains probability. Alignment weights are re-estimated from the
  current match probabilities each iteration.

PARIS compares *raw* values — it has no schema-agnostic normalization —
so the high-Variety profile (KB2 renders names in a different format)
starves it of literal seeds and it collapses, exactly as the paper
reports for BBCmusic-DBpedia. Driver-side by design: the original tool
is a sequential Java program; our profiles are bounded (DESIGN.md §4/5).
"""
from __future__ import annotations

from collections import Counter, defaultdict

import pandas as pd

from ..core.evaluation import ScoredMatches, evaluate_pandas
from .umc import unique_mapping_clustering

ITERATIONS = 3
"""Rounds of relation alignment and probability propagation."""
ACCEPT_THRESHOLD = 0.5
"""A pair counts as a probable match, and may be matched, from this probability."""


def _literal_index(pdf: pd.DataFrame) -> dict[str, list[int]]:
    lits = pdf[pdf.val.notna()]
    idx: dict[str, list[int]] = defaultdict(list)
    for e, v in zip(lits.eid.astype(int), lits.val):
        idx[v].append(e)
    return idx


def _rel_edges(pdf: pd.DataFrame) -> list[tuple[int, str, int]]:
    rels = pdf[pdf.obj.notna()]
    return [
        (int(e), a, int(o))
        for e, a, o in zip(rels.eid.astype(int), rels.attr, rels.obj.astype(int))
    ]


def run_paris(
    pdf1: pd.DataFrame,
    pdf2: pd.DataFrame,
    gt_pdf: pd.DataFrame,
) -> ScoredMatches:
    """Run the fixed-point probability iteration and score the matches."""
    lit1, lit2 = _literal_index(pdf1), _literal_index(pdf2)
    edges1, edges2 = _rel_edges(pdf1), _rel_edges(pdf2)
    in1: dict[int, list[tuple[str, int]]] = defaultdict(list)
    in2: dict[int, list[tuple[str, int]]] = defaultdict(list)
    for s, r, o in edges1:
        in1[o].append((r, s))
    for s, r, o in edges2:
        in2[o].append((r, s))
    # Inverse functionality per relation: |distinct objects| / |edges|.
    # A hub-like relation (many subjects per object) carries near-zero
    # evidence per PARIS's probabilistic model; a discriminative relation
    # carries close to 1.
    def _ifun(edges: list[tuple[int, str, int]]) -> dict[str, float]:
        objs: dict[str, set[int]] = defaultdict(set)
        cnt: Counter = Counter()
        for s, r, o in edges:
            objs[r].add(o)
            cnt[r] += 1
        return {r: len(objs[r]) / cnt[r] for r in cnt}

    ifun1, ifun2 = _ifun(edges1), _ifun(edges2)

    # --- literal evidence: exact shared raw values ------------------------
    lit_prob: dict[tuple[int, int], float] = defaultdict(float)
    for v, es1 in lit1.items():
        es2 = lit2.get(v)
        if not es2:
            continue
        inv = 1.0 / (len(es1) * len(es2))
        for a in es1:
            for b in es2:
                cur = lit_prob[(a, b)]
                lit_prob[(a, b)] = 1.0 - (1.0 - cur) * (1.0 - inv)

    prob: dict[tuple[int, int], float] = dict(lit_prob)

    for _ in range(ITERATIONS):
        # --- relation alignment from current probable matches -------------
        # align(r2 | r1) is a conditional distribution: of the in-edge
        # pairs observed on probable matches with relation r1 on the KB1
        # side, the fraction whose KB2 side uses r2.
        align_hits: Counter = Counter()
        r1_totals: Counter = Counter()
        for (a, b), p in prob.items():
            if p < ACCEPT_THRESHOLD:
                continue
            for r1, s1 in in1.get(a, ()):
                for r2, s2 in in2.get(b, ()):
                    align_hits[(r1, r2)] += 1
                    r1_totals[r1] += 1
        align = {
            rr: hits / r1_totals[rr[0]] for rr, hits in align_hits.items()
        }
        # --- propagate: subjects of aligned edges to probable objects -----
        # Evidence per neighbor pair is damped by both relations' inverse
        # functionality (PARIS's model): a shared hub object proves
        # nothing, a shared discriminative object proves a lot.
        new_prob: dict[tuple[int, int], float] = dict(lit_prob)
        for (a, b), p in prob.items():
            if p < 0.1:
                continue
            for r1, s1 in in1.get(a, ()):
                f1 = ifun1.get(r1, 0.0)
                if f1 <= 0.0:
                    continue
                for r2, s2 in in2.get(b, ()):
                    al = align.get((r1, r2), 0.0)
                    if al <= 0.0:
                        continue
                    ev = al * p * f1 * ifun2.get(r2, 0.0)
                    if ev <= 0.0:
                        continue
                    cur = new_prob.get((s1, s2), 0.0)
                    new_prob[(s1, s2)] = 1.0 - (1.0 - cur) * (1.0 - ev)
        prob = new_prob

    cand = pd.DataFrame(
        [(a, b, p) for (a, b), p in prob.items() if p >= ACCEPT_THRESHOLD],
        columns=["eid1", "eid2", "sim"],
    )
    matches = unique_mapping_clustering(cand)[["eid1", "eid2"]]
    return ScoredMatches(matches, evaluate_pandas(matches, gt_pdf))
