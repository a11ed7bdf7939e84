"""SiGMa-lite: a re-implementation of SiGMa's core loop [21].

SiGMa is an *iterative greedy* collective matcher: it seeds with pairs
having identical names, scores candidates by a weighted combination of
value similarity and the fraction of already-matched neighbors, and
greedily pops a priority queue (Unique Mapping semantics), re-scoring
neighbors of every accepted match. This is the data-driven convergence
MinoanER's non-iterative design argues against.

Faithful-in-spirit simplifications (DESIGN.md section 4): relations are
treated as an unlabeled neighborhood (the original assumes pre-aligned
relations, which our high-Variety profiles deliberately lack), and the
value similarity is the SiGMa weighted-overlap measure over unigram
TF-IDF, read from BSL's scores (``bsl.score_pairs``, n=1, ``tfidf_sigma``).
Runs on the driver over those collected scores and the two KBs' name
seeds, the only Spark work here — the original tool is sequential as well.
"""
from __future__ import annotations

import heapq
from collections import defaultdict

import pandas as pd
from pyspark.sql import DataFrame

from ..core.evaluation import ScoredMatches, evaluate_pandas
from ..core.names import entity_names

NEIGHBOR_WEIGHT = 0.4
"""Weight of the matched-neighbour fraction in a pair's score (value: 1 - this)."""
THRESHOLD = 0.3
"""The greedy loop accepts no pair scoring below this."""
MAX_CANDS_PER_ENTITY = 20
"""Value-scored candidates kept per KB1 entity, best first (ties: lowest eid2)."""


def _neighbors(pdf: pd.DataFrame) -> dict[int, set[int]]:
    rels = pdf[pdf.obj.notna()]
    out: dict[int, set[int]] = defaultdict(set)
    for e, o in zip(rels.eid.astype(int), rels.obj.astype(int)):
        out[e].add(o)
        out[o].add(e)  # SiGMa propagates along both edge directions
    return out


def run_sigma(
    triples1: DataFrame,
    triples2: DataFrame,
    scores: pd.DataFrame,
    name_attrs: list[list[str]],
    pdf1: pd.DataFrame,
    pdf2: pd.DataFrame,
    gt_pdf: pd.DataFrame,
) -> ScoredMatches:
    """Run the greedy propagation loop and score against the ground truth.

    ``scores`` are BSL's unigram scores of the unpruned disjunctive
    blocking graph (``bsl.score_pairs(...)[1]``); only these pairs get a
    value score, their ``tfidf_sigma``. ``name_attrs`` are both KBs' name
    attributes, best first (``Blocking.name_attrs``); the name seeds come
    from each KB's first one.
    """
    # --- candidate cut, then the name seeds (Spark) ------------------------
    sims = (
        scores[["eid1", "eid2", "tfidf_sigma"]]
        .sort_values(["tfidf_sigma", "eid2"], ascending=[False, True], kind="mergesort")
        .groupby("eid1")
        .head(MAX_CANDS_PER_ENTITY)
    )
    n1, n2 = (
        entity_names(t, attrs[:1]).toPandas()
        for t, attrs in zip((triples1, triples2), name_attrs)
    )
    c1 = n1.name.value_counts()
    c2 = n2.name.value_counts()
    uniq = set(c1[c1 == 1].index) & set(c2[c2 == 1].index)
    seeds = n1[n1.name.isin(uniq)].merge(
        n2[n2.name.isin(uniq)], on="name", suffixes=("1", "2")
    )[["eid1", "eid2"]]

    # --- driver side: greedy queue with neighbor re-scoring ----------------
    valsim = {
        (int(a), int(b)): float(s)
        for a, b, s in zip(sims.eid1, sims.eid2, sims.tfidf_sigma)
    }
    nbr1 = _neighbors(pdf1)
    nbr2 = _neighbors(pdf2)
    m1: dict[int, int] = {}
    m2: dict[int, int] = {}

    def nbr_score(a: int, b: int) -> float:
        na, nb = nbr1.get(a, set()), nbr2.get(b, set())
        if not na or not nb:
            return 0.0
        hits = sum(1 for x in na if m1.get(x) in nb)
        return hits / max(len(na), len(nb))

    def score(a: int, b: int) -> float:
        return (1 - NEIGHBOR_WEIGHT) * valsim.get((a, b), 0.0) + (
            NEIGHBOR_WEIGHT
        ) * nbr_score(a, b)

    for a, b in zip(seeds.eid1.astype(int), seeds.eid2.astype(int)):
        if a not in m1 and b not in m2:
            m1[a] = b
            m2[b] = a

    heap: list[tuple[float, int, int]] = []
    for (a, b), v in valsim.items():
        if a not in m1 and b not in m2:
            heapq.heappush(heap, (-score(a, b), a, b))
    # Lazy-deletion greedy loop: re-score on pop (neighbor evidence may
    # have improved since push); accept when the popped score is current.
    while heap:
        neg, a, b = heapq.heappop(heap)
        if a in m1 or b in m2:
            continue
        s = score(a, b)
        if s < THRESHOLD:
            continue
        if s < -neg - 1e-12:
            heapq.heappush(heap, (-s, a, b))  # stale (score dropped): retry
            continue
        m1[a] = b
        m2[b] = a
        # matched pair boosts its neighbors' candidate scores
        for x in nbr1.get(a, ()):  # re-push affected candidates
            for y in nbr2.get(b, ()):
                if x not in m1 and y not in m2 and (x, y) in valsim:
                    heapq.heappush(heap, (-score(x, y), x, y))

    matches = pd.DataFrame(
        {"eid1": list(m1.keys()), "eid2": [m1[k] for k in m1]}
    )
    return ScoredMatches(matches, evaluate_pandas(matches, gt_pdf))
