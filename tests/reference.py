"""Naive pure-Python reference implementations of the paper's definitions.

Deliberately simple (dicts and loops, no Spark) so Spark results can be
cross-checked on small inputs. Mirrors Definitions 2.1-2.5 and the
importance statistics verbatim, and Algorithm 2's rules R1-R4, their order
and Table 4's variants over the pruned graph's collected frames.
"""
from __future__ import annotations

import math
import re
from collections import Counter, defaultdict

import pandas as pd

TOKEN_RE = re.compile(r"[^a-z0-9]+")


def token_counts(pdf: pd.DataFrame) -> dict[int, Counter]:
    """eid -> occurrences of each lowercase word token over literal values."""
    out: dict[int, Counter] = defaultdict(Counter)
    lits = pdf[pdf.val.notna()]
    for e, v in zip(lits.eid.astype(int), lits.val):
        out[e].update(t for t in TOKEN_RE.split(str(v).lower()) if t)
    return {e: c for e, c in out.items() if c}


def tokens_of(pdf: pd.DataFrame) -> dict[int, set[str]]:
    """eid -> set of lowercase word tokens over literal values."""
    return {e: set(c) for e, c in token_counts(pdf).items()}


def names_of(pdf: pd.DataFrame, attrs: list[str]) -> dict[int, set[str]]:
    """eid -> set of lowercase, whitespace-collapsed values of ``attrs``."""
    out: dict[int, set[str]] = defaultdict(set)
    lits = pdf[pdf.val.notna() & pdf.attr.isin(attrs)]
    for e, v in zip(lits.eid.astype(int), lits.val):
        name = " ".join(str(v).lower().split())
        if name:
            out[e].add(name)
    return dict(out)


def entity_frequency(toks: dict[int, set[str]]) -> Counter:
    ef: Counter = Counter()
    for ts in toks.values():
        ef.update(ts)
    return ef


def value_sim(
    t1: set[str], t2: set[str], ef1: Counter, ef2: Counter, purged: set[str] | None = None
) -> float:
    """Definition 2.1 with optional purged-token exclusion."""
    s = 0.0
    for t in t1 & t2:
        if purged and t in purged:
            continue
        s += 1.0 / math.log2(ef1[t] * ef2[t] + 1)
    return s


def attribute_importance(pdf: pd.DataFrame) -> pd.DataFrame:
    """(attr, support, discriminability, importance) over literal attrs."""
    n = pdf.eid.nunique()
    lits = pdf[pdf.val.notna()]
    rows = []
    for attr, grp in lits.groupby("attr"):
        support = grp.eid.nunique() / n
        disc = grp.val.nunique() / len(grp)
        imp = (
            2 * support * disc / (support + disc) if support + disc else 0.0
        )
        rows.append((attr, support, disc, imp))
    return pd.DataFrame(
        rows, columns=["attr", "support", "discriminability", "importance"]
    )


def name_attrs(pdf: pd.DataFrame, k: int) -> list[str]:
    """The k most important literal attributes, ties on attribute name."""
    imp = attribute_importance(pdf).sort_values(
        ["importance", "attr"], ascending=[False, True]
    )
    return list(imp.attr[:k])


def alpha_pairs(pdf1: pd.DataFrame, pdf2: pd.DataFrame, k: int) -> set[tuple[int, int]]:
    """Pairs alone in a name block: each the only entity of its KB with a
    name (a value of its top-k attributes) that the other carries."""
    blocks: dict[str, tuple[set[int], set[int]]] = defaultdict(lambda: (set(), set()))
    for side, pdf in enumerate((pdf1, pdf2)):
        for e, names in names_of(pdf, name_attrs(pdf, k)).items():
            for name in names:
                blocks[name][side].add(e)
    return {
        (min(a), min(b)) for a, b in blocks.values() if len(a) == 1 and len(b) == 1
    }


def unique_mapping(
    rows: list[tuple[int, int, float]], threshold: float
) -> set[tuple[int, int]]:
    """Unique Mapping Clustering as the paper states it: pop pairs in
    decreasing similarity (ties on ids ascending), stop at the first below
    ``threshold``, accept a pair iff neither entity is matched yet."""
    taken1: set[int] = set()
    taken2: set[int] = set()
    out: set[tuple[int, int]] = set()
    for a, b, s in sorted(rows, key=lambda r: (-r[2], r[0], r[1])):
        if s < threshold:
            break
        if a not in taken1 and b not in taken2:
            out.add((a, b))
            taken1.add(a)
            taken2.add(b)
    return out


def prf(matches: set[tuple[int, int]], gt: set[tuple[int, int]]) -> tuple[float, float, float]:
    """Pair-level precision, recall and F1 in percent (0 for an empty side)."""
    hit = len(matches & gt)
    p = 100.0 * hit / len(matches) if matches else 0.0
    r = 100.0 * hit / len(gt) if gt else 0.0
    return p, r, (2 * p * r / (p + r) if p + r else 0.0)


def relation_importance(pdf: pd.DataFrame) -> pd.DataFrame:
    """(rel, support, discriminability, importance) per Defs. 2.2-2.3."""
    n = pdf.eid.nunique()
    rels = pdf[pdf.obj.notna()][["eid", "attr", "obj"]].drop_duplicates()
    rows = []
    for rel, grp in rels.groupby("attr"):
        support = len(grp) / (n * n)
        disc = grp.obj.nunique() / len(grp)
        imp = (
            2 * support * disc / (support + disc) if support + disc else 0.0
        )
        rows.append((rel, support, disc, imp))
    return pd.DataFrame(
        rows, columns=["rel", "support", "discriminability", "importance"]
    )


def top_n_neighbors(pdf: pd.DataFrame, n: int) -> dict[int, set[int]]:
    """Objects of each entity's N globally-most-important relations."""
    imp = relation_importance(pdf).set_index("rel").importance.to_dict()
    rels = pdf[pdf.obj.notna()][["eid", "attr", "obj"]].drop_duplicates()
    out: dict[int, set[int]] = defaultdict(set)
    for e, grp in rels.groupby("eid"):
        order = sorted(grp.attr.unique(), key=lambda r: (-imp[r], r))
        keep = set(order[:n])
        for _, row in grp.iterrows():
            if row.attr in keep:
                out[int(e)].add(int(row.obj))
    return dict(out)


def top_in_neighbors(topn: dict[int, set[int]]) -> dict[int, set[int]]:
    out: dict[int, set[int]] = defaultdict(set)
    for e, ns in topn.items():
        for v in ns:
            out[v].add(e)
    return dict(out)


def gamma_scores(
    beta_edges: list[tuple[int, int, float]],
    topin1: dict[int, set[int]],
    topin2: dict[int, set[int]],
) -> dict[tuple[int, int], float]:
    """Push each beta edge to the cross product of endpoint in-neighbors."""
    g: dict[tuple[int, int], float] = defaultdict(float)
    for e1, e2, b in beta_edges:
        for a in topin1.get(e1, ()):
            for c in topin2.get(e2, ()):
                g[(a, c)] += b
    return dict(g)


# --- Algorithm 2 over the collected graph frames ----------------------------
# An edge list is the rows of one of ``BlockingGraph``'s five frames,
# ``(eid1, eid2[, weight, rank])``; ranks are recomputed from the weights.

Pair = tuple[int, int]


def _best(scored: dict[Pair, float], node: int) -> dict[int, Pair]:
    """Entity on side ``node`` (0: eid1, 1: eid2) -> its pair with the highest
    score, ties on the other entity's id ascending."""
    best: dict[int, tuple[tuple[float, int], Pair]] = {}
    for pair, s in scored.items():
        key = (-s, pair[1 - node])
        if pair[node] not in best or key < best[pair[node]][0]:
            best[pair[node]] = (key, pair)
    return {e: pair for e, (_, pair) in best.items()}


def _rank_scores(edges: list[tuple], node: int, weight: float) -> dict[Pair, float]:
    """``weight * (L - r + 1) / L`` per pair, r its 1-based rank in the list of
    length L of its side-``node`` entity (weight desc, other id asc)."""
    lists: dict[int, list[tuple[tuple[float, int], Pair]]] = defaultdict(list)
    for e in edges:
        pair = (e[0], e[1])
        lists[pair[node]].append(((-e[2], pair[1 - node]), pair))
    out = {}
    for cands in lists.values():
        size = len(cands)
        for r, (_, pair) in enumerate(sorted(cands), 1):
            out[pair] = weight * (size - r + 1) / size
    return out


def rule2_alone(beta_out1: list[tuple], beta_out2: list[tuple], n1: int, n2: int) -> set[Pair]:
    """R2: each entity of the smaller KB (KB1 on a tie) matches its rank-1
    beta candidate if that beta is >= 1."""
    node, edges = (0, beta_out1) if n1 <= n2 else (1, beta_out2)
    beta = {(e[0], e[1]): e[2] for e in edges}
    return {pair for pair in _best(beta, node).values() if beta[pair] >= 1.0}


def rule3_alone(
    beta_out1: list[tuple],
    beta_out2: list[tuple],
    gamma_out1: list[tuple],
    gamma_out2: list[tuple],
    theta: float,
) -> set[Pair]:
    """R3: each node picks its best candidate by ``theta`` x its beta-list
    rank score + ``1 - theta`` x its gamma-list rank score; a pick counts
    only if the candidate is in both lists, and a pair matches only if each
    side picks the other."""
    picks = []
    for node, beta_out, gamma_out in ((0, beta_out1, gamma_out1), (1, beta_out2, gamma_out2)):
        value = _rank_scores(beta_out, node, theta)
        neighbor = _rank_scores(gamma_out, node, 1.0 - theta)
        agg = {p: value.get(p, 0.0) + neighbor.get(p, 0.0) for p in value.keys() | neighbor.keys()}
        picks.append({p for p in _best(agg, node).values() if p in value and p in neighbor})
    return picks[0] & picks[1]


def alg2(
    alpha: list[tuple],
    beta_out1: list[tuple],
    beta_out2: list[tuple],
    gamma_out1: list[tuple],
    gamma_out2: list[tuple],
    n1: int,
    n2: int,
    theta: float,
) -> tuple[dict[Pair, tuple[str, bool]], dict[str, dict[Pair, str]]]:
    """Algorithm 2: ``({pair: (rule, r4)}, {variant: {pair: rule}})``.

    R1 is every alpha edge. R2 skips the smaller-KB entities R1 matched, R3
    the entities R1 or R2 matched on either side; the first dict holds each
    pair they match, its rule and R4's verdict: an edge leaves each side
    (alpha, beta_out1 or gamma_out1 has the pair, and alpha, beta_out2 or
    gamma_out2 has it). The second holds Table 4's six variants: ``R1``,
    ``R2`` and ``R3`` alone, ``no_R4``, ``no_neighbors`` (R1, R2, then R4)
    and ``full``.
    """
    r1 = {(e[0], e[1]) for e in alpha}
    r2 = rule2_alone(beta_out1, beta_out2, n1, n2)
    r3 = rule3_alone(beta_out1, beta_out2, gamma_out1, gamma_out2, theta)
    side = 0 if n1 <= n2 else 1
    ruled = {p: "R1" for p in r1}
    taken = {p[side] for p in ruled}
    ruled.update({p: "R2" for p in r2 if p[side] not in taken})
    taken1, taken2 = {p[0] for p in ruled}, {p[1] for p in ruled}
    ruled.update({p: "R3" for p in r3 if p[0] not in taken1 and p[1] not in taken2})
    from1 = r1 | {(e[0], e[1]) for e in beta_out1 + gamma_out1}
    from2 = r1 | {(e[0], e[1]) for e in beta_out2 + gamma_out2}
    verdicts = {p: (rule, p in from1 and p in from2) for p, rule in ruled.items()}
    kept = {p: rule for p, (rule, r4) in verdicts.items() if r4}
    return verdicts, {
        "R1": {p: "R1" for p in r1},
        "R2": {p: "R2" for p in r2},
        "R3": {p: "R3" for p in r3},
        "no_R4": ruled,
        "no_neighbors": {p: rule for p, rule in kept.items() if rule != "R3"},
        "full": kept,
    }
