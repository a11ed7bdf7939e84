"""Naive pure-Python reference implementations of the paper's definitions.

Deliberately simple (dicts and loops, no Spark) so Spark results can be
cross-checked on small inputs. Mirrors Definitions 2.1-2.5 and the
importance statistics verbatim.
"""
from __future__ import annotations

import math
import re
from collections import Counter, defaultdict

import pandas as pd

TOKEN_RE = re.compile(r"[^a-z0-9]+")


def tokens_of(pdf: pd.DataFrame) -> dict[int, set[str]]:
    """eid -> set of lowercase word tokens over literal values."""
    out: dict[int, set[str]] = defaultdict(set)
    lits = pdf[pdf.val.notna()]
    for e, v in zip(lits.eid.astype(int), lits.val):
        for t in TOKEN_RE.split(str(v).lower()):
            if t:
                out[e].add(t)
    return dict(out)


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
