"""Dataset statistics for Table 1 of the paper.

Computes, per KB: triple count, average tokens per entity, number of
(literal) attributes, number of relations, number of types and number of
vocabularies (namespace prefixes), plus the ground-truth match count — the
same rows the paper reports in its Table 1. The entity count |E| is the
caller's: Table 1 reads it from the KB pair's ``Blocking``, which has
counted it.
"""
from __future__ import annotations

from pyspark.sql import DataFrame
from pyspark.sql import functions as F

from ..core.tokens import TOKEN_SPLIT
from .generator import KBPair


def kb_stats(triples: DataFrame, n_entities: int) -> dict[str, float]:
    """Table-1 statistics for one KB of ``n_entities`` entities (single pass
    per metric; the caller has counted |E|, e.g. ``Blocking.n1``)."""
    n_triples = triples.count()
    # the paper's "av. tokens" counts token *occurrences* in the raw values,
    # not the per-entity distinct tokens of ``literal_tokens``
    occurrences = (
        triples.filter(F.col("val").isNotNull())
        .select(F.explode(F.split(F.lower(F.col("val")), TOKEN_SPLIT)).alias("token"))
        .filter(F.col("token") != "")
        .count()
    )
    literal_attrs = (
        triples.filter(F.col("val").isNotNull()).select("attr").distinct().count()
    )
    relations = (
        triples.filter(F.col("obj").isNotNull()).select("attr").distinct().count()
    )
    types = (
        triples.filter(
            F.col("val").isNotNull() & F.col("attr").endswith(":type")
        )
        .select("val")
        .distinct()
        .count()
    )
    vocabularies = (
        triples.select(
            F.split(F.col("attr"), ":").getItem(0).alias("ns")
        )
        .distinct()
        .count()
    )
    return {
        "entities": n_entities,
        "triples": n_triples,
        "avg_tokens": round(occurrences / max(1, n_entities), 2),
        "attributes": literal_attrs,
        "relations": relations,
        "types": types,
        "vocabularies": vocabularies,
    }


def dataset_stats(pair: KBPair, n1: int, n2: int) -> dict[str, object]:
    """Full Table-1 row set for one generated dataset of |E1| = ``n1`` and
    |E2| = ``n2`` entities."""
    s1 = kb_stats(pair.triples1, n1)
    s2 = kb_stats(pair.triples2, n2)
    return {
        "dataset": pair.profile.name,
        "kb1": s1,
        "kb2": s2,
        "matches": pair.gt.count(),
    }
