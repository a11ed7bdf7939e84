"""Table 1 harness: dataset statistics per profile.

Per KB: triple count, average tokens per entity, number of (literal)
attributes, number of relations, number of types and number of
vocabularies (namespace prefixes), plus the ground-truth match count — the
rows the paper reports in its Table 1. Each KB's statistics are one
aggregation job; |E| comes from the KB pair's ``Blocking``, which has
counted it, and the match count from the pandas ground truth.
"""
from __future__ import annotations

from pyspark.sql import DataFrame
from pyspark.sql import functions as F

from ..core.tokens import value_tokens
from .pairs import ProfileRun

TITLE = "Table 1 — dataset statistics (ours)"


def kb_stats(triples: DataFrame, n_entities: int) -> dict[str, float]:
    """Table-1 statistics for one KB of ``n_entities`` entities, in one
    aggregation over its triples."""
    lit = F.col("val").isNotNull()
    s = triples.agg(
        F.count("*").alias("triples"),
        # the paper's "av. tokens" counts token *occurrences* in the raw
        # values, not the per-entity distinct tokens of ``literal_tokens``;
        # sizes are summed over literal rows only (size(NULL) may be -1)
        F.sum(F.when(lit, F.size(value_tokens(F.col("val"))))).alias("occurrences"),
        F.countDistinct(F.when(lit, F.col("attr"))).alias("attributes"),
        F.countDistinct(F.when(F.col("obj").isNotNull(), F.col("attr"))).alias("relations"),
        F.countDistinct(F.when(lit & F.col("attr").endswith(":type"), F.col("val"))).alias("types"),
        F.countDistinct(F.split(F.col("attr"), ":").getItem(0)).alias("vocabularies"),
    ).first()
    return {
        "entities": n_entities,
        "triples": s.triples,
        "avg_tokens": round((s.occurrences or 0) / max(1, n_entities), 2),
        "attributes": s.attributes,
        "relations": s.relations,
        "types": s.types,
        "vocabularies": s.vocabularies,
    }


def rows(run: ProfileRun) -> list[dict]:
    """The profile's row, with |E1| and |E2| from the shared ``Blocking``."""
    s1 = kb_stats(run.triples1, run.blocking.n1)
    s2 = kb_stats(run.triples2, run.blocking.n2)
    return [
        {
            "dataset": run.name,
            "e1_entities": s1["entities"],
            "e2_entities": s2["entities"],
            "e1_triples": s1["triples"],
            "e2_triples": s2["triples"],
            "e1_avg_tokens": s1["avg_tokens"],
            "e2_avg_tokens": s2["avg_tokens"],
            "attributes": f"{s1['attributes']}/{s2['attributes']}",
            "relations": f"{s1['relations']}/{s2['relations']}",
            "types": f"{s1['types']}/{s2['types']}",
            "vocabularies": f"{s1['vocabularies']}/{s2['vocabularies']}",
            "matches": len(run.gt_pdf),
        }
    ]
