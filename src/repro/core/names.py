"""Entity-name discovery and name blocking (Section 2.2 "Entity Names").

The paper derives, per KB, the *global* top-k literal attributes of
highest importance; their values act as names. Attribute support is
``|subjects(p)| / |E|`` (fraction of entities carrying the attribute,
following [32]) and discriminability is ``|distinct values| /
|instances|``; the two are combined by harmonic mean, exactly as for
relations.
"""
from __future__ import annotations

from pyspark.sql import DataFrame
from pyspark.sql import functions as F


def attribute_importance(triples: DataFrame, n_entities: int | None = None) -> DataFrame:
    """``(attr, support, discriminability, importance)`` over literal attrs.

    ``importance`` is the harmonic mean of support and discriminability.
    ``n_entities`` may be passed to avoid re-counting the KB.
    """
    lits = triples.filter(F.col("val").isNotNull())
    if n_entities is None:
        n_entities = triples.select("eid").distinct().count()
    per_attr = lits.groupBy("attr").agg(
        F.countDistinct("eid").alias("subjects"),
        F.countDistinct("val").alias("objects"),
        F.count("*").alias("instances"),
    )
    return (
        per_attr.withColumn("support", F.col("subjects") / F.lit(float(n_entities)))
        .withColumn("discriminability", F.col("objects") / F.col("instances"))
        .withColumn(
            "importance",
            F.when(
                (F.col("support") + F.col("discriminability")) > 0,
                2.0
                * F.col("support")
                * F.col("discriminability")
                / (F.col("support") + F.col("discriminability")),
            ).otherwise(F.lit(0.0)),
        )
        .select("attr", "support", "discriminability", "importance")
    )


def top_k_name_attrs(
    triples: DataFrame, k: int, n_entities: int | None = None
) -> list[str]:
    """The k most important literal attributes of one KB (driver-side list).

    Ties break on attribute name ascending for determinism. ``n_entities``
    (|E|) may be passed to avoid re-counting the KB.
    """
    rows = (
        attribute_importance(triples, n_entities)
        .orderBy(F.desc("importance"), F.asc("attr"))
        .limit(k)
        .collect()
    )
    return [r["attr"] for r in rows]


def entity_names(triples: DataFrame, name_attrs: list[str]) -> DataFrame:
    """``(eid, name)`` — normalized literal values of the name attributes.

    Normalization is lowercase + whitespace collapse, so cosmetically
    different spellings of the same name land in the same name block.
    """
    if not name_attrs:
        # no name attributes discovered -> empty frame with right schema
        return (
            triples.select("eid", F.col("val").alias("name"))
            .filter(F.lit(False))
        )
    return (
        triples.filter(F.col("val").isNotNull() & F.col("attr").isin(name_attrs))
        .select(
            "eid",
            F.trim(F.regexp_replace(F.lower(F.col("val")), r"\s+", " ")).alias(
                "name"
            ),
        )
        .filter(F.col("name") != "")
        .distinct()
    )


def name_block_index(names1: DataFrame, names2: DataFrame) -> DataFrame:
    """``(name, cnt1, cnt2)`` for names shared by the two KBs.

    One name block per shared name (|B_N| rows); ``cnt1 * cnt2`` is the
    block's comparison cardinality (for ||B_N|| in Table 2).
    """
    c1 = names1.groupBy("name").agg(F.countDistinct("eid").alias("cnt1"))
    c2 = names2.groupBy("name").agg(F.countDistinct("eid").alias("cnt2"))
    return c1.join(c2, "name")


def alpha_edges(names1: DataFrame, names2: DataFrame) -> DataFrame:
    """``(eid1, eid2)`` pairs alone in a name block (label alpha = 1).

    Per Section 3.2, alpha is 1 only when the name block has size 2 —
    exactly one entity per KB carries that name ("they, and only they,
    have the same name").
    """
    idx = name_block_index(names1, names2).filter(
        (F.col("cnt1") == 1) & (F.col("cnt2") == 1)
    )
    return (
        idx.join(names1, "name")
        .withColumnRenamed("eid", "eid1")
        .join(names2, "name")
        .withColumnRenamed("eid", "eid2")
        .select("eid1", "eid2")
        .distinct()
    )


def name_pairs(names1: DataFrame, names2: DataFrame) -> DataFrame:
    """All cross-KB pairs co-occurring in any name block (for blocking
    recall / the unpruned graph used by BSL)."""
    return (
        names1.withColumnRenamed("eid", "eid1")
        .join(names2.withColumnRenamed("eid", "eid2"), "name")
        .select("eid1", "eid2")
        .distinct()
    )
