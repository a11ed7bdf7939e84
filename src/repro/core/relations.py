"""Relation importance and top neighbors (Definitions 2.2-2.4, Alg. 1 l.35-48).

* ``support(p) = |instances(p)| / |E|^2``
* ``discriminability(p) = |objects(p)| / |instances(p)|``
* importance = harmonic mean of the two (paper Section 2.2)

Per entity, its relations are ranked by the *global* importance order of
its KB (Alg. 1 line 39: ``localOrder(e) = relations(e).sortBy(globalOrder)``)
and the objects of the top-N relations are its ``topNneighbors``. The
reverse mapping (``topInNeighbors``) feeds the gamma computation.
"""
from __future__ import annotations

from pyspark.sql import Column, DataFrame, Window
from pyspark.sql import functions as F


def relation_edges(triples: DataFrame) -> DataFrame:
    """``(eid, rel, obj)`` — the relation triples of a KB, de-duplicated."""
    return (
        triples.filter(F.col("obj").isNotNull())
        .select("eid", F.col("attr").alias("rel"), "obj")
        .distinct()
    )


def harmonic_mean(a: str, b: str) -> Column:
    """The harmonic mean of columns ``a`` and ``b``, 0 where both are 0.

    Importance is the harmonic mean of support and discriminability, for
    relations and for the literal attributes that give entity names
    (paper Section 2.2).
    """
    x, y = F.col(a), F.col(b)
    return F.when((x + y) > 0, 2.0 * x * y / (x + y)).otherwise(F.lit(0.0))


def relation_importance(triples: DataFrame, n_entities: int) -> DataFrame:
    """``(rel, support, discriminability, importance)`` per relation of a KB
    of ``n_entities`` entities (|E|, in the support's denominator)."""
    edges = relation_edges(triples)
    per_rel = edges.groupBy("rel").agg(
        F.count("*").alias("instances"),
        F.countDistinct("obj").alias("objects"),
    )
    denom = float(n_entities) * float(n_entities)
    return (
        per_rel.withColumn("support", F.col("instances") / F.lit(denom))
        .withColumn("discriminability", F.col("objects") / F.col("instances"))
        .withColumn("importance", harmonic_mean("support", "discriminability"))
        .select("rel", "support", "discriminability", "importance")
    )


def top_n_neighbors(triples: DataFrame, n: int, importance: DataFrame) -> DataFrame:
    """``(eid, neighbor)`` — objects of each entity's N most important relations.

    The N relations are chosen *per entity* among the relations it
    actually uses, ordered by the KB-global importance score (``importance``
    is the KB's ``relation_importance``), ties broken on relation name. One
    ``dense_rank`` over the entity's edges ranks them: all edges of one
    relation share its order key, so an edge's rank is its relation's. All
    objects of the N relations are kept, as ``topNneighbors`` of Definition 2.4.
    """
    w = Window.partitionBy("eid").orderBy(F.desc("importance"), F.asc("rel"))
    return (
        relation_edges(triples)
        .join(importance.select("rel", "importance"), "rel")
        .withColumn("rk", F.dense_rank().over(w))
        .filter(F.col("rk") <= n)
        .select("eid", F.col("obj").alias("neighbor"))
        .distinct()
    )


def top_in_neighbors(top_neighbors: DataFrame) -> DataFrame:
    """``(eid, in_neighbor)`` — reverse of topNneighbors (Alg. 1 l.44-47).

    ``in_neighbor`` is an entity that lists ``eid`` among its top
    neighbors; a beta edge between two entities contributes gamma to the
    cross product of their in-neighbor sets.
    """
    return top_neighbors.select(
        F.col("neighbor").alias("eid"), F.col("eid").alias("in_neighbor")
    ).distinct()
