"""Helpers for tests: handcrafted KBs and the Spark cache's contents."""
from __future__ import annotations

import pandas as pd
from pyspark.sql import DataFrame, SparkSession

from repro.core.relations import relation_importance, top_n_neighbors
from repro.kbgen.generator import TRIPLE_SCHEMA


def kb(spark: SparkSession, rows: list[tuple]) -> DataFrame:
    """Build a triples DataFrame from (eid, attr, val, obj) tuples.

    ``val`` is None for relation rows, ``obj`` is None for literal rows.
    """
    pdf = pd.DataFrame(rows, columns=["eid", "attr", "val", "obj"])
    pdf["obj"] = [
        None if o is None or (isinstance(o, float) and pd.isna(o)) else int(o)
        for o in pdf["obj"]
    ]
    pdf["val"] = pdf["val"].astype(object).where(pdf["val"].notna(), None)
    return spark.createDataFrame(pdf, schema=TRIPLE_SCHEMA)


def n_entities(triples: DataFrame) -> int:
    """|E| of a KB, counted as the program counts it: its distinct subjects."""
    return triples.select("eid").distinct().count()


def top_neighbors(triples: DataFrame, n: int) -> DataFrame:
    """``top_n_neighbors`` of a KB, ranked by the KB's own relation importance."""
    return top_n_neighbors(triples, n, relation_importance(triples, n_entities(triples)))


def gt_df(spark: SparkSession, pairs: list[tuple[int, int]]) -> DataFrame:
    from repro.kbgen.generator import GT_SCHEMA

    return spark.createDataFrame(
        pd.DataFrame(pairs, columns=["eid1", "eid2"]), schema=GT_SCHEMA
    )


def persistent_rdds(spark: SparkSession) -> set[int]:
    """Ids of the RDDs Spark currently holds persisted (cached frames included).

    Compare sets, not sizes: Spark's context cleaner may drop unreferenced
    RDDs of earlier tests at any moment, so "nothing new is left behind" is
    ``persistent_rdds(spark) <= before``.
    """
    return set(spark.sparkContext._jsc.getPersistentRDDs().keySet())


def cached_rdds(spark: SparkSession) -> set[int]:
    """Ids of the persisted RDDs that back cached frames (local checkpoints excluded).

    A local checkpoint is a persisted RDD too, but it is a result that lives
    as long as the frame over it, not a cache its creator must release.
    """
    rdds = spark.sparkContext._jsc.getPersistentRDDs()  # an immutable snapshot
    return {i for i in rdds.keySet() if not rdds.get(i).rdd().isLocallyCheckpointed()}
