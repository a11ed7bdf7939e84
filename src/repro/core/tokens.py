"""Tokenization and Entity Frequency (Definition 2.1 building blocks).

``valueSim(e_i, e_j) = sum over shared tokens t of
1 / log2(EF_1(t) * EF_2(t) + 1)`` — tokens are single lowercase words in
any literal value of an entity (schema-agnostic: the attribute is
ignored), de-duplicated per entity (set semantics: a token either is or
is not in ``tokens(e)``).

``value_tokens`` is the one place a literal value becomes tokens: the
distinct tokens of ``literal_tokens``, Table 1's token occurrences and
BSL's word n-grams are all built from it.
"""
from __future__ import annotations

from pyspark.sql import Column, DataFrame
from pyspark.sql import functions as F

TOKEN_SPLIT = r"[^a-z0-9]+"


def value_tokens(val: Column) -> Column:
    """The word tokens of each literal value, in order, repeats kept: the
    value lowercased and split on any run of non-alphanumeric characters,
    empty strings dropped (NULL for a NULL value)."""
    return F.array_remove(F.split(F.lower(val), TOKEN_SPLIT), "")


def literal_tokens(triples: DataFrame) -> DataFrame:
    """``(eid, token)`` — distinct lowercase word tokens per entity.

    Only literal triples contribute (``val`` non-NULL); relation triples
    carry no text. Each value gives its ``value_tokens``, mirroring the
    paper's bag-of-words view of a description.
    """
    return (
        triples.filter(F.col("val").isNotNull())
        .select("eid", F.explode(value_tokens(F.col("val"))).alias("token"))
        .distinct()
    )


def entity_frequency(tokens: DataFrame) -> DataFrame:
    """``(token, ef)`` — number of entities of one KB containing the token."""
    return tokens.groupBy("token").agg(F.count("*").alias("ef"))


def pair_token_weights(ef1: DataFrame, ef2: DataFrame) -> DataFrame:
    """``(token, ef1, ef2, weight)`` for tokens present in *both* KBs.

    ``weight = 1 / log2(ef1 * ef2 + 1)`` is the contribution of one
    shared token to valueSim (Def. 2.1). Tokens absent from either KB
    can never be shared by a cross-KB pair, so the inner join is exact.
    """
    e1 = ef1.withColumnRenamed("ef", "ef1")
    e2 = ef2.withColumnRenamed("ef", "ef2")
    return e1.join(e2, "token").withColumn(
        "weight", F.lit(1.0) / F.log2(F.col("ef1") * F.col("ef2") + F.lit(1.0))
    )
