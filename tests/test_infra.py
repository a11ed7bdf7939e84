"""Infrastructure tests: the DuckDB oracle on KB triples.

Every oracle test in the suite trusts ``assert_equivalent``; these check
that it agrees with Spark on an aggregation and a join over the micro KB
pair, and that it fails on a wrong result or a renamed column.
"""
from __future__ import annotations

import pytest
from pyspark.sql import functions as F

from repro.oracle import assert_equivalent


class TestOracleOnTriples:
    def test_oracle_on_aggregation(self, micro_pair):
        t1 = micro_pair.triples1
        got = t1.groupBy("attr").agg(
            F.countDistinct("eid").alias("subjects"),
            F.count("val").alias("literals"),
        )
        assert_equivalent(
            got,
            """
            SELECT attr, count(DISTINCT eid) AS subjects, count(val) AS literals
            FROM t1 GROUP BY attr
            """,
            t1=t1,
        )

    def test_oracle_on_join(self, micro_pair):
        t1, gt = micro_pair.triples1, micro_pair.gt
        got = (
            t1.join(gt, t1.eid == gt.eid1)
            .groupBy("attr")
            .agg(F.count("*").alias("cnt"))
        )
        assert_equivalent(
            got,
            """
            SELECT attr, count(*) AS cnt
            FROM t1 JOIN gt ON eid = eid1
            GROUP BY attr
            """,
            t1=t1,
            gt=gt,
        )


class TestOracleHelper:
    def test_detects_wrong_result(self, micro_pair):
        t1 = micro_pair.triples1
        wrong = t1.groupBy("attr").agg(
            (F.count("*") + 1).alias("cnt")  # off by one: oracle must catch
        )
        with pytest.raises(AssertionError):
            assert_equivalent(
                wrong,
                "SELECT attr, count(*) AS cnt FROM t1 GROUP BY attr",
                t1=t1,
            )

    def test_detects_column_mismatch(self, micro_pair):
        t1 = micro_pair.triples1
        got = t1.groupBy("attr").agg(F.count("*").alias("n"))
        with pytest.raises(AssertionError, match="column mismatch"):
            assert_equivalent(
                got,
                "SELECT attr, count(*) AS cnt FROM t1 GROUP BY attr",
                t1=t1,
            )
