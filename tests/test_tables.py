"""Tests for the table harnesses and the transcribed paper numbers."""
from __future__ import annotations

import pytest

from tests.kbutil import cached_rdds, persistent_rdds
from repro import jobs
from repro.baselines import paris, sigma
from repro.tables import (
    format_rows,
    paper_numbers,
    table1,
    table1_rows,
    table2,
    table2_rows,
    table3,
    table3_rows,
    table4,
    table4_rows,
)


class TestPaperNumbers:
    def test_datasets_consistent(self):
        for t in (paper_numbers.TABLE1, paper_numbers.TABLE2):
            assert set(t) == set(paper_numbers.DATASETS)

    def test_table3_methods(self):
        assert set(paper_numbers.TABLE3) == {
            "sigma", "linda", "rimom", "paris", "bsl", "minoaner"
        }

    def test_table3_prf_triples(self):
        for method, per_ds in paper_numbers.TABLE3.items():
            for ds, prf in per_ds.items():
                if prf is not None:
                    p, r, f1 = prf
                    assert 0 <= p <= 100 and 0 <= r <= 100 and 0 <= f1 <= 100

    def test_table4_variants(self):
        assert set(paper_numbers.TABLE4) == {
            "R1", "R2", "R3", "no_R4", "no_neighbors"
        }

    def test_minoaner_wins_on_high_variety_in_paper(self):
        """The paper's core claim, encoded: MinoanER beats BSL everywhere
        except Restaurant (tie) and beats every tool by a wide margin on
        the most heterogeneous dataset (BBCmusic-DBpedia). On YAGO-IMDb
        PARIS is 1.2 F1 ahead — the paper concedes that — so the claim
        is PARIS-specific only on bbc."""
        for ds in ("rexa_dblp", "bbc_dbpedia", "yago_imdb"):
            ours = paper_numbers.TABLE3["minoaner"][ds][2]
            assert ours > paper_numbers.TABLE3["bsl"][ds][2]
        bbc = paper_numbers.TABLE3
        assert bbc["minoaner"]["bbc_dbpedia"][2] > 80
        assert bbc["paris"]["bbc_dbpedia"][2] < 5


class TestFormat:
    def test_format_rows_markdown(self):
        out = format_rows("T", [{"a": 1, "b": 2.5}, {"a": None, "b": 1e-8}])
        assert "## T" in out
        assert "| a | b |" in out
        assert "| - |" in out  # None renders as '-'
        assert "1.00e-08" in out

    def test_empty(self):
        assert "(no rows)" in format_rows("T", [])


class TestHarnesses:
    """Smoke the harnesses on the cheapest real profile (restaurant, scaled).

    The benchmarks run them at bench scale and check the paper's shape;
    here we validate row structure.
    """

    def test_table1_rows(self, spark):
        rows = table1_rows(spark, profiles=["restaurant"], sf=0.2)
        assert len(rows) == 1
        r = rows[0]
        assert r["dataset"] == "restaurant"
        assert r["e1_entities"] > 0 and r["matches"] > 0
        assert "/" in r["attributes"]

    def test_table2_rows(self, spark):
        before = persistent_rdds(spark)
        rows = table2_rows(spark, profiles=["restaurant"], sf=0.2)
        assert persistent_rdds(spark) <= before  # pair and tokens released
        r = rows[0]
        assert r["recall"] >= 99.0
        assert r["token_comparisons"] + r["name_comparisons"] < r["cartesian"]

    def test_table3_rows(self, spark):
        before = cached_rdds(spark)
        rows = table3_rows(spark, profiles=["restaurant"], sf=0.2)
        assert cached_rdds(spark) <= before  # pair, matches and pairs released
        by = {r["method"]: r for r in rows}
        assert list(by) == ["MinoanER", "BSL", "SiGMa-lite", "PARIS-lite"]
        assert all(0.0 <= r["f1"] <= 100.0 for r in rows)
        # the printed settings are the ones the baselines ran with
        sg = by["SiGMa-lite"]["config"]
        assert f"lambda={sigma.NEIGHBOR_WEIGHT}," in sg
        assert sg.endswith(f",t={sigma.THRESHOLD}")
        assert by["PARIS-lite"]["config"] == (
            f"iters={paris.ITERATIONS},t={paris.ACCEPT_THRESHOLD}"
        )

    def test_table4_rows(self, spark):
        rows = table4_rows(spark, profiles=["restaurant"], sf=0.2)
        variants = {r["variant"] for r in rows}
        assert variants == {"R1", "R2", "R3", "no_R4", "no_neighbors", "full"}
        full = next(r for r in rows if r["variant"] == "full")
        assert full["f1"] >= 75.0  # ~20 matches at this scale: noisy
        r1 = next(r for r in rows if r["variant"] == "R1")
        assert r1["precision"] >= 90.0  # name rule is precise by design


class TestJobs:
    def test_each_table_runs_its_harness(self):
        assert jobs.TABLES == {
            "table1": table1.main,
            "table2": table2.main,
            "table3": table3.main,
            "table4": table4.main,
        }

    def test_unknown_table_exits_nonzero(self, capsys):
        with pytest.raises(SystemExit) as exc:
            jobs.main(["table5"])
        assert exc.value.code != 0
        assert "invalid choice" in capsys.readouterr().err
