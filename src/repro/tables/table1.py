"""Table 1 harness: dataset statistics per profile."""
from __future__ import annotations

from pyspark.sql import SparkSession

from ..kbgen.stats import dataset_stats
from .pairs import SEED, ProfileRun, run_tables

TITLE = "Table 1 — dataset statistics (ours)"


def rows(run: ProfileRun) -> list[dict]:
    """The profile's row, ours next to nothing — the paper's numbers are
    joined in EXPERIMENTS.md / jobs output."""
    s = dataset_stats(run.pair)
    return [
        {
            "dataset": run.name,
            "e1_entities": s["kb1"]["entities"],
            "e2_entities": s["kb2"]["entities"],
            "e1_triples": s["kb1"]["triples"],
            "e2_triples": s["kb2"]["triples"],
            "e1_avg_tokens": s["kb1"]["avg_tokens"],
            "e2_avg_tokens": s["kb2"]["avg_tokens"],
            "attributes": f"{s['kb1']['attributes']}/{s['kb2']['attributes']}",
            "relations": f"{s['kb1']['relations']}/{s['kb2']['relations']}",
            "types": f"{s['kb1']['types']}/{s['kb2']['types']}",
            "vocabularies": f"{s['kb1']['vocabularies']}/{s['kb2']['vocabularies']}",
            "matches": s["matches"],
        }
    ]


def table1_rows(
    spark: SparkSession, profiles: list[str] | None = None, seed: int = SEED, sf: float | None = None
) -> list[dict]:
    """One row per profile (Table 1 alone)."""
    return run_tables(spark, [rows], profiles, seed, sf)[0]
