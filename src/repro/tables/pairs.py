"""One pass over the profiles: each KB pair is generated once, and every table
reads what it needs from one :class:`ProfileRun`, the profile's
``core.pipeline.MinoanerRun``: one composite ``Blocking``, the graph built
from it, and one Algorithm 2 run that feeds Table 3's MinoanER row and
every Table 4 variant.
"""
from __future__ import annotations

from collections.abc import Callable

from pyspark.sql import SparkSession

from ..core import DEFAULT_CONFIG
from ..core.pipeline import MinoanerRun
from ..kbgen import PROFILES, KBPair, generate_kb_pair, scaled

SEED = 7
"""The seed the tables' KB pairs are generated from."""


class ProfileRun(MinoanerRun):
    """One profile's MinoanER run, with its name and the KB pair's pandas
    copies (``pdf1``, ``pdf2``, ``gt_pdf``)."""

    def __init__(self, name: str, pair: KBPair):
        super().__init__(pair.triples1, pair.triples2, pair.gt, DEFAULT_CONFIG)
        self.name = name
        self.pdf1, self.pdf2, self.gt_pdf = pair.pdf1, pair.pdf2, pair.gt_pdf


def run_tables(
    spark: SparkSession,
    tables: list[Callable[[ProfileRun], list[dict]]],
    profiles: list[str] | None,
    seed: int,
    sf: float | None,
) -> list[list[dict]]:
    """Each table function's rows over the profiles (all if ``None``).

    Each profile is scaled by ``sf`` if given, generated from ``seed`` and
    cached; its run goes to every function in ``tables``. The run and the
    pair are released before the next profile, on the error path too.
    """
    out: list[list[dict]] = [[] for _ in tables]
    for name in profiles or list(PROFILES):
        prof = PROFILES[name] if sf is None else scaled(PROFILES[name], sf)
        run = ProfileRun(name, generate_kb_pair(spark, prof, seed=seed))
        kbs = (run.triples1.cache(), run.triples2.cache())
        try:
            for rows, table in zip(out, tables):
                rows.extend(table(run))
        finally:
            run.release()
            for t in kbs:
                t.unpersist()
    return out
