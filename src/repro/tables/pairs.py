"""The KB pairs the table harnesses run on, one profile at a time."""
from __future__ import annotations

from collections.abc import Iterator

from pyspark.sql import SparkSession

from ..kbgen import PROFILES, KBPair, generate_kb_pair, scaled


def profile_pairs(
    spark: SparkSession,
    profiles: list[str] | None,
    seed: int,
    sf: float | None,
) -> Iterator[tuple[str, KBPair]]:
    """Yield ``(profile name, pair)`` for each profile (all if ``None``).

    Each profile is scaled by ``sf`` if given and generated from ``seed``.
    Both KBs' triples are cached while the caller uses the pair and
    released when the caller asks for the next one.
    """
    for name in profiles or list(PROFILES):
        prof = PROFILES[name] if sf is None else scaled(PROFILES[name], sf)
        pair = generate_kb_pair(spark, prof, seed=seed)
        pair.triples1.cache()
        pair.triples2.cache()
        try:
            yield name, pair
        finally:
            pair.triples1.unpersist()
            pair.triples2.unpersist()
