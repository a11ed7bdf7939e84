"""Synthetic KB-pair substrate (stand-in for the paper's real Web KBs)."""
from .generator import KBPair, generate_kb_pair, generate_pandas, to_spark
from .profiles import (
    BBC_DBPEDIA,
    MICRO,
    PROFILES,
    RESTAURANT,
    REXA_DBLP,
    YAGO_IMDB,
    Profile,
    scaled,
    test_scale,
)

__all__ = [
    "KBPair",
    "generate_kb_pair",
    "generate_pandas",
    "to_spark",
    "Profile",
    "PROFILES",
    "RESTAURANT",
    "REXA_DBLP",
    "BBC_DBPEDIA",
    "YAGO_IMDB",
    "MICRO",
    "scaled",
    "test_scale",
]
