"""Baselines the paper compares against: BSL, SiGMa-lite, PARIS-lite, UMC."""
from .bsl import BSLResult, entity_grams, pair_similarities, run_bsl, weighted_grams
from .paris import run_paris
from .sigma import run_sigma
from .umc import unique_mapping_clustering

__all__ = [
    "BSLResult",
    "run_bsl",
    "entity_grams",
    "pair_similarities",
    "weighted_grams",
    "run_paris",
    "run_sigma",
    "unique_mapping_clustering",
]
