"""MinoanER core: the paper's primary contribution as Spark DataFrame jobs."""
from .config import DEFAULT_CONFIG, MinoanerConfig
from .evaluation import PRF, evaluate
from .graph import BlockingGraph, build_graph
from .matching import match_graph, rule1, rule2, rule3, rule4
from .pipeline import MinoanerRun, run_minoaner

__all__ = [
    "DEFAULT_CONFIG",
    "MinoanerConfig",
    "PRF",
    "evaluate",
    "BlockingGraph",
    "build_graph",
    "match_graph",
    "rule1",
    "rule2",
    "rule3",
    "rule4",
    "MinoanerRun",
    "run_minoaner",
]
