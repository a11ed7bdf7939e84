"""MinoanER configuration (the four knobs of Section 6.1).

Default ``(k, K, N, theta) = (2, 15, 3, 0.6)`` — the paper's suggested
global configuration used for all Table 3/4 results.
"""
from __future__ import annotations

from dataclasses import dataclass


@dataclass(frozen=True)
class MinoanerConfig:
    """Configuration knobs of the MinoanER pipeline.

    k:      number of top literal attributes per KB whose values serve
            as entity names (name blocking / R1).
    K:      candidates kept per entity from value and from neighbor
            evidence (top-K beta edges and top-K gamma edges per node).
    N:      most important relations per entity for topNneighbors.
    theta:  value-vs-neighbor trade-off of the rank aggregation rule R3.
    purge_max_comparisons: explicit Block Purging threshold, or None for
            the cap derived from the token weight: blocks with more than
            ``2**(1/0.1) - 1 = 1023`` comparisons carry weight below 0.1
            and are dropped (``blocking.purge_blocks``, DESIGN.md
            section 5).
    """

    k: int = 2
    K: int = 15
    N: int = 3
    theta: float = 0.6
    purge_max_comparisons: int | None = None


DEFAULT_CONFIG = MinoanerConfig()
