"""Table 2 harness: block statistics per profile."""
from __future__ import annotations

from .pairs import ProfileRun

TITLE = "Table 2 — block statistics (ours)"


def rows(run: ProfileRun) -> list[dict]:
    """The profile's row, from the shared ``Blocking`` (names from the top
    ``DEFAULT_CONFIG.k`` attributes); the graph is not built."""
    s = run.blocking.stats(run.gt)
    return [
        {
            "dataset": run.name,
            "n_name_blocks": s.n_name_blocks,
            "n_token_blocks": s.n_token_blocks,
            "name_comparisons": s.name_comparisons,
            "token_comparisons": s.token_comparisons,
            "cartesian": s.cartesian,
            "precision": s.precision,
            "recall": s.recall,
            "f1": s.f1,
        }
    ]
