"""Table 1 harness: dataset statistics per profile."""
from __future__ import annotations

from ..kbgen.stats import dataset_stats
from .pairs import ProfileRun

TITLE = "Table 1 — dataset statistics (ours)"


def rows(run: ProfileRun) -> list[dict]:
    """The profile's row, with |E1| and |E2| from the shared ``Blocking``."""
    s = dataset_stats(run.pair, run.blocking.n1, run.blocking.n2)
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
