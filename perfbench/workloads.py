"""The workloads, run through the program's public entry points.

``resolve`` is what the end-to-end metrics time. ``resolve_traced`` does the
same work one module at a time: each module's public functions are called
in pipeline order, every output is forced with ``cache()`` + ``count()``,
and each step runs inside a span whose Spark jobs carry the span's name as
their job group (see ``eventlog``).
"""
from __future__ import annotations

import time
from collections import defaultdict
from contextlib import contextmanager
from dataclasses import dataclass
from typing import Iterator

from pyspark import SparkContext
from pyspark.sql import DataFrame

from repro.core import (
    DEFAULT_CONFIG,
    PRF,
    BlockingGraph,
    evaluate,
    match_graph,
    rule1,
    rule2,
    rule3,
    rule4,
    run_minoaner,
)
from repro.core.blocking import block_stats, purge_blocks, token_block_index
from repro.core.graph import beta_scores, gamma_scores, top_k_directed
from repro.core.names import alpha_edges, entity_names, top_k_name_attrs
from repro.core.relations import relation_importance, top_in_neighbors, top_n_neighbors
from repro.core.tokens import literal_tokens
from repro.kbgen import BBC_DBPEDIA, YAGO_IMDB, Profile, scaled

CFG = DEFAULT_CONFIG
PAIR = ["eid1", "eid2"]
OUTSIDE = "perfbench.outside"  # job group of work outside every span


@dataclass(frozen=True)
class Workload:
    """A KB pair, and whether Table 2's ``block_stats`` runs on it first."""

    name: str
    profile: Profile
    table2: bool = False


WORKLOADS = {
    w.name: w
    for w in (
        Workload("yago", scaled(YAGO_IMDB, 0.1)),
        Workload("bbc_stats_resolve", scaled(BBC_DBPEDIA, 0.1), table2=True),
    )
}


@dataclass
class Inputs:
    """The cached Spark frames the program receives."""

    t1: DataFrame
    t2: DataFrame
    gt: DataFrame


@dataclass
class Outcome:
    """What one resolution produced."""

    prf: PRF  # quality of the full R1-R4 workflow
    matches: DataFrame  # (eid1, eid2, rule)
    extra: str = ""  # further deterministic output: the Table 2 row, if any


def _block_stats(f: Inputs) -> str:
    names1 = entity_names(f.t1, top_k_name_attrs(f.t1, CFG.k))
    names2 = entity_names(f.t2, top_k_name_attrs(f.t2, CFG.k))
    return repr(block_stats(f.t1, f.t2, names1, names2, f.gt))


def resolve(w: Workload, f: Inputs) -> Outcome:
    """Resolve the pair as the program's users would; nothing is traced."""
    extra = _block_stats(f) if w.table2 else ""
    res = run_minoaner(f.t1, f.t2, f.gt, CFG)
    return Outcome(res.prf, res.matches, extra)


class Tracer:
    """Wall time per span, and the Spark job group that tags its jobs."""

    def __init__(self, sc: SparkContext):
        self.sc = sc
        self.wall_s: dict[str, float] = defaultdict(float)
        self.counts: dict[str, float] = {}

    @contextmanager
    def span(self, name: str) -> Iterator[None]:
        self.sc.setJobGroup(name, name)
        t0 = time.perf_counter()
        try:
            yield
        finally:
            self.wall_s[name] += time.perf_counter() - t0
            self.sc.setJobGroup(OUTSIDE, OUTSIDE)

    def force(self, df: DataFrame) -> tuple[DataFrame, int]:
        """Cache ``df`` and materialise it; returns the frame and its rows."""
        df = df.cache()
        return df, df.count()


def _graph(f: Inputs, tr: Tracer) -> BlockingGraph:
    """Algorithm 1, one module per span (``graph.build_graph`` step by step)."""
    c = tr.counts
    with tr.span("names"):
        attrs1 = top_k_name_attrs(f.t1, CFG.k)
        attrs2 = top_k_name_attrs(f.t2, CFG.k)
        alpha, c["names.alpha_edges"] = tr.force(
            alpha_edges(entity_names(f.t1, attrs1), entity_names(f.t2, attrs2))
        )
    with tr.span("tokens"):
        tok1, rows1 = tr.force(literal_tokens(f.t1))
        tok2, rows2 = tr.force(literal_tokens(f.t2))
        c["tokens.rows"] = rows1 + rows2
    with tr.span("blocking"):
        index, c["blocking.blocks"] = tr.force(token_block_index(tok1, tok2))
        kept, threshold = purge_blocks(index, CFG.purge_max_comparisons)
        kept, c["blocking.kept_blocks"] = tr.force(kept)
    c["blocking.kept_comparisons"] = kept.groupBy().sum("comparisons").first()[0] or 0
    with tr.span("relations"):
        n1 = f.t1.select("eid").distinct().count()
        n2 = f.t2.select("eid").distinct().count()
        topin1, in1 = tr.force(
            top_in_neighbors(
                top_n_neighbors(f.t1, CFG.N, relation_importance(f.t1, n1))
            )
        )
        topin2, in2 = tr.force(
            top_in_neighbors(
                top_n_neighbors(f.t2, CFG.N, relation_importance(f.t2, n2))
            )
        )
        c["relations.in_neighbor_edges"] = in1 + in2
    with tr.span("graph.beta"):
        beta, beta_n = tr.force(beta_scores(tok1, tok2, kept))
        beta1, k1 = tr.force(top_k_directed(beta, "eid1", "eid2", "beta", CFG.K))
        beta2, k2 = tr.force(top_k_directed(beta, "eid2", "eid1", "beta", CFG.K))
    _kept_counts(c, "graph.beta", beta_n, k1 + k2)
    with tr.span("graph.gamma"):
        retained = (
            beta1.select("eid1", "eid2", "beta")
            .union(beta2.select("eid1", "eid2", "beta"))
            .distinct()
        )
        gamma, gamma_n = tr.force(gamma_scores(retained, topin1, topin2))
        gamma1, k1 = tr.force(top_k_directed(gamma, "eid1", "eid2", "gamma", CFG.K))
        gamma2, k2 = tr.force(top_k_directed(gamma, "eid2", "eid1", "gamma", CFG.K))
    _kept_counts(c, "graph.gamma", gamma_n, k1 + k2)
    return BlockingGraph(
        alpha=alpha,
        beta_out1=beta1,
        beta_out2=beta2,
        gamma_out1=gamma1,
        gamma_out2=gamma2,
        n1=n1,
        n2=n2,
        name_attrs1=attrs1,
        name_attrs2=attrs2,
        purge_threshold=threshold,
    )


def _kept_counts(c: dict[str, float], layer: str, edges: int, kept: int) -> None:
    c[f"{layer}.edges"] = edges
    c[f"{layer}.kept"] = kept
    c[f"{layer}.kept_ratio"] = kept / edges if edges else 0.0


def _match(g: BlockingGraph, f: Inputs, tr: Tracer) -> tuple[dict[str, DataFrame], PRF]:
    """Algorithm 2, one rule per span; returns each rule's matches and P/R/F1.

    R1-R3 are forced one by one with the same plans ``match_graph`` builds,
    so the ``matching.r4`` span's ``match_graph`` call reads them from the
    cache and adds only the union, the first-rule-wins dedupe and R4.
    """
    c = tr.counts
    rules = {}
    with tr.span("matching.r1"):
        rules["r1"], c["matching.r1.matches"] = tr.force(rule1(g))
    matched = rules["r1"].select(*PAIR)
    with tr.span("matching.r2"):
        rules["r2"], c["matching.r2.matches"] = tr.force(rule2(g, matched))
    matched = matched.union(rules["r2"].select(*PAIR))
    with tr.span("matching.r3"):
        rules["r3"], c["matching.r3.matches"] = tr.force(rule3(g, matched, CFG.theta))
    with tr.span("matching.r4"):
        union, before = tr.force(match_graph(g, CFG.theta, use_r4=False))
        rules["r4"], c["matching.r4.matches"] = tr.force(rule4(union, g))
    c["matching.r4.removed"] = before - c["matching.r4.matches"]
    with tr.span("evaluation"):
        prf = evaluate(rules["r4"], f.gt)
    return rules, prf


def resolve_traced(
    w: Workload, f: Inputs, tr: Tracer
) -> tuple[Outcome, BlockingGraph, dict[str, DataFrame]]:
    """``resolve``, split into spans; also returns the graph and per-rule sets."""
    extra = ""
    if w.table2:
        with tr.span("blocking.stats"):
            extra = _block_stats(f)
    graph = _graph(f, tr)
    rules, prf = _match(graph, f, tr)
    return Outcome(prf, rules["r4"], extra), graph, rules
