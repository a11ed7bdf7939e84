"""The non-iterative matching process (Section 4, Algorithm 2).

Four schema-agnostic rules traverse the pruned disjunctive blocking
graph; each is a single DataFrame pass (no data-driven iteration):

* R1 name rule      — match pairs alone in a name block (alpha = 1).
* R2 value rule     — per entity of the *smaller* KB, match its top-beta
                      candidate if beta >= 1.
* R3 rank aggregation — per node, aggregate the normalized descending
                      ranks of its beta and gamma candidate lists with
                      weights theta / (1 - theta); match the top aggregate
                      candidate.
* R4 reciprocity    — keep a match only if an edge leaves each side.

``M(e_i,e_j) = (R1 v R2 v R3) ^ R4`` (Definition 4.1). Each rule is
computed alone (``rules_alone``). Alg. 2 runs them in order, each skipping
the entities matched before it; that exclusion drops whole per-node
candidate lists, and every pick is ranked within one node's list, so a
rule with exclusion is the rule alone minus the pairs whose entity is
already matched (``_skip_matched``). ``precedence`` applies that order
once, and ``r4_verdict`` adds R4's verdict as a column instead of
dropping rows, so one frame ``(eid1, eid2, rule, r4)`` holds every Table 4
variant but R2 and R3 alone (``pipeline.MinoanerRun``, ``tables.table4``).
"""
from __future__ import annotations

from pyspark.sql import DataFrame, Window
from pyspark.sql import functions as F

from .config import DEFAULT_CONFIG
from .graph import BlockingGraph, top_k_directed

_PAIR = ["eid1", "eid2"]


def _skip_matched(df: DataFrame, matched: DataFrame | None, cols: list[str]) -> DataFrame:
    """Drop the rows of ``df`` whose entity in any of ``cols`` appears in that
    column of ``matched``: Alg. 2's "skip the entities matched before"."""
    if matched is None:
        return df
    out = df
    for col in cols:
        out = out.join(matched.select(col), col, "left_anti")
    return out.select(*df.columns)  # a join on a column name moves it first


def _smaller_side(g: BlockingGraph) -> str:
    """The column of the smaller KB's entities, the ones R2 iterates."""
    return "eid1" if g.n1 <= g.n2 else "eid2"


def rule1(g: BlockingGraph) -> DataFrame:
    """R1: every alpha=1 edge is a match (Alg. 2 lines 2-4)."""
    return g.alpha.select(*_PAIR).withColumn("rule", F.lit("R1"))


def rule2(g: BlockingGraph, matched: DataFrame | None = None) -> DataFrame:
    """R2: top-beta candidate of each smaller-KB entity not in ``matched``,
    if beta >= 1.

    Alg. 2 lines 5-9: iterate the smaller KB for efficiency; the
    candidate is the adjacent node with maximum beta (rank 1 of the
    node's pruned beta list).
    """
    side = _smaller_side(g)
    beta_out = g.beta_out1 if side == "eid1" else g.beta_out2
    alone = (
        beta_out.filter((F.col("rank") == 1) & (F.col("beta") >= 1.0))
        .select(*_PAIR)
        .withColumn("rule", F.lit("R2"))
    )
    return _skip_matched(alone, matched, [side])


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

    Every node of E1 and of E2 computes its best aggregate candidate, and
    a pair is a match only when *both* endpoints pick each other — the
    paper's "two entities match only if both of them agree"
    rationale, and the reading required for consistency with its Table 4
    (R3's precision ~= recall on KBs where most entities are unmatched is
    impossible if every unmatched node emitted its one-sided top pick, as
    a literal reading of Alg. 2 would; MinoanER also states it employs
    Unique Mapping Clustering, which mutual top-picks implement
    non-iteratively). A node's pick is its top-1 aggregate candidate by
    ``graph.top_k_directed``, ties broken on candidate id. Mutual pairs
    with ``eid1`` or ``eid2`` in ``matched`` are dropped last: a matched
    node's lists change no other node's pick.
    """

    def one_direction(beta_out: DataFrame, gamma_out: DataFrame, node: str) -> DataFrame:
        scored = (
            _rank_scores(beta_out, node, theta)
            .unionByName(_rank_scores(gamma_out, node, 1.0 - theta))
            .groupBy(*_PAIR)
            .agg(F.sum("score").alias("agg"), F.count("*").alias("_lists"))
        )
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
    alone = d1.join(d2, _PAIR).withColumn("rule", F.lit("R3"))
    return _skip_matched(alone, matched, _PAIR)


def r4_verdict(matches: DataFrame, g: BlockingGraph) -> DataFrame:
    """``matches`` plus R4's verdict, a boolean ``r4``: an edge of ``g``
    leaves each side of the pair (``directed_from1`` and ``directed_from2``;
    Alg. 2 lines 24-26)."""
    from1 = g.directed_from1().withColumn("_from1", F.lit(True))
    from2 = g.directed_from2().withColumn("_from2", F.lit(True))
    return (
        matches.join(from1, _PAIR, "left")
        .join(from2, _PAIR, "left")
        .withColumn("r4", F.col("_from1").isNotNull() & F.col("_from2").isNotNull())
        .drop("_from1", "_from2")
    )


def rule4(matches: DataFrame, g: BlockingGraph) -> DataFrame:
    """R4: keep only reciprocally connected matches (Alg. 2 lines 24-26)."""
    return r4_verdict(matches, g).filter(F.col("r4")).drop("r4")


def rules_alone(g: BlockingGraph, theta: float) -> tuple[DataFrame, DataFrame, DataFrame]:
    """R1, R2 and R3, each alone over ``g``: ``(eid1, eid2, rule)`` frames.

    R1 and R2 are projections of one graph leaf each (alpha, and the
    smaller KB's beta list). R3, with its windows and joins, is an eager
    local checkpoint, so what reads it plans over a leaf too.
    """
    return rule1(g), rule2(g), rule3(g, theta=theta).localCheckpoint()


def precedence(g: BlockingGraph, r1: DataFrame, r2: DataFrame, r3: DataFrame) -> DataFrame:
    """Alg. 2's order over the rules alone: R1, then R2 skipping R1's
    entities, then R3 skipping those of R1 and R2. Returns their union,
    ``(eid1, eid2, rule)``; no pair comes from two rules, none twice."""
    matched = r1.select(*_PAIR)
    r2 = _skip_matched(r2, matched, [_smaller_side(g)])
    r3 = _skip_matched(r3, matched.union(r2.select(*_PAIR)), _PAIR)
    return r1.unionByName(r2).unionByName(r3)


def match_graph(
    g: BlockingGraph, theta: float = DEFAULT_CONFIG.theta, use_r4: bool = True
) -> DataFrame:
    """Algorithm 2 end to end: ``(R1 v R2 v R3) ^ R4``, or without R4.

    Returns ``(eid1, eid2, rule)``: the rules alone (``rules_alone``) in
    Alg. 2's ``precedence``, then R4's filter unless ``use_r4=False``.
    """
    matches = precedence(g, *rules_alone(g, theta))
    return rule4(matches, g) if use_r4 else matches
