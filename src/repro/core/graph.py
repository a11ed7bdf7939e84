"""Disjunctive blocking graph construction (Section 3.2-3.3, Algorithm 1).

As in the paper, the graph is not an adjacency structure but a set of
per-evidence DataFrames:

* ``alpha``      — pairs alone in a name block (alpha = 1);
* ``beta_out1``  — per KB1 entity, its K highest-valueSim candidates
  (directed edges KB1 -> KB2), and ``beta_out2`` the reverse direction;
* ``gamma_out1`` / ``gamma_out2`` — the K highest-neighborNSim
  candidates per node, built by pushing every retained beta edge to the
  cross product of the endpoints' top *in*-neighbors (Alg. 1 l.21-27).

Ranks are dense within each node's list (1 = best), with deterministic
ties (weight desc, candidate id asc).

``build_graph`` builds Algorithm 1 from the KB pair's one
``blocking.Blocking``, which holds |E|, the name attributes and names, and
beta, each computed once per pair. Each level's independent Spark actions
are submitted together from driver threads (``parallel.concurrently``), so
one branch's planning and code generation overlap another's tasks.
``composite_blocking`` has counted ``n1 ‖ n2``; ``build_graph`` runs:

1. Three branches (the parallel branches of the paper's Fig. 4): *names*
   checkpoints alpha from the blocking's names; *value* checkpoints both
   top-K directions of the blocking's beta; *neighbours* caches and
   counts both KBs' top in-neighbours. The blocking builds its name
   attributes (``attrs1 ‖ attrs2``), tokens and beta when first read, so
   unless a caller read them before, they are discovered and planned in
   the names and value branches.
2. gamma, cached, from the retained beta edges and the in-neighbours;
   both of its top-K directions are checkpointed at once.

The five returned frames are eager local checkpoints: single-leaf plans,
so Algorithm 2 plans over the pruned graph instead of re-embedding
Algorithm 1's lineage in every rule. ``build_graph`` caches only what it
creates (the in-neighbours and gamma) and unpersists it before it
returns, on the error path too; the blocking's caches are its owner's.
"""
from __future__ import annotations

from dataclasses import dataclass

from pyspark.sql import DataFrame, Window
from pyspark.sql import functions as F

from .blocking import Blocking, beta_scores  # noqa: F401  (beta_scores is importable from here)
from .config import MinoanerConfig
from .names import alpha_edges
from .parallel import concurrently
from .relations import relation_importance, top_in_neighbors, top_n_neighbors


def top_k_directed(
    scores: DataFrame, node_col: str, cand_col: str, weight_col: str, k: int
) -> DataFrame:
    """Keep each node's K best candidates by ``weight_col`` (rank added).

    Rank 1 is the best candidate; ties break on candidate id ascending
    so results are deterministic across runs and partitionings.
    """
    w = Window.partitionBy(node_col).orderBy(
        F.desc(weight_col), F.asc(cand_col)
    )
    return (
        scores.withColumn("rank", F.row_number().over(w))
        .filter(F.col("rank") <= k)
    )


def gamma_scores(
    beta_edges: DataFrame, topin1: DataFrame, topin2: DataFrame
) -> DataFrame:
    """``(eid1, eid2, gamma)`` — neighborNSim via in-neighbor propagation.

    For every retained beta edge (e_i, e_j), each pair of their top
    in-neighbors (in_i, in_j) accumulates that beta (Alg. 1 l.21-27);
    after aggregation, ``gamma[in_i, in_j] = neighborNSim(in_i, in_j)``
    restricted to the beta edges that survived pruning, exactly as the
    paper's Spark implementation reuses the computed betas.
    """
    e = beta_edges.select("eid1", "eid2", "beta")
    return (
        e.join(topin1.withColumnRenamed("in_neighbor", "g1"), topin1.eid == e.eid1)
        .drop("eid")
        .join(topin2.withColumnRenamed("in_neighbor", "g2"), topin2.eid == e.eid2)
        .drop("eid")
        .groupBy(F.col("g1").alias("eid1"), F.col("g2").alias("eid2"))
        .agg(F.sum("beta").alias("gamma"))
    )


@dataclass
class BlockingGraph:
    """The pruned, directed disjunctive blocking graph plus provenance."""

    alpha: DataFrame        # (eid1, eid2)
    beta_out1: DataFrame    # (eid1, eid2, beta, rank) — K best per eid1
    beta_out2: DataFrame    # (eid1, eid2, beta, rank) — K best per eid2
    gamma_out1: DataFrame   # (eid1, eid2, gamma, rank)
    gamma_out2: DataFrame   # (eid1, eid2, gamma, rank)
    n1: int                 # |E1|
    n2: int                 # |E2|
    name_attrs1: list[str]
    name_attrs2: list[str]
    purge_threshold: int

    def directed_from1(self) -> DataFrame:
        """Pairs with an edge *from* the KB1 node (alpha | beta | gamma)."""
        return (
            self.alpha.select("eid1", "eid2")
            .union(self.beta_out1.select("eid1", "eid2"))
            .union(self.gamma_out1.select("eid1", "eid2"))
            .distinct()
        )

    def directed_from2(self) -> DataFrame:
        """Pairs with an edge *from* the KB2 node."""
        return (
            self.alpha.select("eid1", "eid2")
            .union(self.beta_out2.select("eid1", "eid2"))
            .union(self.gamma_out2.select("eid1", "eid2"))
            .distinct()
        )


def _top_k_leaves(scores: DataFrame, weight_col: str, k: int) -> list[DataFrame]:
    """Both directions' top-K lists of ``scores``, checkpointed concurrently."""
    return concurrently(
        scores.sparkSession,
        lambda: top_k_directed(scores, "eid1", "eid2", weight_col, k).localCheckpoint(),
        lambda: top_k_directed(scores, "eid2", "eid1", weight_col, k).localCheckpoint(),
    )


def build_graph(
    triples1: DataFrame,
    triples2: DataFrame,
    blocking: Blocking,
    cfg: MinoanerConfig,
) -> BlockingGraph:
    """Run Algorithm 1 over ``blocking``, the KB pair's composite blocking
    (the triples give the relations), in the two levels of the module
    docstring: alpha ‖ ``beta_out1 ‖ beta_out2`` ‖ top in-neighbours, then
    gamma and ``gamma_out1 ‖ gamma_out2`` (``‖``: jobs submitted together).
    """
    session = triples1.sparkSession
    cached: list[DataFrame] = []  # appended to from the branch threads; append is atomic

    def keep(df: DataFrame) -> DataFrame:
        """Cache ``df`` until ``build_graph`` returns."""
        cached.append(df)
        return df.cache()

    def neighbours():
        topin1, topin2 = (
            keep(top_in_neighbors(top_n_neighbors(t, cfg.N, relation_importance(t, n))))
            for t, n in ((triples1, blocking.n1), (triples2, blocking.n2))
        )
        concurrently(session, topin1.count, topin2.count)
        return topin1, topin2

    try:
        alpha, (beta_out1, beta_out2), (topin1, topin2) = concurrently(
            session,
            lambda: alpha_edges(*blocking.names).localCheckpoint(),
            lambda: _top_k_leaves(blocking.beta, "beta", cfg.K),
            neighbours,
        )
        retained_beta = (
            beta_out1.select("eid1", "eid2", "beta")
            .union(beta_out2.select("eid1", "eid2", "beta"))
            .distinct()
        )
        gamma = keep(gamma_scores(retained_beta, topin1, topin2))
        gamma_out1, gamma_out2 = _top_k_leaves(gamma, "gamma", cfg.K)
    finally:
        # The edge frames are checkpointed leaves; nothing reads the caches again.
        for df in cached:
            df.unpersist()

    return BlockingGraph(
        alpha=alpha,
        beta_out1=beta_out1,
        beta_out2=beta_out2,
        gamma_out1=gamma_out1,
        gamma_out2=gamma_out2,
        n1=blocking.n1,
        n2=blocking.n2,
        name_attrs1=blocking.name_attrs[0],
        name_attrs2=blocking.name_attrs[1],
        purge_threshold=blocking.purge_threshold,
    )
