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

The name and token evidence comes from one ``blocking.Blocking`` that
``build_graph`` builds with ``composite_blocking``: alpha from its names,
beta (``blocking.beta_scores``) from its tokens and kept blocks.

``build_graph`` materialises these five frames once, as eager local
checkpoints: each is a single-leaf plan, so Algorithm 2 plans over the
pruned graph instead of re-embedding Algorithm 1's lineage in every rule.
The frames cached on the way (beta, gamma, and the blocking's tokens) are
its own and are unpersisted before it returns; the checkpoints live as
long as the returned ``BlockingGraph`` is referenced.
"""
from __future__ import annotations

from dataclasses import dataclass

from pyspark.sql import DataFrame, Window
from pyspark.sql import functions as F

from .blocking import beta_scores, composite_blocking
from .config import MinoanerConfig
from .names import alpha_edges, entity_names, top_k_name_attrs
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


def build_graph(
    triples1: DataFrame,
    triples2: DataFrame,
    cfg: MinoanerConfig,
) -> BlockingGraph:
    """Run Algorithm 1 end to end as DataFrame jobs.

    Name blocking, token blocking and top-neighbor extraction are
    independent jobs (the parallel branches of the paper's Fig. 4);
    gamma is derived from the pruned beta edges and the in-neighbor
    index, then pruned per node. The returned edge frames are eager local
    checkpoints (see the module docstring).
    """
    n1 = triples1.select("eid").distinct().count()
    n2 = triples2.select("eid").distinct().count()

    # --- composite blocking: name blocks + purged token blocks -------------
    name_attrs1 = top_k_name_attrs(triples1, cfg.k, n1)
    name_attrs2 = top_k_name_attrs(triples2, cfg.k, n2)
    blocking = composite_blocking(
        triples1,
        triples2,
        entity_names(triples1, name_attrs1),
        entity_names(triples2, name_attrs2),
        cfg.purge_max_comparisons,
    )

    # --- name evidence ----------------------------------------------------
    alpha = alpha_edges(blocking.names1, blocking.names2).localCheckpoint()

    # --- value evidence ---------------------------------------------------
    beta = beta_scores(blocking.tokens1, blocking.tokens2, blocking.kept).cache()
    beta_out1 = top_k_directed(beta, "eid1", "eid2", "beta", cfg.K).localCheckpoint()
    beta_out2 = top_k_directed(beta, "eid2", "eid1", "beta", cfg.K).localCheckpoint()

    # --- neighbor evidence ------------------------------------------------
    imp1 = relation_importance(triples1, n1)
    imp2 = relation_importance(triples2, n2)
    topin1 = top_in_neighbors(top_n_neighbors(triples1, cfg.N, imp1))
    topin2 = top_in_neighbors(top_n_neighbors(triples2, cfg.N, imp2))
    retained_beta = (
        beta_out1.select("eid1", "eid2", "beta")
        .union(beta_out2.select("eid1", "eid2", "beta"))
        .distinct()
    )
    gamma = gamma_scores(retained_beta, topin1, topin2).cache()
    gamma_out1 = top_k_directed(gamma, "eid1", "eid2", "gamma", cfg.K).localCheckpoint()
    gamma_out2 = top_k_directed(gamma, "eid2", "eid1", "gamma", cfg.K).localCheckpoint()

    # The five edge frames are materialised leaves; nothing reads these again.
    beta.unpersist()
    gamma.unpersist()
    blocking.unpersist()

    return BlockingGraph(
        alpha=alpha,
        beta_out1=beta_out1,
        beta_out2=beta_out2,
        gamma_out1=gamma_out1,
        gamma_out2=gamma_out2,
        n1=n1,
        n2=n2,
        name_attrs1=name_attrs1,
        name_attrs2=name_attrs2,
        purge_threshold=blocking.purge_threshold,
    )
