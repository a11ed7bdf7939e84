"""Deterministic synthetic KB-pair generator with ground truth.

This is the data substrate for the reproduction (DESIGN.md section 4): the
paper evaluates on four real Web KB pairs that are unavailable offline, so
we generate pairs of RDF-like KBs whose *matching-relevant* properties are
controlled by a :class:`repro.kbgen.profiles.Profile`:

* a **universe** of real-world entities; KB1 and KB2 each describe an
  overlapping subset (the overlap is the ground truth);
* per-entity **specific tokens** (unique to a universe entity by
  construction, so they never collide between different entities),
  included in each KB at a profile-controlled rate — this drives valueSim
  between matches (x-axis of the paper's Figure 2);
* a **name** per entity: Zipf-distributed "first name" tokens plus a
  unique "surname" token; the whole name string is shared by a match at
  a profile-controlled rate (drives R1). Surname tokens *leak* into the
  descriptions of graph neighbors at a profile-controlled rate, raising
  their Entity Frequency the way real KBs mention related entities;
* **mid-frequency tokens** from a shared vocabulary — candidate clutter
  that keeps blocking recall near 100% without making matching trivial;
* **Zipf noise tokens** shared by both KBs — frequent cross-KB stop-word
  blocks that Block Purging must remove;
* whole-KB schema knobs (attribute/relation/type/vocabulary counts, a
  decoy top attribute) that reproduce the high-Variety behaviour of
  BBCmusic-DBpedia;
* a universe **relation graph** whose edges materialize in each KB at a
  controlled rate with structurally aligned labels — this drives
  neighborNSim — plus a high-support/low-discriminability *hub* relation.

Triple schema (one DataFrame per KB)::

    eid: long        -- subject entity id (universe id)
    attr: string     -- attribute or relation name
    val: string      -- literal value (NULL for relation triples)
    obj: long        -- neighbor entity id (NULL for literal triples)

All randomness flows from a single ``numpy`` Generator seeded by
``seed``, so the same (profile, seed) always yields byte-identical KBs —
the DuckDB oracle and Spark see the same input.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import pandas as pd
from pyspark.sql import DataFrame, SparkSession
from pyspark.sql import types as T

from .profiles import Profile

N_TOPIC = 3
"""Universe-level "topic" tokens per entity, drawn from the mid vocabulary
(a restaurant sits in the same city in both KBs). They guarantee
near-total blocking recall — real matches always share *some* token —
while their EF keeps their valueSim weight too small to matter for
matching."""
P_TOPIC = 0.85
"""Probability that each topic token is included in an entity's description."""
TOKENS_PER_VALUE = 3
"""Description tokens per literal value (a value is a short phrase)."""

TRIPLE_SCHEMA = T.StructType(
    [
        T.StructField("eid", T.LongType(), False),
        T.StructField("attr", T.StringType(), False),
        T.StructField("val", T.StringType(), True),
        T.StructField("obj", T.LongType(), True),
    ]
)

GT_SCHEMA = T.StructType(
    [
        T.StructField("eid1", T.LongType(), False),
        T.StructField("eid2", T.LongType(), False),
    ]
)


@dataclass
class KBPair:
    """A generated clean-clean ER task: two KBs plus ground truth."""

    profile: Profile
    seed: int
    triples1: DataFrame
    triples2: DataFrame
    gt: DataFrame
    pdf1: pd.DataFrame
    pdf2: pd.DataFrame
    gt_pdf: pd.DataFrame


def _zipf_probs(vocab: int, a: float) -> np.ndarray:
    w = 1.0 / np.arange(1, vocab + 1) ** a
    return w / w.sum()


def _name_attr(kb: int, p: Profile) -> str:
    if p.shared_attr_names:
        return "v0:label"
    return "v0:label" if kb == 1 else "w0:name"


def _type_attr(kb: int, p: Profile) -> str:
    if p.shared_attr_names:
        return "v0:type"
    return "v0:type" if kb == 1 else "w0:type"


def _desc_attrs(kb: int, p: Profile) -> list[str]:
    n = p.n_attrs1 if kb == 1 else p.n_attrs2
    nv = max(1, p.n_vocab1 if kb == 1 else p.n_vocab2)
    if p.shared_attr_names:
        return [f"v{j % nv}:attr{j}" for j in range(n)]
    pre = "v" if kb == 1 else "w"
    return [f"{pre}{j % nv}:a{kb}_{j}" for j in range(n)]


def _rel_names(kb: int, p: Profile) -> list[str]:
    n = p.n_graph_rels1 if kb == 1 else p.n_graph_rels2
    nv = max(1, p.n_vocab1 if kb == 1 else p.n_vocab2)
    if p.shared_attr_names:
        return [f"v{r % nv}:rel{r}" for r in range(n)]
    pre = "v" if kb == 1 else "w"
    return [f"{pre}{r % nv}:r{kb}_{r}" for r in range(n)]


def _hub_rel_name(kb: int, p: Profile) -> str:
    if p.shared_attr_names:
        return "v0:inArea"
    return "v0:inArea" if kb == 1 else "w0:locatedIn"


def generate_pandas(
    p: Profile, seed: int
) -> tuple[pd.DataFrame, pd.DataFrame, pd.DataFrame]:
    """Generate (triples1, triples2, ground_truth) as pandas DataFrames."""
    rng = np.random.default_rng(seed)
    m, u = p.n_matches, p.n_matches + p.n_only1 + p.n_only2
    kb_ids = {
        1: np.arange(0, m + p.n_only1, dtype=np.int64),
        2: np.concatenate(
            [np.arange(m), np.arange(m + p.n_only1, u)]
        ).astype(np.int64),
    }

    # ---- universe-level structures (shared by both KBs) -------------------
    # Names: Zipf "first name" tokens plus (with unique_surname) one
    # surname token unique to the entity. With a unique surname, chance
    # full-string collisions are impossible and R1's behaviour is
    # controlled purely by p_name_shared; without one (YAGO-IMDb style)
    # names collide naturally in the Zipf head, so R1 loses both recall
    # (non-unique blocks) and a little precision (two different entities
    # uniquely sharing "john smith").
    first_p = _zipf_probs(p.name_vocab, 1.0)
    n_first = max(1, p.name_len - 1) if p.unique_surname else p.name_len
    first_idx = rng.choice(p.name_vocab, size=(u, n_first), p=first_p)
    name_alt = rng.choice(p.name_vocab, size=u, p=first_p)
    # "hard" entities (the low-valueSim population of Fig. 2) share far
    # fewer specific tokens across the KBs.
    is_hard = rng.random(u) < p.p_hard
    # topic tokens: universe-level mid-vocabulary tokens (same city /
    # genre in both KBs) — they keep blocking recall near 100% even for
    # hard matches, at negligible valueSim weight.
    topic_idx = rng.integers(0, p.mid_vocab, size=(u, N_TOPIC))
    # universe relation graph: `degree` out-edges per entity, labelled with
    # a universe relation index so KB1/KB2 edges are structurally aligned.
    max_rels = max(p.n_graph_rels1, p.n_graph_rels2)
    edge_src = np.repeat(np.arange(u), p.degree)
    edge_dst = rng.integers(0, u, size=u * p.degree)
    keep = edge_src != edge_dst
    edge_src, edge_dst = edge_src[keep], edge_dst[keep]
    edge_rel = rng.integers(0, max_rels, size=edge_src.size)
    # Hub targets are the first n_hubs universe entities (not only matched
    # ones): with n_hubs > n_matches some hubs exist in one KB only, as
    # real reference entities do. A hub edge is emitted only when its
    # target is in the KB, which also bounds per-hub in-neighbor counts.
    hub_of = rng.integers(0, min(p.n_hubs, u), size=u)

    # KB2 name perturbation decision per matched entity: a perturbed name
    # swaps the surname (or last common token) for a different one.
    kb2_name_shared = rng.random(u) < p.p_name_shared

    frames = {}
    for kb in (1, 2):
        ids = kb_ids[kb]
        in_kb = np.zeros(u, dtype=bool)
        in_kb[ids] = True
        p_spec = p.p_spec1 if kb == 1 else p.p_spec2
        lam_mid = p.n_mid1 if kb == 1 else p.n_mid2
        lam_noise = p.noise1 if kb == 1 else p.noise2
        p_leak = p.p_leak1 if kb == 1 else p.p_leak2
        n_types = p.n_types1 if kb == 1 else p.n_types2
        desc_attrs = _desc_attrs(kb, p)
        rels = _rel_names(kb, p)
        p_edge = p.p_edge1 if kb == 1 else p.p_edge2

        eids: list[int] = []
        attrs: list[str] = []
        vals: list[str | None] = []
        objs: list[object] = []

        def emit_lit(e: int, a: str, v: str) -> None:
            eids.append(e)
            attrs.append(a)
            vals.append(v)
            objs.append(None)

        def emit_rel(e: int, a: str, o: int) -> None:
            eids.append(e)
            attrs.append(a)
            vals.append(None)
            objs.append(o)

        # --- graph relations first (leakage needs them) --------------------
        e_keep = (
            in_kb[edge_src]
            & in_kb[edge_dst]
            & (rng.random(edge_src.size) < p_edge)
        )
        kept_src = edge_src[e_keep]
        kept_dst = edge_dst[e_keep]
        kept_rel = edge_rel[e_keep]
        for s, d, r in zip(kept_src, kept_dst, kept_rel):
            emit_rel(int(s), rels[int(r) % len(rels)], int(d))

        hub_keep = rng.random(u) < 0.95
        for e in ids:
            h = int(hub_of[e])
            if hub_keep[e] and in_kb[h] and h != e:
                emit_rel(int(e), _hub_rel_name(kb, p), h)

        # surname leakage: an edge u -> v mentions v's surname in u's
        # description with prob p_leak (real KBs cite related entities).
        # Without unique surnames there is nothing distinctive to leak.
        leaked: dict[int, list[str]] = {}
        if p.unique_surname:
            leak_mask = rng.random(kept_src.size) < p_leak
            for s, d in zip(kept_src[leak_mask], kept_dst[leak_mask]):
                leaked.setdefault(int(s), []).append(f"n{d}s")

        # --- names ---------------------------------------------------------
        name_cov = rng.random(u)
        for e in ids:
            toks = [f"f{i}" for i in first_idx[e]]
            if p.unique_surname:
                surname = f"n{e}s"
                if kb == 2 and not kb2_name_shared[e]:
                    surname = f"n{e}p"
                toks.append(surname)
            elif kb == 2 and not kb2_name_shared[e]:
                toks[-1] = f"f{name_alt[e]}"  # perturbed common-token name
            name_val = " ".join(toks)
            if kb == 2 and p.name_format2 == "caps":
                name_val = name_val.upper()
            if kb == 2 and p.decoy2 and name_cov[e] < 0.03:
                pass  # no name triple: keeps name-attr support below decoy's
            else:
                emit_lit(int(e), _name_attr(kb, p), name_val)
            if kb == 2 and p.decoy2:
                emit_lit(int(e), "w0:id", f"id{e}q{seed}")

        # --- types ---------------------------------------------------------
        type_of = rng.integers(0, n_types, size=u)
        for e in ids:
            emit_lit(int(e), _type_attr(kb, p), f"ty{kb}x{type_of[e]}")

        # --- description values (specific + mid + noise + leaked) -----------
        spec_rate = np.where(is_hard, p_spec * p.hard_factor, p_spec)
        incl = rng.random((u, p.n_spec)) < spec_rate[:, None]
        incl_topic = rng.random((u, N_TOPIC)) < P_TOPIC
        n_mid = np.maximum(1, rng.poisson(lam_mid, size=u))
        mid_flat = rng.integers(0, p.mid_vocab, size=int(n_mid[ids].sum()))
        zipf_p = _zipf_probs(p.noise_vocab, p.zipf_a)
        n_noise = np.maximum(1, rng.poisson(lam_noise, size=u))
        noise_flat = rng.choice(
            p.noise_vocab, size=int(n_noise[ids].sum()), p=zipf_p
        )
        attr_pick = rng.integers(0, len(desc_attrs), size=u * 64)
        ap = 0
        noff = 0
        moff = 0
        for e in ids:
            toks = [f"u{e}k{j}" for j in range(p.n_spec) if incl[e, j]]
            toks += [
                f"m{topic_idx[e, j]}"
                for j in range(N_TOPIC)
                if incl_topic[e, j]
            ]
            km = int(n_mid[e])
            toks += [f"m{t}" for t in mid_flat[moff : moff + km]]
            moff += km
            kn = int(n_noise[e])
            toks += [f"z{t}" for t in noise_flat[noff : noff + kn]]
            noff += kn
            toks += leaked.get(int(e), [])
            rng.shuffle(toks)
            chunks = [
                toks[c : c + TOKENS_PER_VALUE]
                for c in range(0, len(toks), TOKENS_PER_VALUE)
            ]
            # Real description values are phrases: merge a trailing
            # singleton into the previous chunk so no value is one
            # stop-word (a 1-token value like "z2" would coincide across
            # KBs and fabricate a unique shared "name" for R1).
            if len(chunks) >= 2 and len(chunks[-1]) == 1:
                chunks[-2].extend(chunks.pop())
            for chunk in chunks:
                if ap >= attr_pick.size:
                    attr_pick = rng.integers(0, len(desc_attrs), size=u * 64)
                    ap = 0
                emit_lit(int(e), desc_attrs[attr_pick[ap]], " ".join(chunk))
                ap += 1

        frames[kb] = pd.DataFrame(
            {
                "eid": np.asarray(eids, dtype=np.int64),
                "attr": attrs,
                "val": vals,
                "obj": pd.array(objs, dtype="Int64"),
            }
        )

    gt = pd.DataFrame(
        {
            "eid1": np.arange(m, dtype=np.int64),
            "eid2": np.arange(m, dtype=np.int64),
        }
    )
    return frames[1], frames[2], gt


def to_spark(spark: SparkSession, pdf: pd.DataFrame) -> DataFrame:
    """Convert a pandas triple frame to Spark with the canonical schema."""
    recs = pdf.copy()
    recs["obj"] = recs["obj"].astype(object).where(recs["obj"].notna(), None)
    return spark.createDataFrame(recs, schema=TRIPLE_SCHEMA)


def generate_kb_pair(spark: SparkSession, p: Profile, seed: int) -> KBPair:
    """Generate the full ER task as Spark DataFrames (plus pandas copies)."""
    pdf1, pdf2, gt_pdf = generate_pandas(p, seed)
    return KBPair(
        profile=p,
        seed=seed,
        triples1=to_spark(spark, pdf1),
        triples2=to_spark(spark, pdf2),
        gt=spark.createDataFrame(gt_pdf, schema=GT_SCHEMA),
        pdf1=pdf1,
        pdf2=pdf2,
        gt_pdf=gt_pdf,
    )
