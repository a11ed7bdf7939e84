"""Tests for the synthetic KB-pair generator and profiles."""
from __future__ import annotations

import numpy as np
import pandas as pd
import pytest

from repro.kbgen import MICRO, PROFILES, generate_pandas
from repro.kbgen.profiles import Profile, expected_shared_specific, scaled
from repro.kbgen.profiles import test_scale as scale_for_tests

SMALL = {name: scaled(p, 0.08) for name, p in PROFILES.items()}


@pytest.fixture(scope="module", params=list(SMALL))
def small_pair(request):
    return request.param, generate_pandas(SMALL[request.param], seed=7)


class TestDeterminism:
    def test_same_seed_identical(self):
        a1, a2, ag = generate_pandas(MICRO, seed=3)
        b1, b2, bg = generate_pandas(MICRO, seed=3)
        pd.testing.assert_frame_equal(a1, b1)
        pd.testing.assert_frame_equal(a2, b2)
        pd.testing.assert_frame_equal(ag, bg)

    def test_different_seed_differs(self):
        a1, _, _ = generate_pandas(MICRO, seed=3)
        b1, _, _ = generate_pandas(MICRO, seed=4)
        assert not a1.equals(b1)


class TestShapes:
    def test_schema(self, small_pair):
        _, (p1, p2, gt) = small_pair
        assert list(p1.columns) == ["eid", "attr", "val", "obj"]
        assert list(gt.columns) == ["eid1", "eid2"]

    def test_entity_counts(self, small_pair):
        name, (p1, p2, gt) = small_pair
        prof = SMALL[name]
        assert p1.eid.nunique() == prof.n1
        assert p2.eid.nunique() == prof.n2
        assert len(gt) == prof.n_matches

    def test_gt_is_identity_prefix(self, small_pair):
        _, (_, _, gt) = small_pair
        assert (gt.eid1 == gt.eid2).all()
        assert gt.eid1.is_monotonic_increasing

    def test_disjoint_entity_id_ranges_beyond_matches(self, small_pair):
        name, (p1, p2, gt) = small_pair
        prof = SMALL[name]
        only1 = set(p1.eid.unique()) - set(range(prof.n_matches))
        only2 = set(p2.eid.unique()) - set(range(prof.n_matches))
        assert not (only1 & only2)

    def test_literal_xor_relation(self, small_pair):
        _, (p1, p2, _) = small_pair
        for pdf in (p1, p2):
            assert not ((pdf.val.notna()) & (pdf.obj.notna())).any()
            assert ((pdf.val.notna()) | (pdf.obj.notna())).all()

    def test_relations_point_within_kb(self, small_pair):
        _, (p1, p2, _) = small_pair
        for pdf in (p1, p2):
            ents = set(pdf.eid.unique())
            objs = set(pdf.obj.dropna().astype(int))
            assert objs <= ents


class TestTokenClasses:
    def test_specific_tokens_present(self, small_pair):
        _, (p1, _, _) = small_pair
        vals = " ".join(p1.val.dropna())
        assert " u" in f" {vals}" or vals.startswith("u")

    def test_specific_tokens_entity_scoped(self, small_pair):
        """A specific token u<e>k<j> only ever appears for universe entity e
        (directly) or leaked via a neighbor — never fabricated for others."""
        _, (p1, _, _) = small_pair
        lits = p1[p1.val.notna()]
        for e, v in zip(lits.eid, lits.val):
            for tok in str(v).split():
                if tok.startswith("u") and "k" in tok:
                    owner = int(tok[1:].split("k")[0])
                    assert owner == e  # specific tokens don't leak (surnames do)

    def test_match_shares_specific_tokens_at_expected_rate(self, small_pair):
        name, (p1, p2, gt) = small_pair
        prof = SMALL[name]
        t1 = p1[p1.val.notna()].groupby("eid").val.apply(
            lambda s: set(" ".join(s).split())
        )
        t2 = p2[p2.val.notna()].groupby("eid").val.apply(
            lambda s: set(" ".join(s).split())
        )
        shared = []
        for e in gt.eid1:
            s = {
                t
                for t in t1.get(e, set()) & t2.get(e, set())
                if t.startswith("u")
            }
            shared.append(len(s))
        want = expected_shared_specific(prof)
        got = float(np.mean(shared))
        assert got == pytest.approx(want, rel=0.5)

    def test_noise_tokens_shared_vocab(self, small_pair):
        _, (p1, p2, _) = small_pair
        z1 = {t for v in p1.val.dropna() for t in v.split() if t.startswith("z")}
        z2 = {t for v in p2.val.dropna() for t in v.split() if t.startswith("z")}
        assert z1 & z2  # stop-word vocabulary is cross-KB


class TestNames:
    def _names(self, pdf, attr):
        return pdf[(pdf.attr == attr) & pdf.val.notna()].set_index("eid").val

    def test_name_share_rate(self, small_pair):
        name, (p1, p2, gt) = small_pair
        prof = SMALL[name]
        a1 = "v0:label"
        a2 = "v0:label" if prof.shared_attr_names else "w0:name"
        n1 = self._names(p1, a1)
        n2 = self._names(p2, a2)
        same = [
            str(n1.get(e, "")).lower() == str(n2.get(e, "")).lower()
            for e in gt.eid1
        ]
        assert np.mean(same) == pytest.approx(prof.p_name_shared, abs=0.2)

    def test_caps_format(self):
        prof = SMALL["bbc_dbpedia"]
        _, p2, _ = generate_pandas(prof, seed=7)
        names = p2[p2.attr == "w0:name"].val
        assert (names.str.upper() == names).all()

    def test_decoy_attr_unique_full_support(self):
        prof = SMALL["bbc_dbpedia"]
        _, p2, _ = generate_pandas(prof, seed=7)
        ids = p2[p2.attr == "w0:id"]
        assert ids.eid.nunique() == prof.n2
        assert ids.val.nunique() == len(ids)

    def test_plain_profiles_have_no_decoy(self):
        prof = SMALL["yago_imdb"]
        _, p2, _ = generate_pandas(prof, seed=7)
        assert (p2.attr == "w0:id").sum() == 0


class TestSchemaVariety:
    def test_attribute_counts(self, small_pair):
        name, (p1, p2, _) = small_pair
        prof = SMALL[name]
        lit_attrs2 = p2[p2.val.notna()].attr.nunique()
        # name + type + decoy? + description attrs actually used
        assert lit_attrs2 <= prof.n_attrs2 + 3
        assert lit_attrs2 > 3 or prof.n_attrs2 <= 3

    def test_shared_attr_names_low_variety(self):
        prof = SMALL["restaurant"]
        p1, p2, _ = generate_pandas(prof, seed=7)
        assert set(p1.attr) & set(p2.attr)  # low variety: shared schema

    def test_disjoint_attrs_high_variety(self):
        prof = SMALL["bbc_dbpedia"]
        p1, p2, _ = generate_pandas(prof, seed=7)
        assert not (set(p1.attr) & set(p2.attr))

    def test_token_count_imbalance_bbc(self):
        prof = SMALL["bbc_dbpedia"]
        p1, p2, _ = generate_pandas(prof, seed=7)
        tok1 = sum(len(v.split()) for v in p1.val.dropna()) / p1.eid.nunique()
        tok2 = sum(len(v.split()) for v in p2.val.dropna()) / p2.eid.nunique()
        assert tok2 > 2.0 * tok1  # the BBCmusic-DBpedia verbosity imbalance


class TestRelationsGen:
    def test_hub_relation_present(self, small_pair):
        _, (p1, _, _) = small_pair
        assert (p1.attr == "v0:inArea").any()  # every profile has a hub relation

    def test_hub_low_discriminability(self, small_pair):
        name, (p1, _, _) = small_pair
        prof = SMALL[name]
        hub = p1[(p1.attr == "v0:inArea") & p1.obj.notna()]
        if len(hub):
            assert hub.obj.nunique() <= prof.n_hubs

    def test_matched_neighborhoods_align(self, small_pair):
        """For matched entities, a large fraction of KB1 edges also exist
        in KB2 (same universe edge materialized in both)."""
        name, (p1, p2, gt) = small_pair
        prof = SMALL[name]
        m = set(gt.eid1)
        e1 = {
            (s, o)
            for s, o in zip(p1.eid, p1.obj.fillna(-1).astype(int))
            if o >= 0 and s in m and o in m
        }
        e2 = {
            (s, o)
            for s, o in zip(p2.eid, p2.obj.fillna(-1).astype(int))
            if o >= 0 and s in m and o in m
        }
        if e1:
            overlap = len(e1 & e2) / len(e1)
            assert overlap > 0.4


class TestScaling:
    def test_scaled_counts(self):
        p = scaled(PROFILES["yago_imdb"], 0.1)
        assert p.n_matches == 120
        assert p.n1 == 120 + 280

    def test_scaled_preserves_rates(self):
        p = scaled(PROFILES["yago_imdb"], 0.1)
        assert p.p_spec1 == PROFILES["yago_imdb"].p_spec1
        assert p.p_name_shared == PROFILES["yago_imdb"].p_name_shared

    def test_test_scale_small_profiles_untouched(self):
        assert scale_for_tests(MICRO) is MICRO

    def test_test_scale_shrinks_large(self):
        p = scale_for_tests(PROFILES["yago_imdb"])
        assert p.n1 < PROFILES["yago_imdb"].n1

    def test_profile_properties(self):
        p = Profile(
            name="x", n_matches=10, n_only1=5, n_only2=7,
            n_spec=2, p_spec1=0.5, p_spec2=0.5,
            n_mid1=1, n_mid2=1, mid_vocab=10,
            noise1=1, noise2=1, noise_vocab=10, zipf_a=1.1,
            name_len=2, name_vocab=10, p_name_shared=0.5, decoy2=False,
        )
        assert p.n1 == 15 and p.n2 == 17
