"""Triplet mining: selection rules, batch invariants, corpus determinism."""

import hashlib
import re

import numpy as np
import pytest

from conftest import entities
from medtriplet.corpus import DataError
from medtriplet.mining import (
    Batch,
    MiningSettings,
    Triplet,
    mine_batch,
    mine_corpus,
    read_triplets,
    select_negative,
    select_positive,
    write_triplets,
)
from medtriplet.scoring import score
from oracles import random_entities

# Anchor shares pneumonia+edema with NEAR (score 0.975), pneumonia only
# with MID (score 0.45, the worked value), nothing with FAR (score 0).
ANCHOR = entities({"pneumonia": ({"mild"}, {"left"}), "edema": (set(), set())})
NEAR = entities({"pneumonia": ({"mild"}, {"right"}), "edema": (set(), set())})
MID = entities({"pneumonia": ({"mild", "severe"}, {"right"})})
FAR = entities({"cardiomegaly": (set(), set())})


def batch_of(*pairs):
    return Batch(tuple(pairs))


class TestScoresBehindTheScenarios:
    def test_hand_built_scores(self):
        assert score(ANCHOR, NEAR).total == pytest.approx(0.975, abs=1e-12)
        assert score(ANCHOR, MID).total == pytest.approx(0.45, abs=1e-12)
        assert score(ANCHOR, FAR).total == 0.0


class TestSelectPositive:
    def test_argmax_wins(self):
        batch = batch_of(("a", ANCHOR), ("near", NEAR), ("mid", MID), ("far", FAR))
        assert select_positive(0, batch, MiningSettings()) == "near"

    def test_unique_nonzero(self):
        batch = batch_of(("a", ANCHOR), ("far", FAR), ("mid", MID))
        assert select_positive(0, batch, MiningSettings()) == "mid"

    def test_tie_lowest_id(self):
        batch = batch_of(("a", ANCHOR), ("x2", MID), ("x1", MID))
        assert select_positive(0, batch, MiningSettings()) == "x1"


class TestSelectNegative:
    def test_argmin_in_band(self):
        batch = batch_of(("a", ANCHOR), ("near", NEAR), ("mid", MID), ("far", FAR))
        assert select_negative(0, batch, MiningSettings(), exclude="near") == "mid"

    def test_band_empty_returns_none(self):
        batch = batch_of(("a", ANCHOR), ("near", NEAR), ("far", FAR))
        assert select_negative(0, batch, MiningSettings(), exclude="near") is None

    def test_bounds_inclusive(self):
        batch = batch_of(("a", ANCHOR), ("near", NEAR), ("mid", MID))
        cfg = MiningSettings(tau_min=0.45, tau_max=0.45)
        assert select_negative(0, batch, cfg, exclude="near") == "mid"


class TestMineBatch:
    def test_identical_entities_yield_nothing(self):
        batch = batch_of(("a", NEAR), ("b", NEAR), ("c", NEAR))  # pairwise 1.0
        assert mine_batch(batch, MiningSettings(), np.random.default_rng(0)) == []

    def test_three_sample_enumeration(self):
        # Pairwise: (a,b)=1.0, (a,c)=(b,c)=0.45.
        twin = entities({"pneumonia": ({"mild"}, {"left"}), "edema": (set(), set())})
        batch = batch_of(("a", ANCHOR), ("b", twin), ("c", MID))
        triplets = {t.anchor_id: t for t in mine_batch(batch, MiningSettings(), np.random.default_rng(0))}
        assert triplets["a"].positive_id == "b" and triplets["a"].negative_id == "c"
        assert triplets["b"].positive_id == "a" and triplets["b"].negative_id == "c"
        # anchor c: positives tie at 0.45, lowest id wins; the other twin
        # stays in band, so c still yields a triplet
        assert triplets["c"].positive_id == "a" and triplets["c"].negative_id == "b"
        assert triplets["c"].score_ap == triplets["c"].score_an == pytest.approx(0.45)

    def test_empty_and_small_batches(self):
        assert mine_batch(Batch(()), MiningSettings(), np.random.default_rng(0)) == []
        assert mine_batch(batch_of(("a", ANCHOR), ("b", MID)), MiningSettings(), np.random.default_rng(0)) == []

    def test_zero_score_positive_skips_anchor(self):
        other = entities({"fracture": (set(), set())})
        batch = batch_of(("a", ANCHOR), ("b", FAR), ("c", other))
        triplets = mine_batch(batch, MiningSettings(), np.random.default_rng(0))
        assert all(t.anchor_id != "a" for t in triplets)


class TestMiningSettings:
    @pytest.mark.parametrize("field", ["semantics"])
    def test_unknown_value_rejected(self, field):
        with pytest.raises(ValueError, match="'bogus'"):
            MiningSettings(**{field: "bogus"})


class TestTripletInvariants:
    def test_distinct_ids_enforced(self):
        with pytest.raises(ValueError):
            Triplet("a", "a", "b", 0.5, 0.3)

    def test_ordering_enforced(self):
        with pytest.raises(ValueError):
            Triplet("a", "b", "c", 0.3, 0.5)


def _random_corpus(n, seed):
    rng = np.random.default_rng(seed)
    out = []
    for i in range(n):
        plain = random_entities(rng)
        while not plain:  # keep every sample mineable in principle
            plain = random_entities(rng)
        out.append((f"s{i:03d}", entities(plain)))
    return out


# SHA-256 of triplets.jsonl for the corpus and seeds of
# ``test_triplets_match_golden_digest``, recorded from the mining and scoring
# code before the score kernel's per-call rewrite: any change to a score's
# float or to how a tie is broken changes it.
GOLDEN_TRIPLETS_DIGEST = {
    "union": "aee357c13820f5fcd360d2efdf5f1929607794ae080d84157a4c5a1c73717803",
    "intersection": "1b5a836afadc6e780bce48b97b021d5b668cb9c236e1f1e0a9cf252477820315",
}


class TestMineCorpus:
    def test_target_zero(self, tmp_path):
        samples = _random_corpus(20, 3)
        path = tmp_path / "t.jsonl"
        returned = mine_corpus(samples, MiningSettings(batch_size=10, target=0, seed=1))
        write_triplets(path, *returned)
        manifest, triplets = read_triplets(path)
        assert returned == (manifest, triplets)
        assert triplets == [] and manifest["target"] == 0

    @pytest.mark.parametrize(
        "line, message",
        [
            ('{"anchor_id": "a", "positive_id": "b"', "invalid JSON"),
            ('{"anchor_id": "a", "positive_id": "b", "negative_id": "c", "score_ap": 0.5}', "missing 'score_an'"),
        ],
        ids=["malformed_line", "missing_field"],
    )
    def test_bad_triplet_record_names_file_and_line(self, tmp_path, line, message):
        path = tmp_path / "t.jsonl"
        write_triplets(path, *mine_corpus(_random_corpus(20, 3), MiningSettings(batch_size=10, target=0, seed=1)))
        path.write_text(path.read_text() + line + "\n")
        with pytest.raises(DataError, match=f"^{re.escape(str(path))}:2: .*{message}"):
            read_triplets(path)

    def test_unique_and_exact_count(self, tmp_path):
        samples = _random_corpus(60, 4)
        _, triplets = mine_corpus(samples, MiningSettings(batch_size=16, target=150, seed=2))
        keys = [t.key() for t in triplets]
        assert len(keys) == len(set(keys)) == 150

    def test_same_seed_byte_identical(self, tmp_path):
        samples = _random_corpus(40, 5)
        p1, p2 = tmp_path / "a.jsonl", tmp_path / "b.jsonl"
        cfg = MiningSettings(batch_size=12, target=60, seed=9)
        write_triplets(p1, *mine_corpus(samples, cfg))
        write_triplets(p2, *mine_corpus(samples, cfg))
        assert p1.read_bytes() == p2.read_bytes()

    def test_duplicate_id_in_corpus_named(self):
        # the two copies of s000 never share a batch under this seed, so only a corpus-wide check sees them
        samples = _random_corpus(40, 5)
        samples[-1] = ("s000", samples[-1][1])
        with pytest.raises(ValueError, match="duplicate sample id 's000'"):
            mine_corpus(samples, MiningSettings(batch_size=8, target=60, seed=0))

    def test_corpus_too_small(self):
        with pytest.raises(ValueError, match="need at least"):
            mine_corpus(_random_corpus(5, 6), MiningSettings(batch_size=10, target=5))

    def test_unreachable_target_keeps_partial(self, tmp_path, caplog):
        # three identical samples: nothing in band, target unreachable
        samples = [("a", NEAR), ("b", NEAR), ("c", NEAR)]
        path = tmp_path / "t.jsonl"
        returned = mine_corpus(samples, MiningSettings(batch_size=3, target=10, pass_limit=4))
        write_triplets(path, *returned)
        manifest, triplets = read_triplets(path)
        assert returned == (manifest, triplets)
        assert manifest["reached_target"] is False and manifest["passes"] == 3 and triplets == []

    def test_mined_invariants_hold(self):
        cfg = MiningSettings(batch_size=20, target=200, seed=11)
        samples = _random_corpus(80, 12)
        _, triplets = mine_corpus(samples, cfg)
        by_id = dict(samples)
        for t in triplets:
            assert len({t.anchor_id, t.positive_id, t.negative_id}) == 3
            assert t.score_ap >= t.score_an
            assert cfg.tau_min <= t.score_an <= cfg.tau_max
            # recorded scores match recomputation
            assert score(by_id[t.anchor_id], by_id[t.positive_id], cfg.gammas, cfg.semantics).total == pytest.approx(t.score_ap)
            assert score(by_id[t.anchor_id], by_id[t.negative_id], cfg.gammas, cfg.semantics).total == pytest.approx(t.score_an)

    def test_semi_hard_negatives_share_a_disease(self):
        # tau_min > 0 forces a non-empty disease intersection with the anchor
        cfg = MiningSettings(batch_size=15, target=100, seed=13)
        samples = _random_corpus(60, 14)
        by_id = dict(samples)
        _, triplets = mine_corpus(samples, cfg)
        for t in triplets:
            anchor = by_id[t.anchor_id].disease_set()
            negative = by_id[t.negative_id].disease_set()
            assert anchor & negative

    @pytest.mark.parametrize("semantics", ["union", "intersection"])
    def test_triplets_match_golden_digest(self, tmp_path, semantics):
        path = tmp_path / "t.jsonl"
        cfg = MiningSettings(batch_size=15, target=400, semantics=semantics, seed=17)
        manifest, triplets = mine_corpus(_random_corpus(90, 31), cfg)
        write_triplets(path, manifest, triplets)
        assert (len(triplets), manifest["passes"], manifest["reached_target"]) == (400, 5, True)
        assert read_triplets(path) == (manifest, triplets)
        assert hashlib.sha256(path.read_bytes()).hexdigest() == GOLDEN_TRIPLETS_DIGEST[semantics]

    def test_anchor_unique_within_batch(self):
        samples = _random_corpus(30, 15)
        batch = Batch(tuple(samples[:12]))
        triplets = mine_batch(batch, MiningSettings(seed=3), np.random.default_rng(3))
        anchors = [t.anchor_id for t in triplets]
        assert len(anchors) == len(set(anchors))
