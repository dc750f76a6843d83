"""Similarity score: worked values, algebraic properties, oracle equivalence."""

import hashlib

import numpy as np
import pytest

from conftest import entities
from medtriplet.scoring import GammaWeights, score
from oracles import oracle_score, random_entities

WORKED_MI = entities({"pneumonia": ({"mild"}, {"left"}), "edema": (set(), set())})
WORKED_MJ = entities({"pneumonia": ({"mild", "severe"}, {"right"})})


class TestGammaWeights:
    def test_defaults(self):
        w = GammaWeights()
        assert (w.g0, w.g1, w.g2) == (0.85, 0.10, 0.05)

    def test_sum_enforced(self):
        with pytest.raises(ValueError):
            GammaWeights(0.5, 0.5, 0.5)

    def test_nonnegative_enforced(self):
        with pytest.raises(ValueError):
            GammaWeights(1.2, -0.1, -0.1)


class TestWorkedExample:
    def test_union_semantics(self):
        b = score(WORKED_MI, WORKED_MJ)
        assert b.prefactor == pytest.approx(0.5, abs=1e-15)
        assert b.shared_diseases[0].summand == pytest.approx(0.90, abs=1e-12)
        assert b.total == pytest.approx(0.45, abs=1e-12)

    def test_intersection_semantics(self):
        b = score(WORKED_MI, WORKED_MJ, semantics="intersection")
        assert b.shared_diseases[0].summand == pytest.approx(0.9 / 0.95, abs=1e-12)
        assert b.total == pytest.approx(0.9 / 0.95 / 2.0, abs=1e-12)

    def test_matches_oracle(self):
        mi = {"pneumonia": ({"mild"}, {"left"}), "edema": (set(), set())}
        mj = {"pneumonia": ({"mild", "severe"}, {"right"})}
        for semantics in ("union", "intersection"):
            expected = oracle_score(mi, mj, 0.85, 0.10, 0.05, semantics)
            assert score(WORKED_MI, WORKED_MJ, semantics=semantics).total == pytest.approx(
                expected, abs=1e-15
            )


class TestEdgeCases:
    def test_disjoint_diseases_zero(self):
        mi = entities({"edema": ({"mild"}, set())})
        mj = entities({"pneumonia": ({"mild"}, set())})
        assert score(mi, mj).total == 0.0

    def test_empty_side_zero(self):
        mi = entities({})
        mj = entities({"pneumonia": (set(), set())})
        assert score(mi, mj).total == 0.0
        assert score(mj, mi).total == 0.0

    def test_identical_is_one(self):
        m = entities({"edema": ({"mild"}, {"left"}), "pneumonia": (set(), {"upper"})})
        for semantics in ("union", "intersection"):
            assert score(m, m, semantics=semantics).total == pytest.approx(1.0, abs=1e-15)

    def test_breakdown_identity(self):
        b = score(WORKED_MI, WORKED_MJ)
        assert b.total == pytest.approx(b.prefactor * sum(t.summand for t in b.shared_diseases), abs=1e-15)

    def test_unknown_semantics_rejected_without_shared_disease(self):
        mi = entities({"edema": (set(), set())})
        mj = entities({"pneumonia": (set(), set())})
        with pytest.raises(ValueError, match="'bogus'"):
            score(mi, mj, semantics="bogus")


# SHA-256 over the repr of every ScoreBreakdown field for the pairs below,
# recorded from the scoring code before its per-call rewrite: any change to
# a float's value or to the order of its operations changes the digest.
GOLDEN_BREAKDOWN_DIGEST = "60427bcecf7208bb9aed331b81d474a5bc54f420bf0e0bacbe88c1c9b461ccbf"


def test_breakdown_fields_match_golden_digest():
    rng = np.random.default_rng(20260601)
    # g0 = 0 weightings let denom reach 0 (a summand of 1 by convention).
    fixed = [GammaWeights(), GammaWeights(0.0, 0.5, 0.5), GammaWeights(0.0, 1.0, 0.0), GammaWeights(0.0, 0.0, 1.0)]
    digest = hashlib.sha256()
    zero_denoms = 0
    for i in range(1000):
        mi, mj = entities(random_entities(rng)), entities(random_entities(rng))
        if i % 4 == 0:
            g0, g1 = rng.random() / 2, rng.random() / 2
            weights = GammaWeights(g0, g1, 1.0 - g0 - g1)
        else:
            weights = fixed[i % 4]
        for semantics in ("union", "intersection"):
            b = score(mi, mj, weights, semantics)
            terms = [f for t in b.shared_diseases for f in (t.disease, t.ji_adj, t.ji_dir, t.summand)]
            digest.update(repr([b.prefactor, b.total] + terms).encode())
            zero_denoms += sum(
                weights.g0 == 0.0 and t.ji_adj == t.ji_dir == 0.0 and t.summand == 1.0 for t in b.shared_diseases
            )
    assert zero_denoms > 0
    assert digest.hexdigest() == GOLDEN_BREAKDOWN_DIGEST


class TestProperties:
    """Randomized invariants over heterogeneous entity pairs."""

    def _random_weights(self, rng):
        raw = rng.random(3) + 0.05
        g = raw / raw.sum()
        g0 = 1.0 - g[1] - g[2]  # exact sum to 1 in floating point
        return GammaWeights(g0, float(g[1]), float(g[2]))

    def test_symmetry_range_zero_law_self_score(self):
        rng = np.random.default_rng(1234)
        for _ in range(2000):
            pi, pj = random_entities(rng), random_entities(rng)
            mi, mj = entities(pi), entities(pj)
            w = self._random_weights(rng)
            semantics = "union" if rng.random() < 0.5 else "intersection"
            fwd = score(mi, mj, w, semantics)
            rev = score(mj, mi, w, semantics)
            assert fwd.total == rev.total  # exact symmetry
            assert 0.0 <= fwd.total <= 1.0 + 1e-12
            disjoint = not (set(pi) & set(pj))
            assert (fwd.total == 0.0) == disjoint  # g0 > 0 by construction
            if pi:
                assert score(mi, mi, w, semantics).total == pytest.approx(1.0, abs=1e-12)

    def test_added_shared_adjective_never_decreases_union_score(self):
        # Holds under union indicator semantics; the intersection variant
        # deliberately lacks this guarantee (a fully mismatched pair
        # already scores as high as a matched one).
        rng = np.random.default_rng(99)
        checked = 0
        for _ in range(3000):
            pi, pj = random_entities(rng), random_entities(rng)
            shared = sorted(set(pi) & set(pj))
            if not shared:
                continue
            disease = shared[int(rng.integers(len(shared)))]
            w = self._random_weights(rng)
            before = score(entities(pi), entities(pj), w, "union").total
            pi[disease][0].add("fresh-adjective")
            pj[disease][0].add("fresh-adjective")
            after = score(entities(pi), entities(pj), w, "union").total
            assert after >= before - 1e-12
            checked += 1
        assert checked > 500


class TestOracleEquivalence:
    def test_random_heterogeneous_pairs(self):
        rng = np.random.default_rng(31337)
        w = GammaWeights()
        for _ in range(2000):
            pi, pj = random_entities(rng), random_entities(rng)
            semantics = "union" if rng.random() < 0.5 else "intersection"
            expected = oracle_score(pi, pj, w.g0, w.g1, w.g2, semantics)
            assert score(entities(pi), entities(pj), w, semantics).total == pytest.approx(
                expected, abs=1e-12
            )
