"""Alignment objective: hinge values, loss algebra, gradients, training.

The hinge and loss-algebra classes check the scalar loss oracle in
``oracles.py``; the gradient tests then hold ``head_gradients`` to it,
and to the bits of the dense head-gradient oracle.
"""

import hashlib

import numpy as np
import pytest

from medtriplet.alignment import (
    TERM_NAMES,
    Adam,
    DegenerateEmbeddingError,
    LossConfig,
    OptimizerConfig,
    cosine,
    head_gradients,
    norm,
    train_heads,
)
from medtriplet.encoder import IMAGE, TEXT
from oracles import oracle_gradient_error, oracle_head_gradients, oracle_hinge, oracle_loss, oracle_mean_loss


def cos(u, v):
    """``cosine`` given the norms its callers pass."""
    return cosine(u, v, norm(u), norm(v))


def unit(*values):
    v = np.array(values, dtype=np.float64)
    return v / np.linalg.norm(v)


def random_batch(rng, b, c=8):
    """(b, 3, c) image and text trunk blocks, drawn triplet by triplet in the
    order image a/p/n, then text a/p/n."""
    v = rng.normal(size=(b, 2, 3, c))
    return v[:, 0], v[:, 1]


def hinge_arguments(zi, zt, heads, cfg):
    """All four terms' pre-hinge arguments for every triplet of a batch."""
    sign = 1.0 if cfg.sign_mode == "corrected" else -1.0
    args = []
    for zi_row, zt_row in zip(zi, zt):
        i_a, i_p, i_n = (heads[IMAGE] @ z for z in zi_row)
        t_a, t_p, t_n = (heads[TEXT] @ z for z in zt_row)
        for a, p, n in ((i_a, t_p, t_n), (t_a, i_p, i_n), (i_a, i_p, i_n), (t_a, t_p, t_n)):
            args.append(sign * (cos(a, n) - cos(a, p)) + cfg.alpha)
    return args


def gradient_error(zi, zt, heads, cfg):
    """``head_gradients``' worst relative error against central differences of the oracle loss."""
    _, _, grads = head_gradients(zi, zt, heads, cfg)
    return oracle_gradient_error(zi, zt, heads[IMAGE], heads[TEXT], cfg, (grads[IMAGE], grads[TEXT]), step=1e-4)


def triplet_problem(rng, n, c=8):
    """Trunk matrices and a (n, 3) index array: n triplets of distinct rows."""
    zi, zt = random_batch(rng, n, c)
    return zi.reshape(3 * n, c), zt.reshape(3 * n, c), np.arange(3 * n).reshape(n, 3)


class TestCosine:
    def test_self(self):
        x = np.array([0.3, -2.0, 5.0])
        assert cos(x, x) == pytest.approx(1.0)

    def test_orthogonal(self):
        assert cos(np.array([1.0, 0.0]), np.array([0.0, 1.0])) == 0.0

    def test_colinear(self):
        assert cos(np.array([1.0, 2.0]), np.array([2.0, 4.0])) == pytest.approx(1.0)

    def test_zero_vector_raises(self):
        with pytest.raises(DegenerateEmbeddingError):
            cos(np.zeros(3), np.ones(3))

    def test_bitwise_equal_to_numpy_norm_formula(self):
        rng = np.random.default_rng(41)
        for trial in range(400):
            c = int(rng.integers(1, 130))
            scales = 10.0 ** rng.uniform(-8, 8, size=2)
            if trial % 2:  # rows of a 2-D matrix, as retrieval passes them
                m = rng.standard_normal((3, c)) * np.array([scales[0], 1.0, scales[1]])[:, None]
                u, v = m[0], m[2]
            else:
                u, v = rng.standard_normal(c) * scales[0], rng.standard_normal(c) * scales[1]
            assert cos(u, v) == float(u @ v / (np.linalg.norm(u) * np.linalg.norm(v)))

    def test_given_norms_give_the_same_bits(self):
        rng = np.random.default_rng(43)
        for trial in range(400):
            c = int(rng.integers(1, 130))
            u = rng.standard_normal(c) * 10.0 ** rng.uniform(-8, 8)
            # Every third pair is a scaled duplicate, whose cosine is 1 up to rounding.
            v = u * rng.uniform(0.1, 10.0) if trial % 3 == 0 else rng.standard_normal(c) * 10.0 ** rng.uniform(-8, 8)
            assert norm(u) == np.linalg.norm(u)
            assert cos(u, v) == cosine(u, v, np.linalg.norm(u), np.linalg.norm(v))

    def test_zero_norm_given_raises(self):
        with pytest.raises(DegenerateEmbeddingError):
            cosine(np.ones(3), np.ones(3), norm(np.ones(3)), 0.0)


class TestTripletHinge:
    def test_satisfied_margin(self):
        a, p, n = unit(1, 0), unit(1, 0), unit(0, 1)
        assert oracle_hinge(a, p, n, alpha=0.3) == 0.0

    def test_equal_similarities_give_alpha(self):
        a, pn = unit(1, 0), unit(1, 1)
        assert oracle_hinge(a, pn, pn, alpha=0.3) == pytest.approx(0.3)

    def test_worked_value(self):
        a = unit(1, 0)
        p = np.array([0.2, np.sqrt(1 - 0.04)])
        n = np.array([0.6, 0.8])
        assert oracle_hinge(a, p, n, alpha=0.3) == pytest.approx(0.7)

    def test_nonnegative(self):
        rng = np.random.default_rng(0)
        for _ in range(500):
            a, p, n = (rng.normal(size=5) for _ in range(3))
            assert oracle_hinge(a, p, n, alpha=float(rng.random())) >= 0.0

    def test_mode_contract(self):
        rng = np.random.default_rng(1)
        for _ in range(1000):
            a, p, n = (rng.normal(size=6) for _ in range(3))
            alpha = float(rng.random())
            assert oracle_hinge(a, p, n, alpha, "corrected") == pytest.approx(
                oracle_hinge(a, n, p, alpha, "as-printed"), abs=1e-15
            )


class TestMultimodalLoss:
    def test_collapsed_embeddings_give_two_alpha(self):
        v = unit(1, 2, 3)
        total, terms = oracle_loss([v, v, v], [v, v, v], LossConfig(alpha=0.3, eta=0.5))
        assert all(term == pytest.approx(0.3) for term in terms.values())
        assert total == pytest.approx(0.6)

    def test_eta_one_drops_within_modal(self):
        rng = np.random.default_rng(2)
        ei, et = rng.normal(size=(2, 3, 4))
        total, terms = oracle_loss(ei, et, LossConfig(eta=1.0))
        assert total == pytest.approx(terms["i2t"] + terms["t2i"], abs=1e-15)

    def test_eta_zero_drops_cross_modal(self):
        rng = np.random.default_rng(3)
        ei, et = rng.normal(size=(2, 3, 4))
        total, terms = oracle_loss(ei, et, LossConfig(eta=0.0))
        assert total == pytest.approx(terms["i2i"] + terms["t2t"], abs=1e-15)

    def test_recombination_identity(self):
        rng = np.random.default_rng(4)
        for _ in range(300):
            ei, et = rng.normal(size=(2, 3, 5))
            cfg = LossConfig(alpha=float(rng.random()), eta=float(rng.random()))
            total, terms = oracle_loss(ei, et, cfg)
            recombined = cfg.eta * (terms["i2t"] + terms["t2i"]) + (1 - cfg.eta) * (
                terms["i2i"] + terms["t2t"]
            )
            assert total == pytest.approx(recombined, abs=1e-12)
            assert total >= 0.0

    def test_positive_rescaling_invariance(self):
        rng = np.random.default_rng(5)
        vecs = [rng.normal(size=6) for _ in range(6)]
        cfg = LossConfig()
        base, _ = oracle_loss(vecs[:3], vecs[3:], cfg)
        for i in range(6):
            scaled = list(vecs)
            scaled[i] = 3.7 * scaled[i]
            total, _ = oracle_loss(scaled[:3], scaled[3:], cfg)
            assert total == pytest.approx(base, abs=1e-12)


class TestGradients:
    def test_flat_region_zero_gradient(self):
        e1, e2 = np.zeros(4), np.zeros(4)
        e1[0], e2[1] = 1.0, 1.0
        z = np.array([[e1, e1, e2]])
        heads = {IMAGE: np.eye(4), TEXT: np.eye(4)}
        total, _, grads = head_gradients(z, z, heads, LossConfig(alpha=0.3))
        assert total == 0.0
        assert np.all(grads[IMAGE] == 0.0) and np.all(grads[TEXT] == 0.0)

    def test_batched_terms_match_scalar_loop(self):
        rng = np.random.default_rng(13)
        for sign_mode in ("corrected", "as-printed"):
            heads = {IMAGE: rng.normal(0, 0.5, (8, 8)), TEXT: rng.normal(0, 0.5, (8, 8))}
            zi, zt = random_batch(rng, 16)
            cfg = LossConfig(alpha=0.5, eta=0.3, sign_mode=sign_mode)
            total, terms, _ = head_gradients(zi, zt, heads, cfg)
            assert total == pytest.approx(oracle_mean_loss(zi, zt, heads[IMAGE], heads[TEXT], cfg), rel=1e-12)
            per_row = [
                oracle_loss([heads[IMAGE] @ z for z in a], [heads[TEXT] @ z for z in b], cfg)[1]
                for a, b in zip(zi, zt)
            ]
            for name, value in terms.items():
                assert value == pytest.approx(np.mean([r[name] for r in per_row]), rel=1e-12, abs=1e-15)

    def test_gradient_orthogonal_to_head_scaling(self):
        rng = np.random.default_rng(6)
        for _ in range(50):
            heads = {IMAGE: rng.normal(0, 0.5, (6, 6)), TEXT: rng.normal(0, 0.5, (6, 6))}
            zi, zt = random_batch(rng, 3, c=6)
            _, _, grads = head_gradients(zi, zt, heads, LossConfig())
            for modality in (IMAGE, TEXT):
                directional = float(np.sum(grads[modality] * heads[modality]))
                assert abs(directional) <= 1e-8

    def test_empty_batch_rejected(self):
        empty = np.zeros((0, 3, 2))
        with pytest.raises(ValueError):
            head_gradients(empty, empty, {IMAGE: np.eye(2), TEXT: np.eye(2)}, LossConfig())

    def test_zero_norm_row_rejected(self):
        rng = np.random.default_rng(12)
        zi, zt = random_batch(rng, 5)
        zt[3, 1] = 0.0  # one positive's text trunk row, hence its embedding, is zero
        heads = {IMAGE: np.eye(8), TEXT: np.eye(8)}
        with pytest.raises(DegenerateEmbeddingError):
            head_gradients(zi, zt, heads, LossConfig())


def assert_bits_match_dense_oracle(zi, zt, heads, cfg):
    """``head_gradients``' total, terms and grads carry the dense oracle's bits."""
    total, terms, grads = head_gradients(zi, zt, heads, cfg)
    dense_total, dense_terms, dense_grads = oracle_head_gradients(zi, zt, heads[IMAGE], heads[TEXT], cfg)
    assert np.float64(total).tobytes() == np.float64(dense_total).tobytes()
    for name in TERM_NAMES:
        assert np.float64(terms[name]).tobytes() == np.float64(dense_terms[name]).tobytes(), name
    assert grads[IMAGE].tobytes() == dense_grads[0].tobytes()
    assert grads[TEXT].tobytes() == dense_grads[1].tobytes()


SIGN_MODES = ("corrected", "as-printed")


class TestActiveRowGradients:
    """Gradient rows are built for active hinges only, with the dense bits."""

    @pytest.mark.parametrize("sign_mode", SIGN_MODES)
    @pytest.mark.parametrize("eta", [0.0, 1.0, 0.4])
    def test_single_triplet(self, sign_mode, eta):
        rng = np.random.default_rng(51)
        for alpha in (0.0, 0.3, 2.5):
            heads = {IMAGE: rng.normal(0, 0.5, (8, 8)), TEXT: rng.normal(0, 0.5, (8, 8))}
            assert_bits_match_dense_oracle(*random_batch(rng, 1), heads, LossConfig(alpha, eta, sign_mode))

    @pytest.mark.parametrize("sign_mode", SIGN_MODES)
    @pytest.mark.parametrize("eta", [0.0, 1.0, 0.4])
    def test_all_inactive_at_zero_margin(self, sign_mode, eta):
        # With the negative equal to the positive and alpha = 0, every hinge argument is exactly 0: inactive.
        rng = np.random.default_rng(52)
        heads = {IMAGE: rng.normal(0, 0.5, (8, 8)), TEXT: rng.normal(0, 0.5, (8, 8))}
        zi, zt = random_batch(rng, 12)
        zi[:, 2], zt[:, 2] = zi[:, 1], zt[:, 1]
        cfg = LossConfig(alpha=0.0, eta=eta, sign_mode=sign_mode)
        total, terms, grads = head_gradients(zi, zt, heads, cfg)
        assert total == 0.0 and all(value == 0.0 for value in terms.values())
        assert not grads[IMAGE].any() and not grads[TEXT].any()
        assert_bits_match_dense_oracle(zi, zt, heads, cfg)

    @pytest.mark.parametrize("sign_mode", SIGN_MODES)
    @pytest.mark.parametrize("eta", [0.0, 1.0, 0.4])
    def test_all_active_beyond_the_cosine_range(self, sign_mode, eta):
        # A hinge argument is alpha plus a difference of two cosines, so alpha > 2 makes every hinge active.
        rng = np.random.default_rng(53)
        heads = {IMAGE: rng.normal(0, 0.5, (8, 8)), TEXT: rng.normal(0, 0.5, (8, 8))}
        zi, zt = random_batch(rng, 12)
        cfg = LossConfig(alpha=2.5, eta=eta, sign_mode=sign_mode)
        assert min(hinge_arguments(zi, zt, heads, cfg)) > 0.0
        assert_bits_match_dense_oracle(zi, zt, heads, cfg)

    def test_random_and_near_kink_batches(self):
        rng = np.random.default_rng(54)
        kinks = 0
        for trial in range(400):
            b, c = int(rng.integers(1, 33)), int(rng.integers(2, 10))
            heads = {IMAGE: rng.normal(0, 0.5, (c, c)), TEXT: rng.normal(0, 0.5, (c, c))}
            zi, zt = random_batch(rng, b, c)
            sign_mode = SIGN_MODES[trial % 2]
            eta = (0.0, 1.0, float(rng.random()))[trial % 3]
            if trial % 4 == 0:
                # Set alpha to minus one triplet's pre-margin argument, so that its hinge
                # lands within rounding of the kink, on either side of it or at 0.
                shifts = [-x for x in hinge_arguments(zi, zt, heads, LossConfig(0.0, eta, sign_mode)) if x < 0.0]
                if not shifts:
                    continue
                alpha = shifts[int(rng.integers(len(shifts)))]
                kinks += 1
            else:
                alpha = float(rng.uniform(0.0, 0.6))
            assert_bits_match_dense_oracle(zi, zt, heads, LossConfig(alpha, eta, sign_mode))
        assert kinks >= 90


# SHA-256 of the trained head bytes and the loss-curve floats of
# ``test_trained_heads_match_golden_digest``, recorded from the dense
# gradient accumulation, before gradient rows were built for active hinges
# only: any change to a gradient's, a head's or a loss's bits changes it.
# The head products go through BLAS; the digests were recorded with the
# OpenBLAS that numpy 2.4.6 bundles, on x86_64.
GOLDEN_HEADS_DIGEST = {
    ("corrected", 0.5): "c1a08f29cbc97b2c95404b09501bd064d823ebc39f2e2493028eb7b1a1efa98f",
    ("corrected", 0.0): "01d5a737bd765025eef800e642ab2602a9a588b680813fdf7010e77d49938a93",
    ("as-printed", 0.5): "70694b174d0234941917263835b7b1e97298444f2e125eb85a93c67fd226fc18",
    ("as-printed", 0.0): "31c371d32590f9f4f70ff642090064f223078cf59e05a35e8fb14eedfd315fe9",
}


class TestAdamAndTraining:
    @pytest.mark.parametrize("sign_mode, eta", sorted(GOLDEN_HEADS_DIGEST))
    def test_trained_heads_match_golden_digest(self, sign_mode, eta):
        rng = np.random.default_rng(20)
        z_img, z_txt = rng.normal(size=(2, 90, 16))
        triplets = np.stack([rng.permutation(90)[:3] for _ in range(200)])
        heads = {IMAGE: rng.normal(0, 0.5, (16, 16)), TEXT: rng.normal(0, 0.5, (16, 16))}
        trained, curve = train_heads(z_img, z_txt, triplets, heads, LossConfig(alpha=0.3, eta=eta, sign_mode=sign_mode),
                                     OptimizerConfig(learning_rate=0.01, epochs=20, batch_size=32, seed=5))
        losses = np.array([[row["total"], *(row[k] for k in TERM_NAMES)] for row in curve])
        digest = hashlib.sha256(trained[IMAGE].tobytes() + trained[TEXT].tobytes() + losses.tobytes())
        assert digest.hexdigest() == GOLDEN_HEADS_DIGEST[(sign_mode, eta)]

    def test_zero_learning_rate_is_identity(self):
        rng = np.random.default_rng(7)
        problem = triplet_problem(rng, 32)
        heads = {IMAGE: rng.normal(0, 0.5, (8, 8)), TEXT: rng.normal(0, 0.5, (8, 8))}
        trained, curve = train_heads(*problem, heads, LossConfig(),
                                     OptimizerConfig(learning_rate=0.0, epochs=5, batch_size=8, seed=0))
        np.testing.assert_array_equal(trained[IMAGE], heads[IMAGE])
        np.testing.assert_array_equal(trained[TEXT], heads[TEXT])
        totals = [row["total"] for row in curve]
        assert max(totals) == pytest.approx(min(totals), abs=1e-15)

    def test_same_seed_same_curve(self):
        rng = np.random.default_rng(8)
        problem = triplet_problem(rng, 32)
        heads = {IMAGE: rng.normal(0, 0.5, (8, 8)), TEXT: rng.normal(0, 0.5, (8, 8))}
        opt = OptimizerConfig(learning_rate=0.01, epochs=4, batch_size=8, seed=42)
        _, c1 = train_heads(*problem, heads, LossConfig(), opt)
        _, c2 = train_heads(*problem, heads, LossConfig(), opt)
        assert [row["total"] for row in c1] == [row["total"] for row in c2]

    def test_loss_decreases_on_trainable_problem(self):
        rng = np.random.default_rng(9)
        problem = triplet_problem(rng, 64)
        heads = {IMAGE: rng.normal(0, 0.5, (8, 8)), TEXT: rng.normal(0, 0.5, (8, 8))}
        _, curve = train_heads(*problem, heads, LossConfig(),
                               OptimizerConfig(learning_rate=0.01, epochs=10, batch_size=16, seed=1))
        assert curve[-1]["total"] < curve[0]["total"]

    def test_adam_matches_reference_update(self):
        # single step against the textbook update rule
        params = {"w": np.array([1.0, -2.0])}
        grads = {"w": np.array([0.5, 0.5])}
        opt = Adam({k: v.copy() for k, v in params.items()}, OptimizerConfig(learning_rate=0.1))
        opt.step(grads)
        m = 0.1 * grads["w"]
        v = 0.001 * grads["w"] ** 2
        m_hat = m / 0.1
        v_hat = v / 0.001
        expected = params["w"] - 0.1 * m_hat / (np.sqrt(v_hat) + 1e-8)
        np.testing.assert_allclose(opt.params["w"], expected, atol=1e-12)

    @pytest.mark.parametrize("modality", [IMAGE, TEXT])
    def test_nan_head_named_by_epoch_and_batch(self, modality):
        rng = np.random.default_rng(14)
        problem = triplet_problem(rng, 16)
        heads = {IMAGE: rng.normal(0, 0.5, (8, 8)), TEXT: rng.normal(0, 0.5, (8, 8))}
        heads[modality][3, 5] = np.nan
        with pytest.raises(DegenerateEmbeddingError, match="^epoch 1, batch 1: .*non-finite"):
            train_heads(*problem, heads, LossConfig(), OptimizerConfig(epochs=2, batch_size=8))

    def test_overflowing_loss_named_by_epoch_and_batch(self):
        rng = np.random.default_rng(15)
        problem = triplet_problem(rng, 16)
        heads = {IMAGE: rng.normal(0, 0.5, (8, 8)), TEXT: rng.normal(0, 0.5, (8, 8))}
        with pytest.raises(ValueError, match="^epoch 1, batch 1: non-finite loss inf"), np.errstate(over="ignore"):
            train_heads(*problem, heads, LossConfig(alpha=1e308), OptimizerConfig(epochs=2, batch_size=8))

    def test_empty_triplet_index_rejected(self):
        rng = np.random.default_rng(16)
        z_img, z_txt, _ = triplet_problem(rng, 4)
        heads = {IMAGE: rng.normal(0, 0.5, (8, 8)), TEXT: rng.normal(0, 0.5, (8, 8))}
        with pytest.raises(ValueError, match="^no triplets to train on$"):
            train_heads(z_img, z_txt, np.zeros((0, 3), dtype=np.int64), heads)

    def test_input_heads_not_mutated(self):
        rng = np.random.default_rng(10)
        problem = triplet_problem(rng, 16)
        heads = {IMAGE: rng.normal(0, 0.5, (8, 8)), TEXT: rng.normal(0, 0.5, (8, 8))}
        snapshot = {k: v.copy() for k, v in heads.items()}
        train_heads(*problem, heads, LossConfig(), OptimizerConfig(epochs=2, batch_size=8))
        for k in heads:
            np.testing.assert_array_equal(heads[k], snapshot[k])


class TestLossConfig:
    def test_validation(self):
        with pytest.raises(ValueError):
            LossConfig(alpha=-0.1)
        with pytest.raises(ValueError):
            LossConfig(eta=1.5)
        with pytest.raises(ValueError):
            LossConfig(sign_mode="upside-down")


class TestOptimizerConfig:
    @pytest.mark.parametrize(
        "field, value",
        [("batch_size", 0), ("epochs", 0), ("learning_rate", -0.01)],
    )
    def test_out_of_range_rejected(self, field, value):
        with pytest.raises(ValueError, match=f"{field}.*got {value!r}"):
            OptimizerConfig(**{field: value})

    def test_boundary_values_accepted(self):
        OptimizerConfig(learning_rate=0.0, epochs=1, batch_size=1)
