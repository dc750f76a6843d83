"""Alignment objective: hinge values, loss algebra, gradients, training."""

import numpy as np
import pytest

from medtriplet.alignment import (
    Adam,
    DegenerateEmbeddingError,
    LossConfig,
    OptimizerConfig,
    TripletEmbeddings,
    cosine,
    gradient_report,
    head_gradients,
    mean_loss,
    multimodal_loss,
    norm,
    train_heads,
    triplet_hinge,
)
from medtriplet.encoder import IMAGE, TEXT


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
            args.append(sign * (cosine(a, n) - cosine(a, p)) + cfg.alpha)
    return args


def triplet_problem(rng, n, c=8):
    """Trunk matrices and a (n, 3) index array: n triplets of distinct rows."""
    zi, zt = random_batch(rng, n, c)
    return zi.reshape(3 * n, c), zt.reshape(3 * n, c), np.arange(3 * n).reshape(n, 3)


class TestCosine:
    def test_self(self):
        x = np.array([0.3, -2.0, 5.0])
        assert cosine(x, x) == pytest.approx(1.0)

    def test_orthogonal(self):
        assert cosine(np.array([1.0, 0.0]), np.array([0.0, 1.0])) == 0.0

    def test_colinear(self):
        assert cosine(np.array([1.0, 2.0]), np.array([2.0, 4.0])) == pytest.approx(1.0)

    def test_zero_vector_raises(self):
        with pytest.raises(DegenerateEmbeddingError):
            cosine(np.zeros(3), np.ones(3))

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
            assert cosine(u, v) == float(u @ v / (np.linalg.norm(u) * np.linalg.norm(v)))

    def test_given_norms_give_the_same_bits(self):
        rng = np.random.default_rng(43)
        for trial in range(400):
            c = int(rng.integers(1, 130))
            u = rng.standard_normal(c) * 10.0 ** rng.uniform(-8, 8)
            # Every third pair is a scaled duplicate, whose cosine is 1 up to rounding.
            v = u * rng.uniform(0.1, 10.0) if trial % 3 == 0 else rng.standard_normal(c) * 10.0 ** rng.uniform(-8, 8)
            assert norm(u) == np.linalg.norm(u)
            assert cosine(u, v, norm(u), norm(v)) == cosine(u, v)
            assert cosine(u, v, norm(u)) == cosine(u, v, None, norm(v)) == cosine(u, v)

    def test_zero_norm_given_raises(self):
        with pytest.raises(DegenerateEmbeddingError):
            cosine(np.ones(3), np.ones(3), norm(np.ones(3)), 0.0)


class TestTripletHinge:
    def test_satisfied_margin(self):
        a, p, n = unit(1, 0), unit(1, 0), unit(0, 1)
        assert triplet_hinge(a, p, n, alpha=0.3) == 0.0

    def test_equal_similarities_give_alpha(self):
        a, pn = unit(1, 0), unit(1, 1)
        assert triplet_hinge(a, pn, pn, alpha=0.3) == pytest.approx(0.3)

    def test_worked_value(self):
        a = unit(1, 0)
        p = np.array([0.2, np.sqrt(1 - 0.04)])
        n = np.array([0.6, 0.8])
        assert triplet_hinge(a, p, n, alpha=0.3) == pytest.approx(0.7)

    def test_nonnegative(self):
        rng = np.random.default_rng(0)
        for _ in range(500):
            a, p, n = (rng.normal(size=5) for _ in range(3))
            assert triplet_hinge(a, p, n, alpha=float(rng.random())) >= 0.0

    def test_mode_contract(self):
        rng = np.random.default_rng(1)
        for _ in range(1000):
            a, p, n = (rng.normal(size=6) for _ in range(3))
            alpha = float(rng.random())
            assert triplet_hinge(a, p, n, alpha, "corrected") == pytest.approx(
                triplet_hinge(a, n, p, alpha, "as-printed"), abs=1e-15
            )


class TestMultimodalLoss:
    def test_collapsed_embeddings_give_two_alpha(self):
        v = unit(1, 2, 3)
        t = TripletEmbeddings(v, v, v, v, v, v)
        total, terms = multimodal_loss(t, LossConfig(alpha=0.3, eta=0.5))
        assert all(term == pytest.approx(0.3) for term in terms.values())
        assert total == pytest.approx(0.6)

    def test_eta_one_drops_within_modal(self):
        rng = np.random.default_rng(2)
        t = TripletEmbeddings(*[rng.normal(size=4) for _ in range(6)])
        total, terms = multimodal_loss(t, LossConfig(eta=1.0))
        assert total == pytest.approx(terms["i2t"] + terms["t2i"], abs=1e-15)

    def test_eta_zero_drops_cross_modal(self):
        rng = np.random.default_rng(3)
        t = TripletEmbeddings(*[rng.normal(size=4) for _ in range(6)])
        total, terms = multimodal_loss(t, LossConfig(eta=0.0))
        assert total == pytest.approx(terms["i2i"] + terms["t2t"], abs=1e-15)

    def test_recombination_identity(self):
        rng = np.random.default_rng(4)
        for _ in range(300):
            t = TripletEmbeddings(*[rng.normal(size=5) for _ in range(6)])
            cfg = LossConfig(alpha=float(rng.random()), eta=float(rng.random()))
            total, terms = multimodal_loss(t, cfg)
            recombined = cfg.eta * (terms["i2t"] + terms["t2i"]) + (1 - cfg.eta) * (
                terms["i2i"] + terms["t2t"]
            )
            assert total == pytest.approx(recombined, abs=1e-12)
            assert total >= 0.0

    def test_positive_rescaling_invariance(self):
        rng = np.random.default_rng(5)
        vecs = [rng.normal(size=6) for _ in range(6)]
        cfg = LossConfig()
        base, _ = multimodal_loss(TripletEmbeddings(*vecs), cfg)
        for i in range(6):
            scaled = list(vecs)
            scaled[i] = 3.7 * scaled[i]
            total, _ = multimodal_loss(TripletEmbeddings(*scaled), cfg)
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

    def test_analytic_matches_finite_differences(self):
        rng = np.random.default_rng(2024)
        accepted = 0
        worst = 0.0
        while accepted < 100:
            heads = {IMAGE: rng.normal(0, 0.5, (8, 8)), TEXT: rng.normal(0, 0.5, (8, 8))}
            zi, zt = random_batch(rng, 4)
            cfg = LossConfig(alpha=float(rng.uniform(0, 0.8)), eta=float(rng.random()),
                             sign_mode="corrected" if rng.random() < 0.5 else "as-printed")
            # central differences are not a valid oracle within a step of
            # the hinge kink; resample draws that land there
            if min(abs(z) for z in hinge_arguments(zi, zt, heads, cfg)) < 5e-3:
                continue
            worst = max(worst, gradient_report(zi, zt, heads, cfg, step=1e-4))
            accepted += 1
        assert worst <= 1e-5

    def test_batched_terms_match_scalar_loop(self):
        rng = np.random.default_rng(13)
        for sign_mode in ("corrected", "as-printed"):
            heads = {IMAGE: rng.normal(0, 0.5, (8, 8)), TEXT: rng.normal(0, 0.5, (8, 8))}
            zi, zt = random_batch(rng, 16)
            cfg = LossConfig(alpha=0.5, eta=0.3, sign_mode=sign_mode)
            total, terms, _ = head_gradients(zi, zt, heads, cfg)
            assert total == pytest.approx(mean_loss(zi, zt, heads, cfg), rel=1e-12)
            per_row = [
                multimodal_loss(TripletEmbeddings(*(heads[IMAGE] @ z for z in a), *(heads[TEXT] @ z for z in b)), cfg)[1]
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


class TestAdamAndTraining:
    def test_zero_learning_rate_is_identity(self):
        rng = np.random.default_rng(7)
        problem = triplet_problem(rng, 32)
        heads = {IMAGE: rng.normal(0, 0.5, (8, 8)), TEXT: rng.normal(0, 0.5, (8, 8))}
        result = train_heads(*problem, heads, LossConfig(),
                             OptimizerConfig(learning_rate=0.0, epochs=5, batch_size=8, seed=0))
        np.testing.assert_array_equal(result.heads[IMAGE], heads[IMAGE])
        np.testing.assert_array_equal(result.heads[TEXT], heads[TEXT])
        totals = [e.total for e in result.curve]
        assert max(totals) == pytest.approx(min(totals), abs=1e-15)

    def test_same_seed_same_curve(self):
        rng = np.random.default_rng(8)
        problem = triplet_problem(rng, 32)
        heads = {IMAGE: rng.normal(0, 0.5, (8, 8)), TEXT: rng.normal(0, 0.5, (8, 8))}
        opt = OptimizerConfig(learning_rate=0.01, epochs=4, batch_size=8, seed=42)
        c1 = train_heads(*problem, heads, LossConfig(), opt).curve
        c2 = train_heads(*problem, heads, LossConfig(), opt).curve
        assert [e.total for e in c1] == [e.total for e in c2]

    def test_loss_decreases_on_trainable_problem(self):
        rng = np.random.default_rng(9)
        problem = triplet_problem(rng, 64)
        heads = {IMAGE: rng.normal(0, 0.5, (8, 8)), TEXT: rng.normal(0, 0.5, (8, 8))}
        result = train_heads(*problem, heads, LossConfig(),
                             OptimizerConfig(learning_rate=0.01, epochs=10, batch_size=16, seed=1))
        assert result.curve[-1].total < result.curve[0].total

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
        [("batch_size", 0), ("epochs", 0), ("learning_rate", -0.01), ("beta1", 1.0), ("beta2", -0.1), ("eps", 0.0)],
    )
    def test_out_of_range_rejected(self, field, value):
        with pytest.raises(ValueError, match=f"{field}.*got {value!r}"):
            OptimizerConfig(**{field: value})

    def test_boundary_values_accepted(self):
        OptimizerConfig(learning_rate=0.0, beta1=0.0, beta2=0.0, epochs=1, batch_size=1)
