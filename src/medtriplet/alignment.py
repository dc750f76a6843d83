"""Multimodal triplet alignment objective and head training.

The objective combines four hinge terms over a triplet's image and text
embeddings: cross-modal image-to-text and text-to-image terms, weighted
by eta, plus within-modal image-to-image and text-to-text terms,
weighted by 1 - eta. Only the two square projection heads train; the
encoder trunks stay frozen, so gradients flow through a single linear
map and the cosine similarities.

Training data are arrays: (N, c) image and text trunk matrices with one
row per sample, plus a (T, 3) array of anchor/positive/negative row
indices. ``train_heads`` gathers one batch's rows at a time into
(B, 3, c) blocks, and ``head_gradients`` computes all four terms and
their analytic gradients for a block with row-wise matrix operations.
``train_heads`` returns the trained heads and the loss curve, whose rows
it builds exactly as ``loss_curve.jsonl`` holds them.
This is the package's one implementation of the objective; the test
suite checks it against a scalar, one-triplet-at-a-time transcription
and central finite differences of it (``tests/oracles.py``).

Each term builds and adds gradient rows only for its active hinges
(argument above 0); the two head products still run over all rows. The
bits equal the dense oracle's, which adds every row: an inactive row
adds ±0.0 to a buffer that starts at +0.0 and never holds -0.0, since
x + (-x) rounds to +0.0, so no entry changes.

``sign_mode`` selects the hinge orientation. The default ``corrected``
form max(0, cos(A,N) - cos(A,P) + alpha) decreases when the anchor moves
toward the positive; the ``as-printed`` form swaps the two cosines and
is kept for fidelity experiments. The two modes satisfy
corrected(A, P, N) == as-printed(A, N, P) for all inputs.
"""

from __future__ import annotations

import logging
import math
from dataclasses import dataclass

import numpy as np

from .encoder import IMAGE, TEXT

logger = logging.getLogger(__name__)

TERM_NAMES = ("i2t", "t2i", "i2i", "t2t")


class DegenerateEmbeddingError(ValueError):
    """Zero-norm or non-finite vector where a cosine similarity is required."""


@dataclass(frozen=True)
class LossConfig:
    alpha: float = 0.3
    eta: float = 0.5
    sign_mode: str = "corrected"  # or "as-printed"

    def __post_init__(self) -> None:
        # A NaN fails every comparison, so "not 0 <= x < inf" rejects it too.
        if not 0 <= self.alpha < math.inf:
            raise ValueError(f"margin alpha must be finite and nonnegative, got {self.alpha!r}")
        if not 0.0 <= self.eta <= 1.0:
            raise ValueError(f"eta must lie in [0, 1], got {self.eta!r}")
        if self.sign_mode not in ("corrected", "as-printed"):
            raise ValueError(f"unknown sign_mode {self.sign_mode!r}")


def norm(x: np.ndarray) -> float:
    """Euclidean norm of a 1-D float vector: ``sqrt(x.dot(x))``, exactly what
    ``np.linalg.norm`` computes, without the dispatch."""
    return math.sqrt(x.dot(x))


def cosine(u: np.ndarray, v: np.ndarray, nu: float, nv: float) -> float:
    """Cosine of two 1-D float vectors; retrieval calls it once per ordered pair.

    Kernel contract: the benchmark's traced run counts those calls. ``nu``
    and ``nv`` are the norms of ``u`` and ``v`` as ``norm`` computes them;
    a caller that ranks many pairs computes each row's once and passes it
    in. ``u.dot(v)`` is the dot product ``u @ v`` makes, without the
    dispatch. Dividing it as a Python float gives the same bits as dividing
    the numpy scalar: both are one IEEE division of the same two doubles.
    """
    if nu == 0.0 or nv == 0.0:
        raise DegenerateEmbeddingError("cosine of a zero-norm vector is undefined")
    return float(u.dot(v)) / (nu * nv)


def head_gradients(
    zi: np.ndarray,
    zt: np.ndarray,
    heads: dict[str, np.ndarray],
    cfg: LossConfig = LossConfig(),
) -> tuple[float, dict[str, float], dict[str, np.ndarray]]:
    """Mean loss, mean per-term values, and analytic head gradients.

    ``zi`` and ``zt`` are (B, 3, c) image and text trunk outputs with
    anchor, positive and negative along axis 1. Gradients are of the
    batch-mean total with respect to each head.
    """
    if len(zi) == 0:
        raise ValueError("empty triplet batch")
    # emb[m, b, r]: modality m (0 image, 1 text), triplet b, role r (0 a, 1 p, 2 n)
    emb = np.stack([zi @ heads[IMAGE].T, zt @ heads[TEXT].T])
    norms = np.linalg.norm(emb, axis=-1, keepdims=True)
    # A NaN norm is truthy, and its hinge would count as inactive: check finiteness too.
    if not (norms.all() and np.isfinite(norms).all()):
        raise DegenerateEmbeddingError("cosine of a zero-norm or non-finite vector is undefined")
    unit = emb / norms
    sign = 1.0 if cfg.sign_mode == "corrected" else -1.0
    grad_unit = np.zeros_like(emb)
    terms = {}
    # (anchor modality, positive/negative modality) in TERM_NAMES order
    for name, (ma, mo) in zip(TERM_NAMES, ((0, 1), (1, 0), (0, 0), (1, 1))):
        weight = cfg.eta if ma != mo else 1.0 - cfg.eta
        a, p, n = unit[ma, :, 0], unit[mo, :, 1], unit[mo, :, 2]
        cos_ap = np.einsum("bc,bc->b", a, p)[:, None]
        cos_an = np.einsum("bc,bc->b", a, n)[:, None]
        z = sign * (cos_an - cos_ap) + cfg.alpha
        active = z > 0.0  # subgradient 0 at the kink and in the flat region
        terms[name] = float(np.where(active, z, 0.0).mean())
        # Only active rows get gradient work; see the module docstring for why the bits hold.
        rows = np.flatnonzero(active)
        a, p, n, cos_ap, cos_an = a[rows], p[rows], n[rows], cos_ap[rows], cos_an[rows]
        coef = weight * sign
        # d cos(u, v) / du = (v_hat - cos * u_hat) / |u|; the 1/|u| is applied below
        grad_unit[ma, rows, 0] += coef * ((n - cos_an * a) - (p - cos_ap * a))
        grad_unit[mo, rows, 1] -= coef * (a - cos_ap * p)
        grad_unit[mo, rows, 2] += coef * (a - cos_an * n)
    grad_emb = grad_unit / norms
    b, c = zi.shape[0], zi.shape[-1]
    grads = {
        IMAGE: grad_emb[0].reshape(-1, c).T @ zi.reshape(-1, c) / b,
        TEXT: grad_emb[1].reshape(-1, c).T @ zt.reshape(-1, c) / b,
    }
    total = cfg.eta * (terms["i2t"] + terms["t2i"]) + (1.0 - cfg.eta) * (terms["i2i"] + terms["t2t"])
    return total, terms, grads


@dataclass(frozen=True)
class OptimizerConfig:
    learning_rate: float = 0.01
    epochs: int = 20
    batch_size: int = 64
    seed: int = 0

    def __post_init__(self) -> None:
        if not 0 <= self.learning_rate < math.inf:
            raise ValueError(f"learning_rate must be finite and nonnegative, got {self.learning_rate!r}")
        if self.epochs < 1:
            raise ValueError(f"epochs must be >= 1, got {self.epochs!r}")
        if self.batch_size < 1:
            raise ValueError(f"batch_size must be >= 1, got {self.batch_size!r}")


# Adam's moment decay rates and denominator guard, at their usual values.
BETA1, BETA2, EPS = 0.9, 0.999, 1e-8


class Adam:
    """Standard Adam with bias correction, updating arrays in place."""

    def __init__(self, params: dict[str, np.ndarray], cfg: OptimizerConfig) -> None:
        self.params = params
        self.cfg = cfg
        self.t = 0
        self.m = {k: np.zeros_like(v) for k, v in params.items()}
        self.v = {k: np.zeros_like(v) for k, v in params.items()}

    def step(self, grads: dict[str, np.ndarray]) -> None:
        self.t += 1
        for key, g in grads.items():
            self.m[key] = BETA1 * self.m[key] + (1.0 - BETA1) * g
            self.v[key] = BETA2 * self.v[key] + (1.0 - BETA2) * g**2
            m_hat = self.m[key] / (1.0 - BETA1**self.t)
            v_hat = self.v[key] / (1.0 - BETA2**self.t)
            self.params[key] -= self.cfg.learning_rate * m_hat / (np.sqrt(v_hat) + EPS)


def train_heads(
    z_img: np.ndarray,
    z_txt: np.ndarray,
    triplets: np.ndarray,
    heads: dict[str, np.ndarray],
    loss_cfg: LossConfig = LossConfig(),
    opt_cfg: OptimizerConfig = OptimizerConfig(),
) -> tuple[dict[str, np.ndarray], list[dict]]:
    """Mini-batch Adam over pre-computed trunk outputs; the trained heads and the loss curve.

    ``z_img`` and ``z_txt`` are (N, c) trunk matrices with one row per
    sample; ``triplets`` is a (T, 3) array of anchor, positive and
    negative row indices into them. Each batch gathers only its own rows.
    The input heads are not mutated; training runs on copies. The curve
    has one row per epoch: ``epoch``, ``total``, then ``TERM_NAMES``, each
    the epoch's per-sample mean of the pre-update batch losses. Each epoch's
    shuffle is seeded by (seed, epoch number). A zero-norm or non-finite
    embedding, or a non-finite loss, is a ``ValueError`` that names the
    epoch and the batch.
    """
    if len(triplets) == 0:
        raise ValueError("no triplets to train on")
    trained = {k: v.copy() for k, v in heads.items()}
    optimizer = Adam(trained, opt_cfg)
    curve: list[dict] = []
    n = len(triplets)
    for epoch in range(1, opt_cfg.epochs + 1):
        order = np.random.default_rng((opt_cfg.seed, epoch)).permutation(n)
        total_sum = 0.0
        term_sums = dict.fromkeys(TERM_NAMES, 0.0)
        for start in range(0, n, opt_cfg.batch_size):
            rows = triplets[order[start : start + opt_cfg.batch_size]]
            where = f"epoch {epoch}, batch {start // opt_cfg.batch_size + 1}"
            try:
                batch_total, batch_terms, grads = head_gradients(z_img[rows], z_txt[rows], trained, loss_cfg)
            except DegenerateEmbeddingError as exc:
                raise DegenerateEmbeddingError(f"{where}: {exc}") from None
            if not np.isfinite(batch_total):
                raise ValueError(f"{where}: non-finite loss {batch_total!r}")
            optimizer.step(grads)
            total_sum += batch_total * len(rows)
            for k, v in batch_terms.items():
                term_sums[k] += v * len(rows)
        curve.append({"epoch": epoch, "total": total_sum / n, **{k: v / n for k, v in term_sums.items()}})
        logger.debug("epoch %d mean loss %.6f", epoch, curve[-1]["total"])
    return trained, curve
