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
The scalar ``multimodal_loss``/``triplet_hinge`` path is kept, one
triplet at a time, as the independent oracle behind the central
finite-difference check (``mean_loss``, ``gradient_report``).

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
from pathlib import Path
from typing import Sequence

import numpy as np

from .corpus import write_jsonl
from .encoder import IMAGE, TEXT

logger = logging.getLogger(__name__)

TERM_NAMES = ("i2t", "t2i", "i2i", "t2t")


class DegenerateEmbeddingError(ValueError):
    """Zero-norm vector where a cosine similarity is required."""


@dataclass(frozen=True)
class LossConfig:
    alpha: float = 0.3
    eta: float = 0.5
    sign_mode: str = "corrected"  # or "as-printed"

    def __post_init__(self) -> None:
        if self.alpha < 0:
            raise ValueError(f"margin alpha must be nonnegative, got {self.alpha!r}")
        if not 0.0 <= self.eta <= 1.0:
            raise ValueError(f"eta must lie in [0, 1], got {self.eta!r}")
        if self.sign_mode not in ("corrected", "as-printed"):
            raise ValueError(f"unknown sign_mode {self.sign_mode!r}")


@dataclass(frozen=True)
class TripletEmbeddings:
    """Image and text embeddings for anchor, positive and negative."""

    ei_a: np.ndarray
    ei_p: np.ndarray
    ei_n: np.ndarray
    et_a: np.ndarray
    et_p: np.ndarray
    et_n: np.ndarray


def norm(x: np.ndarray) -> float:
    """Euclidean norm of a 1-D float vector: ``sqrt(x.dot(x))``, exactly what
    ``np.linalg.norm`` computes, without the dispatch."""
    return math.sqrt(x.dot(x))


def cosine(u: np.ndarray, v: np.ndarray, nu: float | None = None, nv: float | None = None) -> float:
    """Cosine of two 1-D float vectors; retrieval calls it once per ordered pair.

    Kernel contract: the benchmark's traced run counts those calls. ``nu``
    and ``nv`` are the norms of ``u`` and ``v`` as ``norm`` computes them;
    a caller that ranks many pairs computes each row's once and passes it
    in, and a missing one is computed here, so the floats are the same
    either way. ``u.dot(v)`` is the dot product ``u @ v`` makes, without
    the dispatch.
    """
    nu = norm(u) if nu is None else nu
    nv = norm(v) if nv is None else nv
    if nu == 0.0 or nv == 0.0:
        raise DegenerateEmbeddingError("cosine of a zero-norm vector is undefined")
    return float(u.dot(v) / (nu * nv))


def triplet_hinge(
    ea: np.ndarray, ep: np.ndarray, en: np.ndarray, alpha: float, sign_mode: str = "corrected"
) -> float:
    """Hinge over the anchor's two cosine similarities; always >= 0."""
    cos_ap = cosine(ea, ep)
    cos_an = cosine(ea, en)
    if sign_mode == "corrected":
        return max(0.0, cos_an - cos_ap + alpha)
    return max(0.0, cos_ap - cos_an + alpha)


def multimodal_loss(t: TripletEmbeddings, cfg: LossConfig = LossConfig()) -> tuple[float, dict[str, float]]:
    """Total objective and its four constituent terms for one triplet."""
    terms = {
        "i2t": triplet_hinge(t.ei_a, t.et_p, t.et_n, cfg.alpha, cfg.sign_mode),
        "t2i": triplet_hinge(t.et_a, t.ei_p, t.ei_n, cfg.alpha, cfg.sign_mode),
        "i2i": triplet_hinge(t.ei_a, t.ei_p, t.ei_n, cfg.alpha, cfg.sign_mode),
        "t2t": triplet_hinge(t.et_a, t.et_p, t.et_n, cfg.alpha, cfg.sign_mode),
    }
    total = cfg.eta * (terms["i2t"] + terms["t2i"]) + (1.0 - cfg.eta) * (terms["i2i"] + terms["t2t"])
    return total, terms


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
    if not norms.all():
        raise DegenerateEmbeddingError("cosine of a zero-norm vector is undefined")
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
        # d cos(u, v) / du = (v_hat - cos * u_hat) / |u|; the 1/|u| is applied below
        coef = np.where(active, weight * sign, 0.0)
        grad_unit[ma, :, 0] += coef * ((n - cos_an * a) - (p - cos_ap * a))
        grad_unit[mo, :, 1] -= coef * (a - cos_ap * p)
        grad_unit[mo, :, 2] += coef * (a - cos_an * n)
    grad_emb = grad_unit / norms
    b, c = zi.shape[0], zi.shape[-1]
    grads = {
        IMAGE: grad_emb[0].reshape(-1, c).T @ zi.reshape(-1, c) / b,
        TEXT: grad_emb[1].reshape(-1, c).T @ zt.reshape(-1, c) / b,
    }
    total = cfg.eta * (terms["i2t"] + terms["t2i"]) + (1.0 - cfg.eta) * (terms["i2i"] + terms["t2t"])
    return total, terms, grads


def mean_loss(zi: np.ndarray, zt: np.ndarray, heads: dict[str, np.ndarray], cfg: LossConfig) -> float:
    """Batch-mean loss, one triplet at a time through the scalar ``multimodal_loss``."""
    total = 0.0
    for zi_row, zt_row in zip(zi, zt):
        ei = [heads[IMAGE] @ z for z in zi_row]
        et = [heads[TEXT] @ z for z in zt_row]
        total += multimodal_loss(TripletEmbeddings(*ei, *et), cfg)[0]
    return total / len(zi)


def finite_difference_gradients(
    zi: np.ndarray,
    zt: np.ndarray,
    heads: dict[str, np.ndarray],
    cfg: LossConfig = LossConfig(),
    step: float = 1e-4,
) -> dict[str, np.ndarray]:
    """Central finite differences of the batch-mean loss, element by element."""
    fd = {}
    for modality, w in heads.items():
        g = np.zeros_like(w)
        for idx in np.ndindex(w.shape):
            perturbed = {m: (w_.copy() if m == modality else w_) for m, w_ in heads.items()}
            perturbed[modality][idx] = w[idx] + step
            up = mean_loss(zi, zt, perturbed, cfg)
            perturbed[modality][idx] = w[idx] - step
            down = mean_loss(zi, zt, perturbed, cfg)
            g[idx] = (up - down) / (2.0 * step)
        fd[modality] = g
    return fd


def gradient_report(
    zi: np.ndarray,
    zt: np.ndarray,
    heads: dict[str, np.ndarray],
    cfg: LossConfig = LossConfig(),
    step: float = 1e-4,
) -> float:
    """Max over heads of the max-norm of the analytic minus the finite-difference
    gradient, divided by the max-norm of the larger of the two."""
    _, _, analytic = head_gradients(zi, zt, heads, cfg)
    fd = finite_difference_gradients(zi, zt, heads, cfg, step)
    worst = 0.0
    for modality in heads:
        scale = max(
            float(np.abs(analytic[modality]).max()),
            float(np.abs(fd[modality]).max()),
            1e-12,
        )
        worst = max(worst, float(np.abs(analytic[modality] - fd[modality]).max()) / scale)
    return worst


@dataclass(frozen=True)
class OptimizerConfig:
    learning_rate: float = 0.01
    beta1: float = 0.9
    beta2: float = 0.999
    eps: float = 1e-8
    epochs: int = 20
    batch_size: int = 64
    seed: int = 0

    def __post_init__(self) -> None:
        if self.learning_rate < 0:
            raise ValueError(f"learning_rate must be nonnegative, got {self.learning_rate!r}")
        for name, beta in (("beta1", self.beta1), ("beta2", self.beta2)):
            if not 0.0 <= beta < 1.0:
                raise ValueError(f"{name} must lie in [0, 1), got {beta!r}")
        if self.eps <= 0:
            raise ValueError(f"eps must be positive, got {self.eps!r}")
        if self.epochs < 1:
            raise ValueError(f"epochs must be >= 1, got {self.epochs!r}")
        if self.batch_size < 1:
            raise ValueError(f"batch_size must be >= 1, got {self.batch_size!r}")


class Adam:
    """Standard Adam with bias correction, updating arrays in place."""

    def __init__(self, params: dict[str, np.ndarray], cfg: OptimizerConfig) -> None:
        self.params = params
        self.cfg = cfg
        self.t = 0
        self.m = {k: np.zeros_like(v) for k, v in params.items()}
        self.v = {k: np.zeros_like(v) for k, v in params.items()}

    def step(self, grads: dict[str, np.ndarray]) -> None:
        c = self.cfg
        self.t += 1
        for key, g in grads.items():
            self.m[key] = c.beta1 * self.m[key] + (1.0 - c.beta1) * g
            self.v[key] = c.beta2 * self.v[key] + (1.0 - c.beta2) * g**2
            m_hat = self.m[key] / (1.0 - c.beta1**self.t)
            v_hat = self.v[key] / (1.0 - c.beta2**self.t)
            self.params[key] -= c.learning_rate * m_hat / (np.sqrt(v_hat) + c.eps)


@dataclass(frozen=True)
class EpochStats:
    epoch: int
    total: float
    terms: dict[str, float]


@dataclass
class TrainResult:
    heads: dict[str, np.ndarray]
    curve: list[EpochStats]


def train_heads(
    z_img: np.ndarray,
    z_txt: np.ndarray,
    triplets: np.ndarray,
    heads: dict[str, np.ndarray],
    loss_cfg: LossConfig = LossConfig(),
    opt_cfg: OptimizerConfig = OptimizerConfig(),
) -> TrainResult:
    """Mini-batch Adam over pre-computed trunk outputs.

    ``z_img`` and ``z_txt`` are (N, c) trunk matrices with one row per
    sample; ``triplets`` is a (T, 3) array of anchor, positive and
    negative row indices into them. Each batch gathers only its own rows.
    The input heads are not mutated; training runs on copies. Loss per
    epoch is the mean over batches of the pre-update batch loss. Each
    epoch's shuffle is seeded by (seed, epoch number).
    """
    if len(triplets) == 0:
        raise ValueError("no triplets to train on")
    trained = {k: v.copy() for k, v in heads.items()}
    optimizer = Adam(trained, opt_cfg)
    curve: list[EpochStats] = []
    n = len(triplets)
    for epoch in range(1, opt_cfg.epochs + 1):
        order = np.random.default_rng((opt_cfg.seed, epoch)).permutation(n)
        total_sum = 0.0
        term_sums = dict.fromkeys(TERM_NAMES, 0.0)
        for start in range(0, n, opt_cfg.batch_size):
            rows = triplets[order[start : start + opt_cfg.batch_size]]
            batch_total, batch_terms, grads = head_gradients(z_img[rows], z_txt[rows], trained, loss_cfg)
            if not np.isfinite(batch_total):
                raise RuntimeError(
                    f"non-finite loss at epoch {epoch}, batch starting {start}: {batch_total!r}"
                )
            optimizer.step(grads)
            total_sum += batch_total * len(rows)
            for k, v in batch_terms.items():
                term_sums[k] += v * len(rows)
        curve.append(
            EpochStats(epoch, total_sum / n, {k: v / n for k, v in term_sums.items()})
        )
        logger.debug("epoch %d mean loss %.6f", epoch, curve[-1].total)
    return TrainResult(heads=trained, curve=curve)


def write_loss_curve(path: str | Path, curve: Sequence[EpochStats]) -> None:
    records = ({"epoch": s.epoch, "total": s.total, **{k: s.terms[k] for k in TERM_NAMES}} for s in curve)
    write_jsonl(path, records)
