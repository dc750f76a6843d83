"""Independent oracles used to verify the production implementations.

The scoring oracle below is a direct, self-contained transcription of
the similarity definition over plain dicts and sets. It shares no code
with medtriplet.scoring; keep it that way. The breakdown oracle does the
kernel's float operations in the kernel's order, so its terms, prefactor
and total must equal the kernel's bit for bit. The retrieval oracle works
the same way over plain lists and sets and shares no code with
medtriplet.evaluation; neither does the AUC oracle, which counts
pairwise wins instead of ranking. The GELU oracle is the scalar tanh
formula on Python floats and ``math.tanh``. The loss oracle takes one
triplet at a time through four scalar hinges and shares no code with
medtriplet.alignment; the finite-difference check is built on it. The
dense head-gradient oracle is the batched gradient with every row's
hinge coefficient, zero or not, accumulated: the bits the active-row
gradient must reproduce. The graymap oracle is the token-by-token P2
parse, one Python string per pixel. The trunk oracle runs the frozen
forward pass with the layer-norm affine and every bias written out as
ones and zeros. The tokenizer oracle is a character loop over
``str.isalnum``.

This module imports nothing from medtriplet: the tests convert its plain
entity encoding with ``conftest.entities``.
"""

from __future__ import annotations

import math
from pathlib import Path

import numpy as np

# {disease: (adj set, dir set)} is the oracle-side entity encoding.
PlainEntities = dict


def oracle_score(mi: PlainEntities, mj: PlainEntities, g0: float, g1: float, g2: float, semantics: str) -> float:
    di, dj = set(mi), set(mj)
    inter = sorted(di & dj)
    union = di | dj
    if not inter:
        return 0.0
    total = 0.0
    for q in inter:
        adj_i, dir_i = mi[q]
        adj_j, dir_j = mj[q]
        adj_union, adj_inter = adj_i | adj_j, adj_i & adj_j
        dir_union, dir_inter = dir_i | dir_j, dir_i & dir_j
        ji_adj = len(adj_inter) / len(adj_union) if adj_union else 0.0
        ji_dir = len(dir_inter) / len(dir_union) if dir_union else 0.0
        if semantics == "union":
            d_adj = 1.0 if adj_union else 0.0
            d_dir = 1.0 if dir_union else 0.0
        else:
            d_adj = 1.0 if adj_inter else 0.0
            d_dir = 1.0 if dir_inter else 0.0
        numer = g0 + g1 * ji_adj + g2 * ji_dir
        denom = g0 + g1 * d_adj + g2 * d_dir
        total += numer / denom if denom > 0 else 1.0
    return total / len(union)


def oracle_score_breakdown(
    mi: PlainEntities, mj: PlainEntities, g0: float, g1: float, g2: float, semantics: str
) -> tuple[tuple[tuple[str, float, float, float], ...], float, float]:
    """(terms, prefactor, total) with the kernel's float operations in its order,
    over plain sets: each term is (disease, JI_adj, JI_dir, summand), the
    summands add left to right from 0 and the prefactor multiplies the sum."""
    shared = sorted(set(mi) & set(mj))
    if not shared:
        return (), 0.0, 0.0
    prefactor = 1.0 / len(set(mi) | set(mj))
    terms = []
    total = 0
    for q in shared:
        (adj_i, dir_i), (adj_j, dir_j) = mi[q], mj[q]
        adj_union, adj_inter = adj_i | adj_j, adj_i & adj_j
        dir_union, dir_inter = dir_i | dir_j, dir_i & dir_j
        ji_adj = len(adj_inter) / len(adj_union) if adj_union else 0.0
        ji_dir = len(dir_inter) / len(dir_union) if dir_union else 0.0
        numer = g0 + g1 * ji_adj + g2 * ji_dir
        if semantics == "union":
            denom = g0 + g1 * (1.0 if adj_union else 0.0) + g2 * (1.0 if dir_union else 0.0)
        else:
            denom = g0 + g1 * (1.0 if adj_inter else 0.0) + g2 * (1.0 if dir_inter else 0.0)
        summand = numer / denom if denom > 0 else 1.0
        terms.append((q, ji_adj, ji_dir, summand))
        total += summand
    return tuple(terms), prefactor, prefactor * total


def oracle_gelu(x: float) -> float:
    """Tanh-approximation GELU of one float."""
    return 0.5 * x * (1.0 + math.tanh(math.sqrt(2.0 / math.pi) * (x + 0.044715 * x**3)))


def oracle_hinge(a: np.ndarray, p: np.ndarray, n: np.ndarray, alpha: float, sign_mode: str = "corrected") -> float:
    """Triplet hinge of three 1-D vectors: max(0, cos(a, n) - cos(a, p) + alpha),
    the two cosines swapped under ``as-printed``."""

    def cos(u, v):
        return float(u.dot(v) / (math.sqrt(u.dot(u)) * math.sqrt(v.dot(v))))

    cos_ap, cos_an = cos(a, p), cos(a, n)
    if sign_mode == "corrected":
        return max(0.0, cos_an - cos_ap + alpha)
    return max(0.0, cos_ap - cos_an + alpha)


def oracle_loss(ei, et, cfg) -> tuple[float, dict[str, float]]:
    """Four-term loss of one triplet and its terms. ``ei`` and ``et`` hold the
    image and text embeddings of anchor, positive and negative, in that
    order; ``cfg`` supplies ``alpha``, ``eta`` and ``sign_mode``."""
    (i_a, i_p, i_n), (t_a, t_p, t_n) = ei, et
    terms = {
        name: oracle_hinge(a, p, n, cfg.alpha, cfg.sign_mode)
        for name, (a, p, n) in (
            ("i2t", (i_a, t_p, t_n)),
            ("t2i", (t_a, i_p, i_n)),
            ("i2i", (i_a, i_p, i_n)),
            ("t2t", (t_a, t_p, t_n)),
        )
    }
    total = cfg.eta * (terms["i2t"] + terms["t2i"]) + (1.0 - cfg.eta) * (terms["i2i"] + terms["t2t"])
    return total, terms


def oracle_mean_loss(zi: np.ndarray, zt: np.ndarray, wi: np.ndarray, wt: np.ndarray, cfg) -> float:
    """Batch-mean loss of (B, 3, c) image and text trunk blocks through heads
    ``wi`` and ``wt``, one triplet and one matrix-vector product at a time."""
    total = 0.0
    for zi_row, zt_row in zip(zi, zt):
        total += oracle_loss([wi @ z for z in zi_row], [wt @ z for z in zt_row], cfg)[0]
    return total / len(zi)


def oracle_head_gradients(zi: np.ndarray, zt: np.ndarray, wi: np.ndarray, wt: np.ndarray, cfg):
    """Mean loss, mean terms and (image, text) head gradients of (B, 3, c)
    trunk blocks, each term's gradient built and accumulated for every row,
    an inactive row's with a zero coefficient."""
    emb = np.stack([zi @ wi.T, zt @ wt.T])
    norms = np.linalg.norm(emb, axis=-1, keepdims=True)
    unit = emb / norms
    sign = 1.0 if cfg.sign_mode == "corrected" else -1.0
    grad_unit = np.zeros_like(emb)
    terms = {}
    for name, (ma, mo) in zip(("i2t", "t2i", "i2i", "t2t"), ((0, 1), (1, 0), (0, 0), (1, 1))):
        weight = cfg.eta if ma != mo else 1.0 - cfg.eta
        a, p, n = unit[ma, :, 0], unit[mo, :, 1], unit[mo, :, 2]
        cos_ap = np.einsum("bc,bc->b", a, p)[:, None]
        cos_an = np.einsum("bc,bc->b", a, n)[:, None]
        z = sign * (cos_an - cos_ap) + cfg.alpha
        active = z > 0.0
        terms[name] = float(np.where(active, z, 0.0).mean())
        coef = np.where(active, weight * sign, 0.0)
        grad_unit[ma, :, 0] += coef * ((n - cos_an * a) - (p - cos_ap * a))
        grad_unit[mo, :, 1] -= coef * (a - cos_ap * p)
        grad_unit[mo, :, 2] += coef * (a - cos_an * n)
    grad_emb = grad_unit / norms
    b, c = zi.shape[0], zi.shape[-1]
    grads = (
        grad_emb[0].reshape(-1, c).T @ zi.reshape(-1, c) / b,
        grad_emb[1].reshape(-1, c).T @ zt.reshape(-1, c) / b,
    )
    total = cfg.eta * (terms["i2t"] + terms["t2i"]) + (1.0 - cfg.eta) * (terms["i2i"] + terms["t2t"])
    return total, terms, grads


def oracle_gradient_error(zi, zt, wi, wt, cfg, analytic, step: float = 1e-4) -> float:
    """Worst relative error of ``analytic``, the (image, text) head gradients
    of the batch-mean loss, against its central finite differences: over both
    heads, max |analytic - fd| / max(max |analytic|, max |fd|, 1e-12)."""
    heads = (wi, wt)
    worst = 0.0
    for k, (w, grad) in enumerate(zip(heads, analytic)):
        fd = np.zeros_like(w)
        for idx in np.ndindex(w.shape):
            moved = list(heads)
            moved[k] = w.copy()
            moved[k][idx] = w[idx] + step
            up = oracle_mean_loss(zi, zt, *moved, cfg)
            moved[k][idx] = w[idx] - step
            down = oracle_mean_loss(zi, zt, *moved, cfg)
            fd[idx] = (up - down) / (2.0 * step)
        scale = max(float(np.abs(grad).max()), float(np.abs(fd).max()), 1e-12)
        worst = max(worst, float(np.abs(grad - fd).max()) / scale)
    return worst


def oracle_binary_auc(positive: list[bool], scores: list[float]) -> float:
    """One-vs-rest AUC over every positive/negative pair, ranks never formed:
    (wins + ties / 2) / (P * N)."""
    pos = [s for s, p in zip(scores, positive) if p]
    neg = [s for s, p in zip(scores, positive) if not p]
    wins = sum(1 for a in pos for b in neg if a > b)
    ties = sum(1 for a in pos for b in neg if a == b)
    return (wins + ties / 2) / (len(pos) * len(neg))


def enumerate_uniform_entities(
    diseases: tuple[str, ...], adj_pool: tuple[str, ...], dir_pool: tuple[str, ...]
) -> list[PlainEntities]:
    """Every entity over the disease subsets, with one adjective subset
    and one direction subset applied uniformly to all present diseases."""

    def subsets(pool):
        out = [set()]
        for item in pool:
            out += [s | {item} for s in out]
        return out

    entities: list[PlainEntities] = []
    seen: set[tuple] = set()
    for disease_subset in subsets(diseases):
        for adj in subsets(adj_pool):
            for direction in subsets(dir_pool):
                plain = {d: (set(adj), set(direction)) for d in sorted(disease_subset)}
                key = tuple((d, tuple(sorted(a)), tuple(sorted(r))) for d, (a, r) in sorted(plain.items()))
                if key not in seen:
                    seen.add(key)
                    entities.append(plain)
    return entities


def random_entities(
    rng: np.random.Generator,
    disease_pool: tuple[str, ...] = ("d1", "d2", "d3", "d4", "d5"),
    adj_pool: tuple[str, ...] = ("a1", "a2", "a3"),
    dir_pool: tuple[str, ...] = ("r1", "r2", "r3"),
    max_diseases: int = 3,
) -> PlainEntities:
    """Heterogeneous random entity: per-disease independent descriptor sets."""
    n = int(rng.integers(0, max_diseases + 1))
    chosen = rng.choice(len(disease_pool), size=n, replace=False) if n else []
    plain: PlainEntities = {}
    for idx in chosen:
        adj = {a for a in adj_pool if rng.random() < 0.4}
        direction = {d for d in dir_pool if rng.random() < 0.4}
        plain[disease_pool[int(idx)]] = (adj, direction)
    return plain


def _plain_labels(plain: PlainEntities, kind: str) -> set:
    if kind == "disease":
        return set(plain)
    return set().union(*(descriptors[0 if kind == "adjective" else 1] for descriptors in plain.values()))


def oracle_retrieval_report(
    queries: list[list[float]],
    gallery: list[list[float]],
    plain: list[PlainEntities],
    r_values,
    match_mode: str,
) -> dict[str, dict[int, float]]:
    """Mean P@R per kind: rank the other rows by (-cosine, row), then
    average Jaccard (or exact-match) consistency of the top R.

    The averages go through ``np.mean`` so that the summation order, and
    so every bit of the result, is the one the report uses.
    """

    def cos(u, v):
        dot = sum(a * b for a, b in zip(u, v))
        return dot / (math.sqrt(sum(a * a for a in u)) * math.sqrt(sum(b * b for b in v)))

    def consistency(a: set, b: set) -> float:
        if match_mode == "exact":
            return 1.0 if a == b else 0.0
        return len(a & b) / len(a | b) if a | b else 0.0

    out = {}
    for kind in ("disease", "adjective", "direction"):
        labels = [_plain_labels(p, kind) for p in plain]
        out[kind] = {}
        for r in r_values:
            per_query = []
            for i, query in enumerate(queries):
                ranked = sorted((-cos(query, gallery[j]), j) for j in range(len(gallery)) if j != i)
                per_query.append(100.0 * float(np.mean([consistency(labels[i], labels[j]) for _, j in ranked[:r]])))
            out[kind][r] = float(np.mean(per_query))
    return out


def oracle_read_pgm(path) -> np.ndarray:
    """Pixels in [0, 1] of an ASCII plain (P2) graymap, parsed token by token;
    each format error is a ValueError that starts with the path."""
    path = Path(path)
    text = path.read_text(encoding="ascii")
    tokens = [token for line in text.splitlines() for token in line.split("#", 1)[0].split()]
    if not tokens or tokens[0] != "P2":
        raise ValueError(f"{path}: not a plain (P2) graymap")
    if len(tokens) < 4:
        raise ValueError(f"{path}: truncated graymap header")
    sizes = tokens[1:4]
    if not all(token.isdecimal() and int(token) >= 1 for token in sizes):
        raise ValueError(f"{path}: width, height and maxval must be integers >= 1, got {' '.join(sizes)}")
    width, height, maxval = map(int, sizes)
    values = tokens[4:]
    if len(values) != width * height:
        raise ValueError(f"{path}: expected {width * height} pixels, found {len(values)}")
    try:
        grid = np.array(values, dtype=np.int64)
    except (ValueError, OverflowError):
        raise ValueError(f"{path}: pixel values must be integers") from None
    grid = grid.reshape(height, width)
    outside = grid[(grid < 0) | (grid > maxval)]
    if outside.size:
        raise ValueError(f"{path}: pixel value {outside[0]} outside [0, {maxval}]")
    return grid / maxval


def oracle_trunk_encode(
    trunk: dict, depth: int, heads: int, epsilon: float, pixels=None, patch_size: int = 0, ids=None
) -> np.ndarray:
    """Mean-pooled trunk output of (..., H, W) ``pixels`` cut into square
    patches, or of (..., n) token ``ids``: ``depth`` pre-norm blocks, each
    layer norm with a ones/zeros affine and each projection, the input one
    too, with a zero bias; the layer norm takes numpy's ``var``."""
    c = trunk["pos"].shape[1]
    ones, zeros, zeros_mlp = np.ones(c), np.zeros(c), np.zeros(trunk["block0.mlp.w1"].shape[1])
    if pixels is not None:
        *lead, rows, cols = pixels.shape
        patches = [
            pixels[..., r : r + patch_size, s : s + patch_size].reshape(*lead, patch_size * patch_size)
            for r in range(0, rows, patch_size)
            for s in range(0, cols, patch_size)
        ]
        projected = np.stack(patches, axis=-2) @ trunk["input.w"] + zeros
    else:
        projected = trunk["table"][np.asarray(ids)]
    h = projected + trunk["pos"][: projected.shape[-2]]

    def layer_norm(x):
        mean, var = x.mean(axis=-1, keepdims=True), x.var(axis=-1, keepdims=True)
        return (x - mean) / np.sqrt(var + epsilon) * ones + zeros

    def split(x):
        return x.reshape(*x.shape[:-1], heads, c // heads).swapaxes(-3, -2)

    for i in range(depth):
        w = {name[len(f"block{i}."):]: arr for name, arr in trunk.items() if name.startswith(f"block{i}.")}
        x = layer_norm(h)
        q, k, v = (split(x @ w[f"attn.w{name}"] + zeros) for name in "qkv")
        scores = q @ k.swapaxes(-1, -2) / np.sqrt(c // heads)
        e = np.exp(scores - scores.max(axis=-1, keepdims=True))
        mixed = (e / e.sum(axis=-1, keepdims=True) @ v).swapaxes(-3, -2).reshape(h.shape)
        h = h + mixed @ w["attn.wo"] + zeros
        u = layer_norm(h) @ w["mlp.w1"] + zeros_mlp
        gelu = 0.5 * u * (1.0 + np.tanh(np.sqrt(2.0 / np.pi) * (u + 0.044715 * (u * u * u))))
        h = h + (gelu @ w["mlp.w2"] + zeros)
    return h.mean(axis=-2)


def oracle_tokenize(text: str) -> list[str]:
    """Lowercase alphanumeric runs are words; a run of ``. ! ? ;`` after a
    word is one "." token, and any other character only separates. Breaks
    at the start or end are dropped."""
    tokens: list[str] = []
    word: list[str] = []
    for ch in text.lower():
        if ch.isalnum():
            word.append(ch)
            continue
        if word:
            tokens.append("".join(word))
            word = []
        if ch in ".!?;" and tokens and tokens[-1] != ".":
            tokens.append(".")
    if word:
        tokens.append("".join(word))
    while tokens and tokens[-1] == ".":
        tokens.pop()
    return tokens
