"""Deterministic toy transformer encoders for images and token sequences.

Images are cut into non-overlapping patches and linearly projected; text
tokens index a hashed embedding table. Learnable position encodings are
added, the sequence runs through pre-norm attention/MLP blocks with
residual connections, and the final hidden states are mean-pooled into a
single vector. Elementwise steps run in place in arrays the step made
itself, never in a caller's, with the operations and operands of the plain
expression. Every step works on the last two axes, so one code path takes
one sample, giving a (c,) vector, or a stack of N same-shape images or
equal-length token sequences, giving (N, c) rows with the same bits as
encoding each sample alone. ``init_head`` seeds the per-modality square
projection head that maps a pooled trunk output to the embedding
alignment trains (the pipeline applies it to whole trunk matrices); the
trunk itself, a ``{name: array}`` dict, stays frozen at its seeded
random initialization. So it holds only the random weight matrices:
layer norms have no affine and projections no biases, which frozen at
ones and zeros would leave every bit of the output as it is.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass

import numpy as np

from .lemma import SENTENCE_BREAK, lemmatize

IMAGE = "image"
TEXT = "text"

# Fixed shape and numerics of the toy trunks and heads; not settings of the method.
PATCH_SIZE = 8  # side of the square image patches
EMBED_DIM = 64  # trunk width and head size
DEPTH = 2  # transformer blocks per trunk
HEADS = 4  # attention heads per block
HEAD_DIM = EMBED_DIM // HEADS  # width of each head; HEADS divides EMBED_DIM
MAX_SEQ_LEN = 64  # most image patches or text tokens a trunk takes
MLP_RATIO = 4  # MLP hidden width per embedding dimension
LN_EPSILON = 1e-5
VOCAB_SIZE = 4096  # rows of the hashed text embedding table
INIT_SCALE = 0.02  # standard deviation of every random init draw


@dataclass(frozen=True)
class ImageSample:
    """H x W grid of intensities in [0, 1], or a stack of N such grids of one shape, (N, H, W)."""

    pixels: np.ndarray

    def __post_init__(self) -> None:
        if self.pixels.ndim not in (2, 3):
            raise ValueError(f"expected a 2-D intensity grid or a 3-D stack of them, got shape {self.pixels.shape}")


@dataclass(frozen=True)
class TokenSequence:
    """Hashed token ids, truncated to ``MAX_SEQ_LEN``; or a stack of N
    sequences of one length, as a tuple of N id tuples."""

    ids: tuple[int, ...] | tuple[tuple[int, ...], ...]

    def __post_init__(self) -> None:
        rows = self.ids if self.ids and isinstance(self.ids[0], tuple) else (self.ids,)
        if any(not isinstance(row, tuple) or len(row) != len(rows[0]) for row in rows[1:]):
            raise ValueError("a stack of token sequences must hold id tuples of one length")
        if len(rows[0]) < 1:
            raise ValueError("token sequence must be non-empty")
        if any(i < 0 for row in rows for i in row):
            raise ValueError("token ids must be nonnegative")


def hash_token(token: str) -> int:
    """Stable token id: SHA-256 of the token modulo the vocabulary size."""
    digest = hashlib.sha256(token.encode("utf-8")).digest()
    return int.from_bytes(digest[:8], "big") % VOCAB_SIZE


def tokenize_text(text: str) -> TokenSequence:
    """Lemmatize, hash, and truncate report text into a TokenSequence.

    Sentence-break tokens carry no content and are dropped. Text with no
    alphanumeric content maps to the single reserved id 0.
    """
    words = [t for t in lemmatize(text) if t != SENTENCE_BREAK]
    ids = [hash_token(w) for w in words[:MAX_SEQ_LEN]]
    return TokenSequence(tuple(ids) if ids else (0,))


def _init_blocks(rng: np.random.Generator) -> dict[str, np.ndarray]:
    c = EMBED_DIM
    hidden = MLP_RATIO * c
    params: dict[str, np.ndarray] = {}
    for i in range(DEPTH):
        p = f"block{i}."
        for name in ("wq", "wk", "wv", "wo"):
            params[p + f"attn.{name}"] = rng.normal(0.0, INIT_SCALE, (c, c))
        params[p + "mlp.w1"] = rng.normal(0.0, INIT_SCALE, (c, hidden))
        params[p + "mlp.w2"] = rng.normal(0.0, INIT_SCALE, (hidden, c))
    return params


def init_image_trunk(seed: int) -> dict[str, np.ndarray]:
    rng = np.random.default_rng((seed, 0))
    params = {
        "input.w": rng.normal(0.0, INIT_SCALE, (PATCH_SIZE * PATCH_SIZE, EMBED_DIM)),
        "pos": rng.normal(0.0, INIT_SCALE, (MAX_SEQ_LEN, EMBED_DIM)),
    }
    params.update(_init_blocks(rng))
    return params


def init_text_trunk(seed: int) -> dict[str, np.ndarray]:
    rng = np.random.default_rng((seed, 1))
    params = {
        "table": rng.normal(0.0, INIT_SCALE, (VOCAB_SIZE, EMBED_DIM)),
        "pos": rng.normal(0.0, INIT_SCALE, (MAX_SEQ_LEN, EMBED_DIM)),
    }
    params.update(_init_blocks(rng))
    return params


def init_head(seed: int, modality: str) -> np.ndarray:
    """Trainable c x c projection head, seeded per modality."""
    rng = np.random.default_rng((seed, 2 if modality == IMAGE else 3))
    return rng.normal(0.0, INIT_SCALE, (EMBED_DIM, EMBED_DIM))


def _patch_grid(h: int, w: int) -> tuple[int, int]:
    """Patch rows and columns of an h x w image; an empty one, or sides the patch does not divide, are an error."""
    if not h or not w:
        raise ValueError(f"image {h}x{w} has no pixels")
    if h % PATCH_SIZE or w % PATCH_SIZE:
        raise ValueError(f"image {h}x{w} not divisible by patch size {PATCH_SIZE}")
    return h // PATCH_SIZE, w // PATCH_SIZE


def _check_length(n: int) -> None:
    if n > MAX_SEQ_LEN:
        raise ValueError(f"sequence length {n} exceeds max_seq_len {MAX_SEQ_LEN}")


def check_image(image: ImageSample) -> None:
    """Raise the error the image trunk would raise for ``image``, without encoding it."""
    rows, cols = _patch_grid(*image.pixels.shape[-2:])
    _check_length(rows * cols)


def patchify(image: ImageSample) -> np.ndarray:
    """Row-major non-overlapping patches, each flattened row-major: (..., patches, PATCH_SIZE**2)."""
    *lead, h, w = image.pixels.shape
    rows, cols = _patch_grid(h, w)
    return (
        image.pixels.reshape(*lead, rows, PATCH_SIZE, cols, PATCH_SIZE)
        .swapaxes(-3, -2)
        .reshape(*lead, rows * cols, PATCH_SIZE * PATCH_SIZE)
    )


def _layer_norm(x: np.ndarray) -> np.ndarray:
    # Center once and reuse it for the variance: bit-identical to x.var(), without its second mean pass.
    centered = x - x.mean(axis=-1, keepdims=True)
    var = (centered * centered).sum(axis=-1, keepdims=True) / x.shape[-1]
    var += LN_EPSILON
    centered /= np.sqrt(var, out=var)
    return centered


def _gelu(x: np.ndarray) -> np.ndarray:
    # tanh approximation, 0.5 * x * (1 + tanh(sqrt(2 / pi) * (x + 0.044715 * x * x * x))),
    # step by step in one array of its own. The cube is an exact product: numpy
    # sends x**3 with negative float64 bases down a slow pow path, about 50x the cost.
    inner = x * x
    inner *= x
    inner *= 0.044715
    inner += x
    inner *= np.sqrt(2.0 / np.pi)
    np.tanh(inner, out=inner)
    inner += 1.0
    inner *= x
    inner *= 0.5  # exact above the subnormals: the bits of multiplying by 0.5 * x, without that temporary
    return inner


def _attention(x: np.ndarray, p: dict[str, np.ndarray], prefix: str) -> np.ndarray:
    """Softmax attention matrices (..., heads, n, n) from the already layer-normed block input ``x``."""
    q = (x @ p[prefix + "attn.wq"]).reshape(*x.shape[:-1], HEADS, HEAD_DIM).swapaxes(-3, -2)
    k = (x @ p[prefix + "attn.wk"]).reshape(*x.shape[:-1], HEADS, HEAD_DIM).swapaxes(-3, -2)
    scores = q @ k.swapaxes(-1, -2)
    scores /= np.sqrt(HEAD_DIM)
    scores -= scores.max(axis=-1, keepdims=True)
    np.exp(scores, out=scores)
    scores /= scores.sum(axis=-1, keepdims=True)
    return scores


def transformer_block(h: np.ndarray, p: dict[str, np.ndarray], block: int) -> np.ndarray:
    """Pre-norm multi-head self-attention and MLP, each with a residual, on (..., n, c) hidden states."""
    prefix = f"block{block}."
    x = _layer_norm(h)
    *lead, n, c = h.shape
    v = (x @ p[prefix + "attn.wv"]).reshape(*lead, n, HEADS, HEAD_DIM).swapaxes(-3, -2)
    mixed = (_attention(x, p, prefix) @ v).swapaxes(-3, -2).reshape(*lead, n, c)
    out = mixed @ p[prefix + "attn.wo"]
    out += h
    out += _gelu(_layer_norm(out) @ p[prefix + "mlp.w1"]) @ p[prefix + "mlp.w2"]
    return out


def embed_input(sample: ImageSample | TokenSequence, trunk: dict[str, np.ndarray]) -> np.ndarray:
    """Initial hidden sequences (..., n, c): learnable linear map plus position encodings."""
    if isinstance(sample, ImageSample):
        projected = patchify(sample) @ trunk["input.w"]
    else:
        ids = np.asarray(sample.ids, dtype=np.int64)
        if ids.max(initial=0) >= trunk["table"].shape[0]:
            raise ValueError("token id outside the embedding table")
        projected = trunk["table"][ids]
    n = projected.shape[-2]
    _check_length(n)
    projected += trunk["pos"][:n]
    return projected


def trunk_encode(sample: ImageSample | TokenSequence, trunk: dict[str, np.ndarray]) -> np.ndarray:
    """Frozen-trunk forward pass, mean-pooled over sequence positions.

    One sample gives a (c,) vector; a stack of N gives (N, c), each row
    bit-identical to encoding that sample alone.
    """
    h = embed_input(sample, trunk)
    for i in range(DEPTH):
        h = transformer_block(h, trunk, i)
    return h.mean(axis=-2)
