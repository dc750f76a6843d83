"""The heads checkpoint, ``heads.ckpt``: the run record and the two projection heads.

Layout: the 8-byte magic ``MTHEADS1``, the 4-byte little-endian header length,
the UTF-8 JSON run record (an object), then the image head and the text head,
each ``EMBED_DIM`` x ``EMBED_DIM`` little-endian float64 in C order, so heads
round-trip bit-exactly. Loading checks the magic, that the header is a JSON
object and that exactly the two heads' bytes follow it; each error names the
file. Heads saved in the older named-array layout (magic ``MTCKPT01``) fail the
magic check and must be trained again.
"""

from __future__ import annotations

import json
from pathlib import Path

import numpy as np

from .corpus import atomic_write
from .encoder import EMBED_DIM, IMAGE, TEXT

MAGIC = b"MTHEADS1"
HEAD_SHAPE = (EMBED_DIM, EMBED_DIM)
HEADS_BYTES = 2 * EMBED_DIM * EMBED_DIM * 8  # two little-endian float64 heads


def save_checkpoint(path: str | Path, record: dict, heads: dict[str, np.ndarray]) -> None:
    """Write ``record`` and ``heads``, which must be exactly ``{IMAGE: ..., TEXT: ...}``, each of
    ``HEAD_SHAPE``, and ``record`` a dict; anything else is refused before a byte is written."""
    shapes = {m: np.shape(h) for m, h in heads.items()}
    if shapes != {IMAGE: HEAD_SHAPE, TEXT: HEAD_SHAPE} or not isinstance(record, dict):
        raise ValueError(f"{path}: a heads checkpoint takes a dict record and {IMAGE!r} and {TEXT!r} heads of shape "
                         f"{HEAD_SHAPE}; got a {type(record).__name__} record and heads {shapes}")
    header = json.dumps(record, sort_keys=True).encode("utf-8")
    payload = np.array([heads[IMAGE], heads[TEXT]], dtype="<f8").tobytes()
    with atomic_write(path, "wb") as fh:
        fh.write(MAGIC + len(header).to_bytes(4, "little") + header + payload)


def load_checkpoint(path: str | Path) -> tuple[dict, dict[str, np.ndarray]]:
    """The run record and ``{IMAGE: ..., TEXT: ...}`` heads that ``path`` holds."""
    raw = Path(path).read_bytes()
    if raw[: len(MAGIC)] != MAGIC:
        raise ValueError(f"{path}: not a heads checkpoint: magic {raw[:len(MAGIC)]!r}, not {MAGIC!r}; train again")
    start = len(MAGIC) + 4
    end = start + int.from_bytes(raw[len(MAGIC) : start], "little")
    try:
        record = json.loads(raw[start:end].decode("utf-8"))
    except ValueError as exc:  # a cut or undecodable header
        raise ValueError(f"{path}: checkpoint header is not JSON: {exc}") from None
    if not isinstance(record, dict):
        raise ValueError(f"{path}: checkpoint header is a JSON {type(record).__name__}, not an object")
    if len(raw) - end != HEADS_BYTES:
        raise ValueError(f"{path}: {len(raw) - end} bytes follow the header; the two heads take {HEADS_BYTES}")
    image, text = np.frombuffer(raw, "<f8", offset=end).astype(np.float64).reshape(2, *HEAD_SHAPE)
    return record, {IMAGE: image, TEXT: text}
