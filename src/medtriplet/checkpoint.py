"""Flat binary checkpoints with a JSON header.

Layout: 8-byte magic, 4-byte little-endian header length, UTF-8 JSON
header, then the raw array payload. The header records the config
mapping plus, per array, name/dtype/shape/offset into the payload.
Arrays round-trip bit-exactly: everything is stored C-contiguous in
little-endian byte order. Loading checks that the header and every
array fit the file; each error names the file.
"""

from __future__ import annotations

import json
import math
from pathlib import Path

import numpy as np

from .corpus import atomic_write

MAGIC = b"MTCKPT01"


def save_checkpoint(path: str | Path, config: dict, arrays: dict[str, np.ndarray]) -> None:
    entries = []
    payload = bytearray()
    for name in sorted(arrays):
        arr = np.asarray(arrays[name])
        if arr.dtype.byteorder == ">":
            arr = arr.astype(arr.dtype.newbyteorder("<"))
        entries.append(
            {
                "name": name,
                "dtype": arr.dtype.str,
                "shape": list(arr.shape),
                "offset": len(payload),
                "nbytes": arr.nbytes,
            }
        )
        payload.extend(arr.tobytes())
    header = json.dumps({"config": config, "arrays": entries}, sort_keys=True).encode("utf-8")
    with atomic_write(path, "wb") as fh:
        fh.write(MAGIC)
        fh.write(len(header).to_bytes(4, "little"))
        fh.write(header)
        fh.write(bytes(payload))


def _array(payload: bytes, entry: dict) -> np.ndarray:
    """One header entry's array, checked to lie inside ``payload`` and to
    hold exactly ``prod(shape)`` items of its dtype."""
    dtype, shape = np.dtype(entry["dtype"]), tuple(entry["shape"])
    start, nbytes = entry["offset"], entry["nbytes"]
    if not all(isinstance(x, int) and x >= 0 for x in (start, nbytes, *shape)):
        raise ValueError(f"offset {start!r}, nbytes {nbytes!r} and shape {list(shape)} must be non-negative integers")
    if nbytes != dtype.itemsize * math.prod(shape):
        raise ValueError(f"nbytes {nbytes} does not hold shape {list(shape)} of {dtype.str}")
    if start + nbytes > len(payload):
        raise ValueError(f"bytes [{start}, {start + nbytes}) run past the {len(payload)}-byte payload")
    return np.frombuffer(payload, dtype=dtype, count=math.prod(shape), offset=start).reshape(shape).copy()


def load_checkpoint(path: str | Path) -> tuple[dict, dict[str, np.ndarray]]:
    raw = Path(path).read_bytes()
    if raw[: len(MAGIC)] != MAGIC:
        raise ValueError(f"{path}: not a checkpoint file (bad magic)")
    header_start = len(MAGIC) + 4
    header_len = int.from_bytes(raw[len(MAGIC) : header_start], "little")
    if len(raw) < header_start + header_len:
        raise ValueError(f"{path}: truncated: the {header_len}-byte header runs past the {len(raw)}-byte file")
    try:
        header = json.loads(raw[header_start : header_start + header_len].decode("utf-8"))
        config, entries = header["config"], list(header["arrays"])
    except (ValueError, KeyError, TypeError) as exc:
        raise ValueError(f"{path}: unreadable checkpoint header: {exc!r}") from None
    payload = raw[header_start + header_len :]
    arrays: dict[str, np.ndarray] = {}
    for entry in entries:
        name = entry.get("name") if isinstance(entry, dict) else None
        if not isinstance(name, str):
            raise ValueError(f"{path}: checkpoint header entry without a name: {entry!r}")
        try:
            arrays[name] = _array(payload, entry)
        except KeyError as exc:
            raise ValueError(f"{path}: array {name!r}: header entry has no {exc} field") from None
        except (ValueError, TypeError) as exc:
            raise ValueError(f"{path}: array {name!r}: {exc}") from None
    return config, arrays
