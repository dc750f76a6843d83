"""Image ingestion: ASCII portable graymaps and raw float grids.

``.pgm`` files must be plain (P2) graymaps; intensities are divided by
the declared maxval so pixels land in [0, 1]. ``.npy`` files hold the
row-major float grid directly and are clipped to [0, 1] on load; a NaN
or infinite pixel is an error.
"""

from __future__ import annotations

from pathlib import Path

import numpy as np

from .encoder import ImageSample

MAXVAL = 255  # the maxval ``write_pgm`` quantizes to and declares


def read_pgm(path: str | Path) -> ImageSample:
    path = Path(path)
    text = path.read_text(encoding="ascii")
    # Every line break is whitespace to str.split, so without comments one split gives the same tokens.
    if "#" in text:
        tokens = [token for line in text.splitlines() for token in line.split("#", 1)[0].split()]
    else:
        tokens = text.split()
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
    return ImageSample(grid / maxval)


def write_pgm(path: str | Path, pixels: np.ndarray) -> None:
    """Quantize a [0, 1] grid to integers in [0, MAXVAL] and write a plain graymap."""
    grid = np.clip(np.rint(np.asarray(pixels, dtype=np.float64) * MAXVAL), 0, MAXVAL).astype(int)
    height, width = grid.shape
    template = "\n".join(["P2", f"{width} {height}", str(MAXVAL), *[" ".join(["%d"] * width)] * height]) + "\n"
    Path(path).write_text(template % tuple(grid.ravel().tolist()), encoding="ascii")


def load_image(path: str | Path) -> ImageSample:
    path = Path(path)
    if path.suffix == ".pgm":
        return read_pgm(path)
    if path.suffix == ".npy":
        grid = np.load(path, allow_pickle=False)
        if grid.ndim != 2:
            raise ValueError(f"{path}: expected a 2-D grid, got shape {grid.shape}")
        grid = grid.astype(np.float64)
        if not np.isfinite(grid).all():
            raise ValueError(f"{path}: pixel values must be finite")
        return ImageSample(np.clip(grid, 0.0, 1.0))
    raise ValueError(f"{path}: unsupported image format {path.suffix!r} (want .pgm or .npy)")
