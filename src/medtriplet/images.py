"""Image ingestion: ASCII portable graymaps and raw float grids.

``.pgm`` files must be plain (P2) graymaps; intensities are divided by
the declared maxval so pixels land in [0, 1]. ``.npy`` files hold the
row-major grid directly, of a bool, integer or float dtype, and are
clipped to [0, 1] on load; a NaN or infinite pixel is an error.
"""

from __future__ import annotations

import math
import warnings
from pathlib import Path

import numpy as np

from .encoder import ImageSample

MAXVAL = 255  # the maxval ``write_pgm`` quantizes to and declares


def read_pgm(path: str | Path) -> ImageSample:
    path = Path(path)
    try:
        text = path.read_text(encoding="ascii")
    except UnicodeDecodeError as exc:
        byte = exc.object[exc.start]
        raise ValueError(f"{path}: not a P2 graymap: byte {byte:#04x} at offset {exc.start} is not ASCII") from None
    if "#" in text:
        text = "\n".join(line.split("#", 1)[0] for line in text.splitlines())
    # Magic, width, height, maxval, then the body, which split starts at a non-space (np.fromstring reads "  " as 0).
    fields = text.split(maxsplit=4)
    if not fields or fields[0] != "P2":
        raise ValueError(f"{path}: not a plain (P2) graymap")
    if len(fields) < 4:
        raise ValueError(f"{path}: truncated graymap header")
    sizes = fields[1:4]
    if not all(token.isdecimal() and int(token) >= 1 for token in sizes):
        raise ValueError(f"{path}: width, height and maxval must be integers >= 1, got {' '.join(sizes)}")
    width, height, maxval = map(int, sizes)
    try:
        with warnings.catch_warnings():
            # Older numpy only warns, and stops reading, at a token that is not an integer.
            warnings.simplefilter("error", DeprecationWarning)
            grid = np.fromstring("".join(fields[4:]), dtype=np.int64, sep=" ")
    except (ValueError, DeprecationWarning):
        raise ValueError(f"{path}: pixel values must be integers") from None
    if grid.size != width * height:
        raise ValueError(f"{path}: expected {width * height} pixels, found {grid.size}")
    grid = grid.reshape(height, width)
    outside = grid[(grid < 0) | (grid > maxval)]
    if outside.size:
        raise ValueError(f"{path}: pixel value {outside[0]} outside [0, {maxval}]")
    return ImageSample(grid / maxval)


def write_pgm(path: str | Path, pixels: np.ndarray) -> None:
    """Quantize a [0, 1] grid to integers in [0, MAXVAL] and write a plain graymap;
    a grid that is not 2-D or not finite is an error, and nothing is written."""
    grid = np.asarray(pixels, dtype=np.float64)
    if grid.ndim != 2:
        raise ValueError(f"{path}: expected a 2-D grid, got shape {grid.shape}")
    if not np.isfinite(grid).all():
        raise ValueError(f"{path}: pixel values must be finite")
    grid = np.clip(np.rint(grid * MAXVAL), 0, MAXVAL).astype(int)
    height, width = grid.shape
    template = "\n".join(["P2", f"{width} {height}", str(MAXVAL), *[" ".join(["%d"] * width)] * height]) + "\n"
    Path(path).write_text(template % tuple(grid.ravel().tolist()), encoding="ascii")


def load_image(path: str | Path) -> ImageSample:
    path = Path(path)
    if path.suffix == ".pgm":
        return read_pgm(path)
    if path.suffix == ".npy":
        fmt = np.lib.format
        try:
            with open(path, "rb") as fh:  # read the header alone, so no array is made before its size is checked
                read_header = fmt.read_array_header_1_0 if fmt.read_magic(fh) == (1, 0) else fmt.read_array_header_2_0
                shape, fortran, dtype = read_header(fh)
                data = fh.read()
            declared = dtype.itemsize * math.prod(shape)
            if declared != len(data):
                raise ValueError(f"shape {shape} of {dtype.str} takes {declared} bytes; {len(data)} follow the header")
            grid = np.frombuffer(data, dtype).reshape(shape, order="F" if fortran else "C")
        except ValueError as exc:
            raise ValueError(f"{path}: {exc}") from None
        if grid.dtype.kind not in "biuf":
            raise ValueError(f"{path}: pixel dtype {grid.dtype} is not bool, integer or float")
        if grid.ndim != 2:
            raise ValueError(f"{path}: expected a 2-D grid, got shape {grid.shape}")
        grid = grid.astype(np.float64)
        if not np.isfinite(grid).all():
            raise ValueError(f"{path}: pixel values must be finite")
        return ImageSample(np.clip(grid, 0.0, 1.0))
    raise ValueError(f"{path}: unsupported image format {path.suffix!r} (want .pgm or .npy)")
