"""Deterministic synthetic image-report corpora for desk-scale runs.

Each class gets a distinct spatial texture; the report names the class
with sampled adjective and direction words. The direction places a
bright block in the matching image region and the adjective sets its
contrast, so images genuinely carry the attributes their reports
describe. With a positive overlap rate some records name a second class
(whose texture is blended in at lower amplitude), which produces the
partial disease overlaps that semi-hard mining bands rely on.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .corpus import CorpusRecord, write_corpus, write_jsonl
from .encoder import ImageSample, check_image
from .images import write_pgm

TRUTH_SCHEMA = "truth/v1"
# Intensity of a record's primary class texture (a second class gets 0.6 of it).
TEXTURE_AMPLITUDE = 0.35
# Standard deviation of the Gaussian pixel noise added to every image.
NOISE = 0.02
# Integer tag of the per-class texture-mask seed stream (default_rng takes only integers).
_TEXTURE_STREAM = 1

# Disease canonicals available to the generator, in assignment order.
CLASS_POOL = (
    "pleural effusion",
    "pneumonia",
    "edema",
    "cardiomegaly",
    "atelectasis",
    "consolidation",
    "pneumothorax",
    "fracture",
    "lung opacity",
    "lung lesion",
    "pleural other",
    "enlarged cardiomediastinum",
)

ADJECTIVE_LEVELS = {"mild": 0.40, "moderate": 0.65, "severe": 0.90}
DIRECTIONS = ("left", "right", "upper", "lower")

REPORT_TEMPLATES = (
    "{adj} {direction} {disease}.",
    "There is {adj} {direction} {disease}.",
    "{adj} {direction} {disease} is seen.",
)


@dataclass(frozen=True)
class SyntheticSpec:
    n_classes: int = 4
    per_class: int = 50
    image_size: int = 32
    overlap_rate: float = 0.3
    seed: int = 0
    id_prefix: str = "s"

    def __post_init__(self) -> None:
        if not 2 <= self.n_classes <= len(CLASS_POOL):
            raise ValueError(f"n_classes must be in [2, {len(CLASS_POOL)}]")
        if self.per_class < 1:
            raise ValueError("per_class must be >= 1")
        if not 0.0 <= self.overlap_rate <= 1.0:
            raise ValueError("overlap_rate must lie in [0, 1]")
        if self.seed < 0:
            raise ValueError(f"seed must be >= 0, got {self.seed}")
        try:  # the trunk's own shape rule, on a stack of no images of this size
            check_image(ImageSample(np.empty((0, self.image_size, self.image_size))))
        except ValueError as exc:
            raise ValueError(f"image_size {self.image_size}: {exc}") from None


@dataclass
class SynthResult:
    corpus_path: Path
    truth_path: Path
    image_dir: Path
    records: int


def _class_texture(class_index: int, size: int, seed: int) -> np.ndarray:
    rows, cols = np.indices((size, size))
    kind = class_index % 4
    if kind == 0:
        base = ((rows // 4) % 2).astype(np.float64)
    elif kind == 1:
        base = ((cols // 4) % 2).astype(np.float64)
    elif kind == 2:
        base = (((rows // 4) + (cols // 4)) % 2).astype(np.float64)
    else:
        base = (((rows + cols) // 4) % 2).astype(np.float64)
    if class_index >= 4:
        # later classes perturb their texture with a fixed seeded mask
        rng = np.random.default_rng((seed, _TEXTURE_STREAM, class_index))
        base = 0.5 * base + 0.5 * (rng.random((size, size)) > 0.5)
    return base


def _direction_block(direction: str, size: int) -> tuple[slice, slice]:
    b = max(size // 3, 2)
    mid = slice((size - b) // 2, (size - b) // 2 + b)
    edge_lo = slice(1, 1 + b)
    edge_hi = slice(size - 1 - b, size - 1)
    if direction == "left":
        return mid, edge_lo
    if direction == "right":
        return mid, edge_hi
    if direction == "upper":
        return edge_lo, mid
    return edge_hi, mid


def _render(
    spec: SyntheticSpec,
    primary: int,
    secondary: int | None,
    adjective: str,
    direction: str,
    rng: np.random.Generator,
) -> np.ndarray:
    size = spec.image_size
    image = TEXTURE_AMPLITUDE * _class_texture(primary, size, spec.seed)
    if secondary is not None:
        image += 0.6 * TEXTURE_AMPLITUDE * _class_texture(secondary, size, spec.seed)
    rows, cols = _direction_block(direction, size)
    image[rows, cols] += ADJECTIVE_LEVELS[adjective]
    image += rng.normal(0.0, NOISE, (size, size))
    return np.clip(image, 0.0, 1.0)


def synthesize(spec: SyntheticSpec, out_dir: str | Path) -> SynthResult:
    """Generate corpus.jsonl, truth.jsonl and one .pgm image per record."""
    out_dir = Path(out_dir)
    image_dir = out_dir / "images"
    image_dir.mkdir(parents=True, exist_ok=True)
    rng = np.random.default_rng(spec.seed)
    classes = CLASS_POOL[: spec.n_classes]
    adjectives = sorted(ADJECTIVE_LEVELS)
    records: list[CorpusRecord] = []
    truth = [{"schema": TRUTH_SCHEMA}]
    total = spec.n_classes * spec.per_class
    for n in range(total):
        primary = n % spec.n_classes
        sample_id = f"{spec.id_prefix}{n:04d}"
        adjective = adjectives[int(rng.integers(len(adjectives)))]
        direction = DIRECTIONS[int(rng.integers(len(DIRECTIONS)))]
        template = REPORT_TEMPLATES[int(rng.integers(len(REPORT_TEMPLATES)))]
        secondary: int | None = None
        text = template.format(adj=adjective, direction=direction, disease=classes[primary])
        text = text[0].upper() + text[1:]
        classes_named = [classes[primary]]
        adj_named = [adjective]
        dir_named = [direction]
        if rng.random() < spec.overlap_rate:
            secondary = int((primary + 1 + rng.integers(spec.n_classes - 1)) % spec.n_classes)
            adj2 = adjectives[int(rng.integers(len(adjectives)))]
            dir2 = DIRECTIONS[int(rng.integers(len(DIRECTIONS)))]
            text += f" {adj2.capitalize()} {dir2} {classes[secondary]}."
            classes_named.append(classes[secondary])
            adj_named.append(adj2)
            dir_named.append(dir2)
        pixels = _render(spec, primary, secondary, adjective, direction, rng)
        image_path = image_dir / f"{sample_id}.pgm"
        write_pgm(image_path, pixels)
        records.append(CorpusRecord(sample_id, text, Path("images") / image_path.name))
        truth.append(
            {
                "id": sample_id,
                "classes": sorted(set(classes_named)),
                "adj": sorted(set(adj_named)),
                "dir": sorted(set(dir_named)),
            }
        )
    corpus_path = out_dir / "corpus.jsonl"
    truth_path = out_dir / "truth.jsonl"
    write_corpus(corpus_path, records)
    write_jsonl(truth_path, truth)
    return SynthResult(corpus_path, truth_path, image_dir, total)
