"""Triplet mining: anchor/positive/semi-hard-negative selection.

Per mini-batch, every sample gets one shot at being an anchor (in seeded
random order). Its positive is the remaining sample with maximum entity
similarity; its negative is the minimum-similarity sample whose score
falls inside the semi-hard band [tau_min, tau_max]. Anchors whose best
positive scores 0 (no shared disease anywhere in the batch) are skipped,
as are anchors with an empty band. Ties go to the lowest sample id.

Scores are nonnegative by construction, so selecting on |score| and on
score are the same thing.

Cost: ``mine_batch`` scores every ordered pair of a k-sample batch three
times, once for its rows of totals and once each in ``select_positive``
and ``select_negative``, so 3·k·(k−1) ``score`` calls when every anchor has
a positive. One sweep would do; the other two stay only because the
benchmark's traced run checks that count (ROADMAP.md, item 1). Those
calls are nearly all of mining's time, so their cost is kept down inside
``score``: it reads each structure's ``descriptor_masks``, built once per
structure, and intersects descriptor sets as ints: about 1 µs a call on
two-disease structures on a 2-vCPU x86_64 VM. Around those calls a batch
is the tuple of (sample id, entities) pairs that the corpus shuffle
yields, and each sweep yields a plain list of totals.
"""

from __future__ import annotations

import logging
from collections import Counter
from dataclasses import dataclass, field
from itertools import chain
from operator import itemgetter
from pathlib import Path
from typing import Iterator, Sequence

import numpy as np

from .corpus import DataError, read_jsonl, write_jsonl
from .extraction import MetaEntities
from .scoring import DEFAULT_SEMANTICS, SEMANTICS, GammaWeights, Semantics, score

logger = logging.getLogger(__name__)

TRIPLETS_SCHEMA = "triplets/v1"


@dataclass(frozen=True)
class MiningSettings:
    """Every input of one mining run; ``seed`` orders its batches and anchors."""

    batch_size: int = 64
    target: int = 1000
    pass_limit: int = 100
    tau_min: float = 0.25
    tau_max: float = 0.60
    gammas: GammaWeights = field(default_factory=GammaWeights)
    semantics: Semantics = DEFAULT_SEMANTICS
    seed: int = 0

    def __post_init__(self) -> None:
        # A batch needs an anchor, a positive and a negative.
        for name, low in (("batch_size", 3), ("pass_limit", 1), ("target", 0)):
            if getattr(self, name) < low:
                raise ValueError(f"{name} must be >= {low}, got {getattr(self, name)}")
        if not (0.0 <= self.tau_min <= self.tau_max <= 1.0):
            raise ValueError(f"need 0 <= tau_min <= tau_max <= 1, got [{self.tau_min}, {self.tau_max}]")
        if self.semantics not in SEMANTICS:
            raise ValueError(f"unknown semantics {self.semantics!r}; expected one of: {', '.join(SEMANTICS)}")


@dataclass(frozen=True)
class Triplet:
    anchor_id: str
    positive_id: str
    negative_id: str
    score_ap: float
    score_an: float

    def __post_init__(self) -> None:
        if len({self.anchor_id, self.positive_id, self.negative_id}) != 3:
            raise ValueError("triplet ids must be distinct")
        if self.score_ap < self.score_an:
            raise ValueError("positive score below negative score")

    def key(self) -> tuple[str, str, str]:
        return (self.anchor_id, self.positive_id, self.negative_id)


def _others(items: tuple, anchor_index: int) -> tuple:
    return items[:anchor_index] + items[anchor_index + 1 :]


def _unique_ids(samples: Sequence[tuple[str, MetaEntities]]) -> tuple[str, ...]:
    """The samples' ids in order; an id given twice is an error naming it."""
    ids = tuple(sid for sid, _ in samples)
    duplicates = [sid for sid, n in Counter(ids).items() if n > 1]
    if duplicates:
        raise ValueError(f"duplicate sample id {duplicates[0]!r}")
    return ids


def _anchor_scores(anchor_index: int, batch: Sequence[tuple], cfg: MiningSettings) -> list[float]:
    """The anchor's score against every other sample, in batch order.

    ``score`` is looked up in this module at each call, never bound early,
    so a wrapper put in its place (the benchmark's tracer) sees every call.
    """
    anchor = batch[anchor_index][1]
    gammas, semantics = cfg.gammas, cfg.semantics
    return [score(anchor, m, gammas, semantics).total for _, m in _others(batch, anchor_index)]


def select_positive(anchor_index: int, batch: Sequence[tuple], cfg: MiningSettings) -> str:
    """Id of the non-anchor sample with maximum similarity to the anchor; ties go to the lowest id."""
    if len(batch) < 2:
        raise ValueError("batch must hold at least 2 samples")
    scores = _anchor_scores(anchor_index, batch, cfg)
    best = max(scores)
    return min(sid for (sid, _), s in zip(_others(batch, anchor_index), scores) if s == best)


def select_negative(anchor_index: int, batch: Sequence[tuple], cfg: MiningSettings, exclude: str) -> str | None:
    """Id of the in-band minimum-similarity sample, or None if band empty.

    Ties go to the lowest id. Band bounds are inclusive; the anchor and the
    already-chosen positive are never candidates.
    """
    if len(batch) < 3:
        raise ValueError("batch must hold at least 3 samples")
    lo, hi = cfg.tau_min, cfg.tau_max
    scores = _anchor_scores(anchor_index, batch, cfg)
    band = [(s, sid) for (sid, _), s in zip(_others(batch, anchor_index), scores) if lo <= s <= hi and sid != exclude]
    return min(band)[1] if band else None


def mine_batch(batch: Sequence[tuple], cfg: MiningSettings, rng: np.random.Generator) -> list[Triplet]:
    """Mine one triplet attempt per (sample id, entities) pair of ``batch``, anchors in the order ``rng``
    draws. Sample ids must be unique."""
    ids = _unique_ids(batch)
    if len(batch) < 3:
        return []
    rows = [dict(zip(_others(ids, i), _anchor_scores(i, batch, cfg))) for i in range(len(batch))]
    triplets: list[Triplet] = []
    for anchor_index in rng.permutation(len(batch)).tolist():
        row = rows[anchor_index]
        positive_id = select_positive(anchor_index, batch, cfg)
        score_ap = row[positive_id]
        if score_ap <= 0.0:
            continue  # nothing in the batch shares a disease with this anchor
        negative_id = select_negative(anchor_index, batch, cfg, exclude=positive_id)
        if negative_id is None:
            continue
        triplets.append(Triplet(ids[anchor_index], positive_id, negative_id, score_ap, row[negative_id]))
    return triplets


def _batches(samples: Sequence[tuple[str, MetaEntities]], k: int, rng: np.random.Generator) -> Iterator[tuple]:
    order = rng.permutation(len(samples))
    for start in range(0, len(samples) - k + 1, k):
        yield tuple(samples[int(i)] for i in order[start : start + k])


def mine_corpus(samples: Sequence[tuple[str, MetaEntities]], cfg: MiningSettings) -> tuple[dict, list[Triplet]]:
    """Mine up to ``cfg.target`` unique triplets over repeated corpus passes.

    Each pass shuffles the corpus into disjoint batches of ``cfg.batch_size``.
    Triplets deduplicate on the (anchor, positive, negative) id tuple.
    Returns the manifest and the triplets, which ``write_triplets`` writes
    and ``read_triplets`` returns. Output is canonically sorted, so reruns
    with the same inputs are byte-identical. Sample ids must be unique.
    """
    k, target = cfg.batch_size, cfg.target
    if len(samples) < k:
        raise ValueError(f"corpus holds {len(samples)} samples, need at least k={k}")
    _unique_ids(samples)  # corpus-wide, not only within each batch
    rng = np.random.default_rng(cfg.seed)
    unique: dict[tuple[str, str, str], Triplet] = {}
    passes = 0
    while len(unique) < target and passes < cfg.pass_limit:
        passes += 1
        for batch in _batches(samples, k, rng):
            for t in mine_batch(batch, cfg, rng):
                unique.setdefault(t.key(), t)
        if not unique and target > 0 and passes >= 3:
            break  # nothing mineable; further passes cannot help
    reached = len(unique) >= target
    if not reached:
        logger.warning(
            "mined %d of %d requested triplets in %d passes; keeping partial output",
            len(unique), target, passes,
        )
    triplets = [unique[key] for key in sorted(unique)][:target]
    manifest = {
        "schema": TRIPLETS_SCHEMA,
        "seed": cfg.seed,
        "batch_size": k,
        "target": target,
        "tau_min": cfg.tau_min,
        "tau_max": cfg.tau_max,
        "gammas": [cfg.gammas.g0, cfg.gammas.g1, cfg.gammas.g2],
        "semantics": cfg.semantics,
        "unique_mined": len(unique),
        "emitted": len(triplets),
        "passes": passes,
        "reached_target": reached,
    }
    return manifest, triplets


_TRIPLET_FIELDS = ("anchor_id", "positive_id", "negative_id", "score_ap", "score_an")
_triplet_values = itemgetter(*_TRIPLET_FIELDS)


def write_triplets(path: str | Path, manifest: dict, triplets: Sequence[Triplet]) -> None:
    """Manifest record first, keys sorted, then one sorted triplet record per line."""
    rows = ({name: getattr(t, name) for name in _TRIPLET_FIELDS} for t in triplets)
    write_jsonl(path, chain([dict(sorted(manifest.items()))], rows))


def read_triplets(path: str | Path) -> tuple[dict, list[Triplet]]:
    manifest, records = read_jsonl(path, TRIPLETS_SCHEMA)
    triplets = []
    for lineno, rec in records:
        try:
            triplets.append(Triplet(*_triplet_values(rec)))
        except KeyError as exc:
            raise DataError(f"{path}:{lineno}: triplet record missing {exc.args[0]!r} field") from None
        except (TypeError, ValueError) as exc:
            raise DataError(f"{path}:{lineno}: {exc}") from None
    return manifest, triplets
