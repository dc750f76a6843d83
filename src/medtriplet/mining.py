"""Triplet mining: anchor/positive/semi-hard-negative selection.

Per mini-batch, every sample gets one shot at being an anchor (in seeded
random order). Its positive is the remaining sample with maximum entity
similarity; its negative is the minimum-similarity sample whose score
falls inside the semi-hard band [tau_min, tau_max]. Anchors whose best
positive scores 0 (no shared disease anywhere in the batch) are skipped,
as are anchors with an empty band.

Scores are nonnegative by construction, so selecting on |score| and on
score are the same thing.
"""

from __future__ import annotations

import json
import logging
from dataclasses import dataclass, field
from pathlib import Path
from typing import Iterator, Sequence

import numpy as np

from .extraction import MetaEntities
from .scoring import DEFAULT_SEMANTICS, SEMANTICS, GammaWeights, Semantics, score

logger = logging.getLogger(__name__)

TRIPLETS_SCHEMA = "triplets/v1"


@dataclass(frozen=True)
class Batch:
    """Ordered mini-batch of (sample id, extracted entities)."""

    samples: tuple[tuple[str, MetaEntities], ...]

    def __post_init__(self) -> None:
        ids = [sid for sid, _ in self.samples]
        if len(set(ids)) != len(ids):
            raise ValueError("duplicate sample ids in batch")

    def __len__(self) -> int:
        return len(self.samples)


@dataclass(frozen=True)
class MinerConfig:
    tau_min: float = 0.25
    tau_max: float = 0.60
    gammas: GammaWeights = field(default_factory=GammaWeights)
    semantics: Semantics = DEFAULT_SEMANTICS
    tie_policy: str = "lowest-id"  # or "seeded-random"
    seed: int = 0

    def __post_init__(self) -> None:
        if not (0.0 <= self.tau_min <= self.tau_max <= 1.0):
            raise ValueError(f"need 0 <= tau_min <= tau_max <= 1, got [{self.tau_min}, {self.tau_max}]")
        if self.tie_policy not in ("lowest-id", "seeded-random"):
            raise ValueError(f"unknown tie_policy {self.tie_policy!r}")
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


def _anchor_scores(anchor_index: int, batch: Batch, cfg: MinerConfig) -> list[tuple[str, float]]:
    _, anchor_m = batch.samples[anchor_index]
    return [
        (sid, score(anchor_m, m, cfg.gammas, cfg.semantics).total)
        for j, (sid, m) in enumerate(batch.samples)
        if j != anchor_index
    ]


def _break_tie(candidates: list[str], cfg: MinerConfig, anchor_index: int) -> str:
    if len(candidates) == 1 or cfg.tie_policy == "lowest-id":
        return min(candidates)
    rng = np.random.default_rng((cfg.seed, anchor_index))
    return sorted(candidates)[rng.integers(len(candidates))]


def select_positive(anchor_index: int, batch: Batch, cfg: MinerConfig) -> str:
    """Id of the non-anchor sample with maximum similarity to the anchor."""
    if len(batch) < 2:
        raise ValueError("batch must hold at least 2 samples")
    scores = _anchor_scores(anchor_index, batch, cfg)
    best = max(s for _, s in scores)
    return _break_tie([sid for sid, s in scores if s == best], cfg, anchor_index)


def select_negative(
    anchor_index: int, batch: Batch, cfg: MinerConfig, exclude: str
) -> str | None:
    """Id of the in-band minimum-similarity sample, or None if band empty.

    Band bounds are inclusive; the anchor and the already-chosen positive
    are never candidates.
    """
    if len(batch) < 3:
        raise ValueError("batch must hold at least 3 samples")
    scores = [
        (sid, s)
        for sid, s in _anchor_scores(anchor_index, batch, cfg)
        if sid != exclude and cfg.tau_min <= s <= cfg.tau_max
    ]
    if not scores:
        return None
    worst = min(s for _, s in scores)
    return _break_tie([sid for sid, s in scores if s == worst], cfg, anchor_index)


def mine_batch(batch: Batch, cfg: MinerConfig, rng: np.random.Generator | None = None) -> list[Triplet]:
    """Mine one triplet attempt per batch element, anchors in seeded order."""
    if len(batch) < 3:
        return []
    if rng is None:
        rng = np.random.default_rng(cfg.seed)
    by_id = {sid: dict(_anchor_scores(i, batch, cfg)) for i, (sid, _) in enumerate(batch.samples)}
    triplets: list[Triplet] = []
    for anchor_index in rng.permutation(len(batch)):
        anchor_id = batch.samples[anchor_index][0]
        positive_id = select_positive(int(anchor_index), batch, cfg)
        score_ap = by_id[anchor_id][positive_id]
        if score_ap <= 0.0:
            continue  # nothing in the batch shares a disease with this anchor
        negative_id = select_negative(int(anchor_index), batch, cfg, exclude=positive_id)
        if negative_id is None:
            continue
        triplets.append(
            Triplet(anchor_id, positive_id, negative_id, score_ap, by_id[anchor_id][negative_id])
        )
    return triplets


@dataclass
class MiningResult:
    triplets: list[Triplet]
    passes: int
    reached_target: bool
    manifest: dict


def _batches(
    samples: Sequence[tuple[str, MetaEntities]], k: int, rng: np.random.Generator
) -> Iterator[Batch]:
    order = rng.permutation(len(samples))
    for start in range(0, len(samples) - k + 1, k):
        chosen = [samples[int(i)] for i in order[start : start + k]]
        yield Batch(tuple(chosen))


def mine_corpus(
    samples: Sequence[tuple[str, MetaEntities]],
    k: int,
    target: int,
    cfg: MinerConfig,
    out_path: str | Path | None = None,
    pass_limit: int = 100,
) -> MiningResult:
    """Mine up to `target` unique triplets over repeated corpus passes.

    Each pass shuffles the corpus into disjoint batches of size k.
    Triplets deduplicate on the (anchor, positive, negative) id tuple.
    Output is canonically sorted, so reruns with the same inputs are
    byte-identical.
    """
    if target < 0:
        raise ValueError("target must be nonnegative")
    if len(samples) < k:
        raise ValueError(f"corpus holds {len(samples)} samples, need at least k={k}")
    rng = np.random.default_rng(cfg.seed)
    unique: dict[tuple[str, str, str], Triplet] = {}
    passes = 0
    while len(unique) < target and passes < pass_limit:
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
        "tie_policy": cfg.tie_policy,
        "unique_mined": len(unique),
        "emitted": len(triplets),
        "passes": passes,
        "reached_target": reached,
    }
    result = MiningResult(triplets, passes, reached, manifest)
    if out_path is not None:
        write_triplets(result, out_path)
    return result


def write_triplets(result: MiningResult, path: str | Path) -> None:
    """Manifest record first, then one sorted triplet record per line."""
    lines = [json.dumps(result.manifest, sort_keys=True)]
    for t in result.triplets:
        lines.append(
            json.dumps(
                {
                    "anchor_id": t.anchor_id,
                    "positive_id": t.positive_id,
                    "negative_id": t.negative_id,
                    "score_ap": t.score_ap,
                    "score_an": t.score_an,
                }
            )
        )
    Path(path).write_text("\n".join(lines) + "\n", encoding="utf-8")


def read_triplets(path: str | Path) -> tuple[dict, list[Triplet]]:
    lines = Path(path).read_text(encoding="utf-8").splitlines()
    if not lines:
        raise ValueError(f"{path}: empty triplet file")
    manifest = json.loads(lines[0])
    if manifest.get("schema") != TRIPLETS_SCHEMA:
        raise ValueError(f"{path}: expected schema {TRIPLETS_SCHEMA}, got {manifest.get('schema')!r}")
    triplets = []
    for line in lines[1:]:
        rec = json.loads(line)
        triplets.append(
            Triplet(rec["anchor_id"], rec["positive_id"], rec["negative_id"], rec["score_ap"], rec["score_an"])
        )
    return manifest, triplets
