"""Retrieval and zero-shot classification evaluation.

Retrieval ranks gallery entries by cosine similarity to a query
embedding (ties broken by ascending id) and measures consistency of the
retrieved items' entity labels against the query's. Consistency per
entity kind is the Jaccard index of the label sets; Precision@R is the
mean consistency over the top-R items, as a percentage. An exact-match
mode (consistency 1 only when the sets are equal) is available behind
``match_mode``.

Zero-shot classification embeds one templated text prompt per disease
and predicts the class whose prompt embedding is most similar to the
image embedding.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .alignment import cosine
from .encoder import Embedding
from .extraction import MetaEntities
from .ontology import Ontology

logger = logging.getLogger(__name__)

PROMPT_TEMPLATE = "This is an X-Ray image of {disease}."

ENTITY_KINDS = ("disease", "adjective", "direction")


@dataclass(frozen=True)
class GalleryEntry:
    id: str
    embedding: Embedding
    entities: MetaEntities


@dataclass(frozen=True)
class Gallery:
    entries: tuple[GalleryEntry, ...]

    def __post_init__(self) -> None:
        ids = [e.id for e in self.entries]
        if len(set(ids)) != len(ids):
            raise ValueError("duplicate ids in gallery")
        if self.entries:
            length = self.entries[0].embedding.vector.shape[0]
            modality = self.entries[0].embedding.modality
            for e in self.entries:
                if e.embedding.vector.shape[0] != length or e.embedding.modality != modality:
                    raise ValueError("gallery embeddings must share length and modality")

    def __len__(self) -> int:
        return len(self.entries)


def _ranked_pairs(query: Embedding, gallery: Gallery, query_id: str | None) -> list[tuple[str, float]]:
    candidates = [e for e in gallery.entries if e.id != query_id]
    ranked = sorted(
        ((cosine(query.vector, e.embedding.vector), e.id) for e in candidates),
        key=lambda pair: (-pair[0], pair[1]),
    )
    return [(entry_id, sim) for sim, entry_id in ranked]


def retrieve(query: Embedding, gallery: Gallery, r: int, query_id: str | None = None) -> list[str]:
    """Top-r gallery ids by cosine similarity; ties by ascending id.

    The query's own gallery entry (matched by id) is excluded. Asking
    for more items than the gallery holds returns everything, with a
    warning.
    """
    if r < 1:
        raise ValueError("r must be >= 1")
    if not len(gallery):
        raise ValueError("empty gallery")
    ranked = _ranked_pairs(query, gallery, query_id)
    if r > len(ranked):
        logger.warning("requested top-%d from a gallery of %d; returning all", r, len(ranked))
    return [entry_id for entry_id, _ in ranked[:r]]


def entity_label_set(entities: MetaEntities, kind: str) -> frozenset[str]:
    if kind == "disease":
        return entities.disease_set()
    if kind == "adjective":
        return entities.adj_union()
    if kind == "direction":
        return entities.dir_union()
    raise ValueError(f"unknown entity kind {kind!r}")


def precision_at_r(
    query: MetaEntities,
    retrieved: Sequence[MetaEntities],
    kind: str,
    match_mode: str = "mean",
) -> float:
    """Mean consistency of retrieved items with the query, as a percentage.

    ``mean`` averages Jaccard indices; ``exact`` counts only identical
    label sets (empty query and retrieved sets count as a match there).
    """
    if not retrieved:
        raise ValueError("retrieved list must be non-empty")
    if match_mode not in ("mean", "exact"):
        raise ValueError(f"unknown match_mode {match_mode!r}")
    query_set = entity_label_set(query, kind)
    values = []
    for item in retrieved:
        item_set = entity_label_set(item, kind)
        if match_mode == "exact":
            values.append(1.0 if item_set == query_set else 0.0)
        else:
            union = query_set | item_set
            values.append(len(query_set & item_set) / len(union) if union else 0.0)
    return 100.0 * float(np.mean(values))


@dataclass(frozen=True)
class RetrievalResult:
    """One query's ranking (similarity non-increasing, ties by id) and
    its per-entity-kind consistency at each requested depth."""

    query_id: str
    ranked: tuple[tuple[str, float], ...]
    consistency: dict[str, dict[int, float]]


def retrieval_result(
    query_id: str,
    query: Embedding,
    query_entities: MetaEntities,
    gallery: Gallery,
    r_values: Sequence[int] = (1, 10, 20, 50),
    match_mode: str = "mean",
) -> RetrievalResult:
    by_id = {e.id: e.entities for e in gallery.entries}
    ranked = _ranked_pairs(query, gallery, query_id)
    consistency: dict[str, dict[int, float]] = {kind: {} for kind in ENTITY_KINDS}
    for kind in ENTITY_KINDS:
        for r in r_values:
            top = ranked[:r]
            if top:
                consistency[kind][r] = precision_at_r(
                    query_entities, [by_id[i] for i, _ in top], kind, match_mode
                )
    return RetrievalResult(query_id, tuple(ranked), consistency)


def prompt_text(disease: str, ont: Ontology) -> str:
    if disease not in ont.disease_labels:
        raise ValueError(f"unknown disease label {disease!r}")
    return PROMPT_TEMPLATE.format(disease=disease)


def zero_shot_classify(
    image: Embedding, prompts: Sequence[tuple[str, Embedding]]
) -> tuple[str, dict[str, float]]:
    """Predict the class of the most similar prompt; ties pick the
    lexicographically first class. The full similarity vector comes back
    for downstream ranking metrics."""
    if len(prompts) < 2:
        raise ValueError("need at least 2 candidate classes")
    scores = {label: cosine(image.vector, emb.vector) for label, emb in prompts}
    best = max(scores.values())
    predicted = min(label for label, s in scores.items() if s == best)
    return predicted, scores


def _average_ranks(values: np.ndarray) -> np.ndarray:
    """Ranks starting at 1; tied values share the mean of their ranks."""
    order = np.argsort(values, kind="stable")
    ranks = np.empty(len(values), dtype=np.float64)
    i = 0
    while i < len(values):
        j = i
        while j + 1 < len(values) and values[order[j + 1]] == values[order[i]]:
            j += 1
        ranks[order[i : j + 1]] = (i + j) / 2.0 + 1.0
        i = j + 1
    return ranks


def _binary_auc(labels: np.ndarray, scores: np.ndarray) -> float:
    """Rank-based one-vs-rest AUC; ties count half."""
    n_pos = int(labels.sum())
    n_neg = len(labels) - n_pos
    if n_pos == 0 or n_neg == 0:
        return float("nan")
    ranks = _average_ranks(scores)
    rank_sum = float(ranks[labels.astype(bool)].sum())
    return (rank_sum - n_pos * (n_pos + 1) / 2.0) / (n_pos * n_neg)


@dataclass(frozen=True)
class ClassificationMetrics:
    accuracy: float  # percent
    macro_f1: float  # percent
    macro_auc: float  # fraction in [0, 1]
    per_class_f1: dict[str, float]
    per_class_auc: dict[str, float]
    skipped_classes: tuple[str, ...]


def classification_metrics(
    predictions: Sequence[str],
    truths: Sequence[str],
    score_vectors: Sequence[dict[str, float]],
) -> ClassificationMetrics:
    """Accuracy, macro F1 and macro one-vs-rest AUC.

    Classes that never occur in the truths are excluded from the macro
    averages and reported in ``skipped_classes``.
    """
    if not (len(predictions) == len(truths) == len(score_vectors)):
        raise ValueError("predictions, truths and score vectors must align")
    truth_arr = np.array(truths)
    pred_arr = np.array(predictions)
    classes_seen = sorted(set(truths))
    if len(classes_seen) < 2:
        raise ValueError("need at least 2 classes present in truths")
    all_classes = sorted(set(classes_seen) | set(predictions) | set(score_vectors[0]))
    skipped = tuple(c for c in all_classes if c not in classes_seen)
    if skipped:
        logger.warning("classes absent from truths excluded from macro averages: %s", skipped)
    accuracy = 100.0 * float(np.mean(pred_arr == truth_arr))
    f1: dict[str, float] = {}
    auc: dict[str, float] = {}
    for cls in classes_seen:
        tp = int(np.sum((pred_arr == cls) & (truth_arr == cls)))
        fp = int(np.sum((pred_arr == cls) & (truth_arr != cls)))
        fn = int(np.sum((pred_arr != cls) & (truth_arr == cls)))
        f1[cls] = 100.0 * (2 * tp / (2 * tp + fp + fn)) if (2 * tp + fp + fn) else 0.0
        scores = np.array([sv.get(cls, 0.0) for sv in score_vectors])
        auc[cls] = _binary_auc((truth_arr == cls).astype(np.float64), scores)
    return ClassificationMetrics(
        accuracy=accuracy,
        macro_f1=float(np.mean([f1[c] for c in classes_seen])),
        macro_auc=float(np.mean([auc[c] for c in classes_seen])),
        per_class_f1=f1,
        per_class_auc=auc,
        skipped_classes=skipped,
    )


def retrieval_report(
    queries: Sequence[tuple[str, Embedding, MetaEntities]],
    gallery: Gallery,
    r_values: Sequence[int] = (1, 10, 20, 50),
    match_mode: str = "mean",
) -> dict[str, dict[int, float]]:
    """Mean P@R per entity kind over a query set against one gallery."""
    results = [
        retrieval_result(query_id, embedding, entities, gallery, r_values, match_mode)
        for query_id, embedding, entities in queries
    ]
    out: dict[str, dict[int, float]] = {kind: {} for kind in ENTITY_KINDS}
    for kind in ENTITY_KINDS:
        for r in r_values:
            values = [res.consistency[kind][r] for res in results if r in res.consistency[kind]]
            out[kind][r] = float(np.mean(values)) if values else float("nan")
    return out
