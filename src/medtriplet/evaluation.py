"""Retrieval and zero-shot classification evaluation on embedding matrices.

Retrieval takes (n, c) query and gallery matrices whose row i is record
i, rows in ascending id order. Each query ranks every other gallery row
by cosine similarity, ties going to the lower row (the lower id); each
gallery row's norm is computed once per call, not once per pair.
Consistency per entity kind compares the query's label set with a
retrieved item's, both rows of one multi-hot matrix per kind: their
Jaccard index, or under ``match_mode="exact"`` 1 only when they are
equal. Precision@R is the mean consistency over the top-R items, as a
percentage; all queries' top items form one (n, depth) index matrix, so
each kind's consistencies are one array operation.

Zero-shot classification scores image rows against one templated text
prompt per disease in one (n, k) cosine matrix; each row predicts its
most similar class, and the metrics read the matrix column by column.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .alignment import cosine, norm
from .extraction import MetaEntities
from .ontology import Ontology

logger = logging.getLogger(__name__)

PROMPT_TEMPLATE = "This is an X-Ray image of {disease}."

ENTITY_KINDS = ("disease", "adjective", "direction")
MATCH_MODES = ("mean", "exact")


def rank(query: np.ndarray, gallery: np.ndarray, exclude: int, norms: Sequence[float] | None = None) -> np.ndarray:
    """Gallery row indices other than ``exclude``, by descending cosine
    similarity to ``query``; ties go to the lower row.

    ``norms`` are the gallery rows' norms as ``norm`` computes them; a
    caller that ranks many queries against one gallery passes them in,
    and without them they are computed here. Either way ``cosine`` is
    called once per ranked row with the same floats.
    """
    if norms is None:
        norms = [norm(row) for row in gallery]
    nq = norm(query)
    rows = np.delete(np.arange(len(gallery)), exclude)
    sims = np.array([cosine(query, gallery[j], nq, norms[j]) for j in rows.tolist()])
    return rows[np.argsort(-sims, kind="stable")]


def entity_label_set(entities: MetaEntities, kind: str) -> frozenset[str]:
    if kind == "disease":
        return entities.disease_set()
    if kind == "adjective":
        return entities.adj_union()
    if kind == "direction":
        return entities.dir_union()
    raise ValueError(f"unknown entity kind {kind!r}")


def _label_matrix(entities: Sequence[MetaEntities], kind: str) -> np.ndarray:
    """(n, v) multi-hot matrix of each item's ``kind`` labels over their sorted union."""
    sets = [entity_label_set(e, kind) for e in entities]
    column = {label: j for j, label in enumerate(sorted(set().union(*sets)))}
    matrix = np.zeros((len(sets), len(column)), dtype=bool)
    for i, labels in enumerate(sets):
        matrix[i, [column[label] for label in labels]] = True
    return matrix


def _consistency(query: np.ndarray, items: np.ndarray, match_mode: str) -> np.ndarray:
    """Consistency of multi-hot ``items`` rows with ``query`` rows, along the
    last axis; ``query`` broadcasts against ``items``."""
    if match_mode == "exact":
        return np.all(items == query, axis=-1).astype(np.float64)
    inter = np.count_nonzero(items & query, axis=-1)
    union = np.count_nonzero(items | query, axis=-1)
    return np.divide(inter, union, out=np.zeros(inter.shape), where=union > 0)


def precision_at_r(
    query: MetaEntities,
    retrieved: Sequence[MetaEntities],
    kind: str,
    match_mode: str = "mean",
) -> float:
    """Mean consistency of retrieved items with the query, as a percentage.

    ``mean`` averages Jaccard indices (two empty sets score 0); ``exact``
    counts only identical label sets (empty query and retrieved sets
    count as a match there).
    """
    if not retrieved:
        raise ValueError("retrieved list must be non-empty")
    if match_mode not in MATCH_MODES:
        raise ValueError(f"unknown match_mode {match_mode!r}")
    labels = _label_matrix([query, *retrieved], kind)
    return 100.0 * float(np.mean(_consistency(labels[0], labels[1:], match_mode)))


def prompt_text(disease: str, ont: Ontology) -> str:
    if disease not in ont.disease_labels:
        raise ValueError(f"unknown disease label {disease!r}")
    return PROMPT_TEMPLATE.format(disease=disease)


def zero_shot_classify(
    images: np.ndarray, prompts: np.ndarray, classes: Sequence[str]
) -> tuple[list[str], np.ndarray]:
    """Predict each image row's class: the one whose prompt row is most similar.

    Returns the predictions and the (n, k) cosine score matrix, column j
    for ``classes[j]``. Ties pick the lexicographically first class.
    """
    if len(prompts) != len(classes):
        raise ValueError("need one prompt row per class")
    if len(classes) < 2:
        raise ValueError("need at least 2 candidate classes")
    image_norms = [norm(image) for image in images]
    prompt_norms = [norm(prompt) for prompt in prompts]
    scores = np.array([
        [cosine(image, prompt, ni, nk) for prompt, nk in zip(prompts, prompt_norms)]
        for image, ni in zip(images, image_norms)
    ])
    scores = scores.reshape(len(images), len(classes))
    by_name = np.argsort(classes, kind="stable")
    best = by_name[np.argmax(scores[:, by_name], axis=1)]
    return [classes[j] for j in best], scores


def _binary_auc(positive: np.ndarray, scores: np.ndarray) -> float:
    """Rank-based one-vs-rest AUC; tied scores share the mean of their ranks."""
    n_pos = int(np.count_nonzero(positive))
    n_neg = len(positive) - n_pos
    _, group, counts = np.unique(scores, return_inverse=True, return_counts=True)
    ranks = (np.cumsum(counts) - (counts - 1) / 2.0)[group]
    rank_sum = float(ranks[positive].sum())
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
    scores: np.ndarray,
    classes: Sequence[str],
) -> ClassificationMetrics:
    """Accuracy, macro F1 and macro one-vs-rest AUC.

    ``scores`` is the (n, k) matrix with one row per sample and column j
    for ``classes[j]``. Classes that never occur in the truths are
    excluded from the macro averages and reported in ``skipped_classes``.
    """
    scores = np.asarray(scores, dtype=np.float64)
    if len(predictions) != len(truths) or scores.shape != (len(truths), len(classes)):
        raise ValueError("need one prediction, truth and score row per sample, one score column per class")
    if not np.all(np.isfinite(scores)):
        raise ValueError("scores contain non-finite entries")
    classes_seen = sorted(set(truths))
    unscored = [cls for cls in classes_seen if cls not in classes]
    if unscored:
        raise ValueError(f"true class {unscored[0]!r} has no score column")
    if len(classes_seen) < 2:
        raise ValueError("need at least 2 classes present in truths")
    skipped = tuple(sorted(set(classes) - set(truths)))
    if skipped:
        logger.warning("classes absent from truths excluded from macro averages: %s", skipped)
    truth_arr = np.array(truths)
    pred_arr = np.array(predictions)
    f1: dict[str, float] = {}
    auc: dict[str, float] = {}
    for cls in classes_seen:
        is_true, is_pred = truth_arr == cls, pred_arr == cls
        tp = np.count_nonzero(is_true & is_pred)
        # 2·tp + fp + fn: every true and every predicted sample of cls, so at least one.
        f1[cls] = 100.0 * (2 * tp / (np.count_nonzero(is_true) + np.count_nonzero(is_pred)))
        auc[cls] = _binary_auc(is_true, scores[:, list(classes).index(cls)])
    return ClassificationMetrics(
        accuracy=100.0 * float(np.mean(pred_arr == truth_arr)),
        macro_f1=float(np.mean([f1[c] for c in classes_seen])),
        macro_auc=float(np.mean([auc[c] for c in classes_seen])),
        per_class_f1=f1,
        per_class_auc=auc,
        skipped_classes=skipped,
    )


def retrieval_report(
    queries: np.ndarray,
    gallery: np.ndarray,
    entities: Sequence[MetaEntities],
    r_values: Sequence[int] = (1, 10, 20, 50),
    match_mode: str = "mean",
) -> dict[str, dict[int, float]]:
    """Mean P@R per entity kind; row i of both matrices is record i.

    Each query is ranked once against every other gallery row, with the
    gallery's norms computed once. A kind's value is NaN when no query has
    another row to retrieve.
    """
    if match_mode not in MATCH_MODES:
        raise ValueError(f"unknown match_mode {match_mode!r}")
    if not len(queries) == len(gallery) == len(entities):
        raise ValueError("queries, gallery and entities must have one row per record")
    if min(r_values) < 1:
        raise ValueError("r values must be >= 1")
    if len(gallery) < 2:
        return {kind: dict.fromkeys(r_values, float("nan")) for kind in ENTITY_KINDS}
    norms = [norm(row) for row in gallery]
    depth = max(r_values)
    # top[i]: query i's top-depth gallery rows, best first
    top = np.array([rank(query, gallery, i, norms)[:depth] for i, query in enumerate(queries)])
    report = {}
    for kind in ENTITY_KINDS:
        labels = _label_matrix(entities, kind)
        values = _consistency(labels[:, None], labels[top], match_mode)
        report[kind] = {r: float(np.mean(100.0 * values[:, :r].mean(axis=1))) for r in r_values}
    return report
