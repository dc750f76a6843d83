"""Retrieval and zero-shot classification evaluation on embedding matrices.

Retrieval takes (n, c) query and gallery matrices whose row i is record
i, rows in ascending id order. Each query ranks every other gallery row
by cosine similarity, ties going to the lower row (the lower id). The
gallery is split into a list of row views and a list of norms once per
call, so each query's loop is only ``cosine`` calls over those lists with
the query's own row sliced out; a stable sort of the similarities and a
monotonic shift of positions past the excluded row keep the tie order.
Consistency per entity kind compares the query's label set with a
retrieved item's, both rows of one multi-hot matrix per kind: their
Jaccard index, or under ``match_mode="exact"`` 1 only when they are
equal. Precision@R is the mean consistency over the top-R items, as a
percentage; all queries' top items form one (n, depth) index matrix, so
each kind's consistencies are one array operation.

Zero-shot classification scores image rows against one text prompt per
disease, ``prompt_text``'s ``PROMPT_TEMPLATE`` filled with the label, in
one (n, k) cosine matrix; each row predicts its most similar class, and
the metrics read the matrix column by column.
``classification_metrics`` returns the metrics as a dict, under the keys
the classification report holds them by.
"""

from __future__ import annotations

import logging
from itertools import repeat
from typing import Sequence

import numpy as np

from .alignment import cosine, norm
from .extraction import MetaEntities

logger = logging.getLogger(__name__)

PROMPT_TEMPLATE = "This is an X-Ray image of {disease}."

# Each entity kind's label set of a record, as ``MetaEntities`` gives it.
_LABEL_SET = {"disease": MetaEntities.disease_set, "adjective": MetaEntities.adj_union,
              "direction": MetaEntities.dir_union}
ENTITY_KINDS = tuple(_LABEL_SET)
MATCH_MODES = ("mean", "exact")
# Retrieval depths P@R is reported at, where the eval corpus is deep enough.
R_VALUES = (1, 10, 20, 50)


def _ranked(query: np.ndarray, rows: list, norms: list, exclude: int, depth: int | None = None) -> np.ndarray:
    """The first ``depth`` (default all) gallery rows other than ``exclude``, by descending cosine similarity
    to ``query``, ties to the lower row; the gallery comes as lists of row views and of their ``norm``s."""
    others, other_norms = rows[:exclude] + rows[exclude + 1:], norms[:exclude] + norms[exclude + 1:]
    sims = np.fromiter(map(cosine, repeat(query), others, repeat(norm(query)), other_norms), np.float64, len(others))
    order = np.argsort(-sims, kind="stable")[:depth]
    # Positions past the excluded row shift up by one; the map is monotonic, so ties keep the lower row.
    return order + (order >= exclude)


def _label_matrix(entities: Sequence[MetaEntities], kind: str) -> np.ndarray:
    """(n, v) multi-hot matrix of each item's ``kind`` labels over their sorted union."""
    sets = [_LABEL_SET[kind](e) for e in entities]
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


def prompt_text(disease: str) -> str:
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


def classification_metrics(
    predictions: Sequence[str],
    truths: Sequence[str],
    scores: np.ndarray,
    classes: Sequence[str],
) -> dict:
    """``accuracy`` and ``macro_f1`` (percent), ``macro_auc`` (one-vs-rest, a
    fraction), and each class's F1 and AUC as ``per_class_f1`` and ``per_class_auc``.

    ``scores`` is the (n, k) matrix with one row per sample and column j
    for ``classes[j]``. Classes that never occur in the truths are
    excluded from the macro averages, with a logged warning that names them.
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
    return {
        "accuracy": 100.0 * float(np.mean(pred_arr == truth_arr)),
        "macro_f1": float(np.mean([f1[c] for c in classes_seen])),
        "macro_auc": float(np.mean([auc[c] for c in classes_seen])),
        "per_class_f1": f1,
        "per_class_auc": auc,
    }


def retrieval_report(
    queries: np.ndarray,
    gallery: np.ndarray,
    entities: Sequence[MetaEntities],
    r_values: Sequence[int] = R_VALUES,
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
    rows = list(gallery)
    norms = [norm(row) for row in rows]
    depth = max(r_values)
    # top[i]: query i's top-depth gallery rows, best first
    top = np.array([_ranked(query, rows, norms, i, depth) for i, query in enumerate(queries)])
    report = {}
    for kind in ENTITY_KINDS:
        labels = _label_matrix(entities, kind)
        values = _consistency(labels[:, None], labels[top], match_mode)
        report[kind] = {r: float(np.mean(100.0 * values[:, :r].mean(axis=1))) for r in r_values}
    return report
