"""Independent oracles used to verify the production implementations.

The scoring oracle below is a direct, self-contained transcription of
the similarity definition over plain dicts and sets. It shares no code
with medtriplet.scoring; keep it that way. The retrieval oracle works
the same way over plain lists and sets and shares no code with
medtriplet.evaluation; neither does the AUC oracle, which counts
pairwise wins instead of ranking. The GELU oracle is the scalar tanh
formula on Python floats and ``math.tanh``.
"""

from __future__ import annotations

import math

import numpy as np

from medtriplet.extraction import DiseaseEntry, MetaEntities

# {disease: (adj set, dir set)} is the oracle-side entity encoding.
PlainEntities = dict


def oracle_score(mi: PlainEntities, mj: PlainEntities, g0: float, g1: float, g2: float, semantics: str) -> float:
    di, dj = set(mi), set(mj)
    inter = sorted(di & dj)
    union = di | dj
    if not inter:
        return 0.0
    total = 0.0
    for q in inter:
        adj_i, dir_i = mi[q]
        adj_j, dir_j = mj[q]
        adj_union, adj_inter = adj_i | adj_j, adj_i & adj_j
        dir_union, dir_inter = dir_i | dir_j, dir_i & dir_j
        ji_adj = len(adj_inter) / len(adj_union) if adj_union else 0.0
        ji_dir = len(dir_inter) / len(dir_union) if dir_union else 0.0
        if semantics == "union":
            d_adj = 1.0 if adj_union else 0.0
            d_dir = 1.0 if dir_union else 0.0
        else:
            d_adj = 1.0 if adj_inter else 0.0
            d_dir = 1.0 if dir_inter else 0.0
        numer = g0 + g1 * ji_adj + g2 * ji_dir
        denom = g0 + g1 * d_adj + g2 * d_dir
        total += numer / denom if denom > 0 else 1.0
    return total / len(union)


def oracle_gelu(x: float) -> float:
    """Tanh-approximation GELU of one float."""
    return 0.5 * x * (1.0 + math.tanh(math.sqrt(2.0 / math.pi) * (x + 0.044715 * x**3)))


def oracle_binary_auc(positive: list[bool], scores: list[float]) -> float:
    """One-vs-rest AUC over every positive/negative pair, ranks never formed:
    (wins + ties / 2) / (P * N)."""
    pos = [s for s, p in zip(scores, positive) if p]
    neg = [s for s, p in zip(scores, positive) if not p]
    wins = sum(1 for a in pos for b in neg if a > b)
    ties = sum(1 for a in pos for b in neg if a == b)
    return (wins + ties / 2) / (len(pos) * len(neg))


def to_meta(plain: PlainEntities) -> MetaEntities:
    return MetaEntities(
        tuple(
            DiseaseEntry(d, frozenset(adj), frozenset(direction))
            for d, (adj, direction) in sorted(plain.items())
        )
    )


def enumerate_uniform_entities(
    diseases: tuple[str, ...], adj_pool: tuple[str, ...], dir_pool: tuple[str, ...]
) -> list[PlainEntities]:
    """Every entity over the disease subsets, with one adjective subset
    and one direction subset applied uniformly to all present diseases."""

    def subsets(pool):
        out = [set()]
        for item in pool:
            out += [s | {item} for s in out]
        return out

    entities: list[PlainEntities] = []
    seen: set[tuple] = set()
    for disease_subset in subsets(diseases):
        for adj in subsets(adj_pool):
            for direction in subsets(dir_pool):
                plain = {d: (set(adj), set(direction)) for d in sorted(disease_subset)}
                key = tuple((d, tuple(sorted(a)), tuple(sorted(r))) for d, (a, r) in sorted(plain.items()))
                if key not in seen:
                    seen.add(key)
                    entities.append(plain)
    return entities


def random_entities(
    rng: np.random.Generator,
    disease_pool: tuple[str, ...] = ("d1", "d2", "d3", "d4", "d5"),
    adj_pool: tuple[str, ...] = ("a1", "a2", "a3"),
    dir_pool: tuple[str, ...] = ("r1", "r2", "r3"),
    max_diseases: int = 3,
) -> PlainEntities:
    """Heterogeneous random entity: per-disease independent descriptor sets."""
    n = int(rng.integers(0, max_diseases + 1))
    chosen = rng.choice(len(disease_pool), size=n, replace=False) if n else []
    plain: PlainEntities = {}
    for idx in chosen:
        adj = {a for a in adj_pool if rng.random() < 0.4}
        direction = {d for d in dir_pool if rng.random() < 0.4}
        plain[disease_pool[int(idx)]] = (adj, direction)
    return plain


def _plain_labels(plain: PlainEntities, kind: str) -> set:
    if kind == "disease":
        return set(plain)
    return set().union(*(descriptors[0 if kind == "adjective" else 1] for descriptors in plain.values()))


def oracle_retrieval_report(
    queries: list[list[float]],
    gallery: list[list[float]],
    plain: list[PlainEntities],
    r_values,
    match_mode: str,
) -> dict[str, dict[int, float]]:
    """Mean P@R per kind: rank the other rows by (-cosine, row), then
    average Jaccard (or exact-match) consistency of the top R.

    The averages go through ``np.mean`` so that the summation order, and
    so every bit of the result, is the one the report uses.
    """

    def cos(u, v):
        dot = sum(a * b for a, b in zip(u, v))
        return dot / (math.sqrt(sum(a * a for a in u)) * math.sqrt(sum(b * b for b in v)))

    def consistency(a: set, b: set) -> float:
        if match_mode == "exact":
            return 1.0 if a == b else 0.0
        return len(a & b) / len(a | b) if a | b else 0.0

    out = {}
    for kind in ("disease", "adjective", "direction"):
        labels = [_plain_labels(p, kind) for p in plain]
        out[kind] = {}
        for r in r_values:
            per_query = []
            for i, query in enumerate(queries):
                ranked = sorted((-cos(query, gallery[j]), j) for j in range(len(gallery)) if j != i)
                per_query.append(100.0 * float(np.mean([consistency(labels[i], labels[j]) for _, j in ranked[:r]])))
            out[kind][r] = float(np.mean(per_query))
    return out
