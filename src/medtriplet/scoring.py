"""Hierarchical set-similarity score between two meta-entity structures.

For samples i and j the score is

    (delta_d / |d_i u d_j|) * sum over shared diseases q of
        (g0 + g1*JI_adj(q) + g2*JI_dir(q)) / (g0 + g1*delta_adj(q) + g2*delta_dir(q))

where JI is the Jaccard index of the per-disease descriptor sets (0 when
both sets are empty, so self-score stays 1) and the delta indicators
normalize each summand into [0, 1]. Two indicator
semantics are supported:

* ``union`` (default): delta = 1 iff the union of the two descriptor
  sets is non-empty. A fully mismatched descriptor pair then lowers the
  summand instead of cancelling out of it.
* ``intersection``: delta = 1 iff the intersection is non-empty. Kept
  behind the flag for fidelity experiments; note that under it a fully
  mismatched descriptor pair scores the same as a fully matched one.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Literal, NamedTuple

from .extraction import MetaEntities

Semantics = Literal["union", "intersection"]

SEMANTICS: tuple[Semantics, ...] = ("union", "intersection")
DEFAULT_SEMANTICS: Semantics = "union"


@dataclass(frozen=True)
class GammaWeights:
    """Disease/adjective/direction term weights; must sum to one."""

    g0: float = 0.85
    g1: float = 0.10
    g2: float = 0.05

    def __post_init__(self) -> None:
        for name in ("g0", "g1", "g2"):
            # A NaN fails every comparison, so "not 0 <= x < inf" rejects it too.
            if not 0 <= getattr(self, name) < math.inf:
                raise ValueError(f"gamma weight {name} must be finite and nonnegative, got {getattr(self, name)!r}")
        if abs(self.g0 + self.g1 + self.g2 - 1.0) > 1e-12:
            raise ValueError(f"gamma weights must sum to 1, got {self.g0 + self.g1 + self.g2!r}")


class DiseaseTermScore(NamedTuple):
    """One shared disease's contribution to the score."""

    disease: str
    ji_adj: float
    ji_dir: float
    summand: float


class ScoreBreakdown(NamedTuple):
    """Score plus every intermediate, for explainability and band checks."""

    shared_diseases: tuple[DiseaseTermScore, ...]
    prefactor: float
    total: float


_NO_SHARED = ScoreBreakdown((), 0.0, 0.0)
_new = tuple.__new__


def score(
    mi: MetaEntities,
    mj: MetaEntities,
    weights: GammaWeights = GammaWeights(),
    semantics: Semantics = DEFAULT_SEMANTICS,
) -> ScoreBreakdown:
    """Score two meta-entity structures; symmetric in its arguments.

    Kernel contract: every float is the same operation in the same order as
    the formula above, so scores repeat bit for bit. Each union size is
    |A| + |B| - |A & B|, one set operation per descriptor kind and none when
    a side is empty; the indicators come from the same counts. The summands
    add left to right into a running total, the plain float addition that
    ``sum`` did before Python 3.12 made it compensated. The named tuples are
    built with ``tuple.__new__``, as their own ``_make`` does, which skips a
    Python frame per tuple. Mining calls this once per ordered pair, and the
    benchmark's traced run counts those calls, so the kernel keeps no memo.
    """
    if semantics not in SEMANTICS:
        raise ValueError(f"unknown indicator semantics {semantics!r}; expected one of: {', '.join(SEMANTICS)}")
    di, dj = mi.by_disease, mj.by_disease
    shared = di.keys() & dj.keys()
    if not shared:
        return _NO_SHARED
    n_shared = len(shared)
    prefactor = 1.0 / (len(di) + len(dj) - n_shared)
    if n_shared > 1:
        shared = sorted(shared)
    g0, g1, g2 = weights.g0, weights.g1, weights.g2
    by_union = semantics == "union"
    terms = []
    total = 0
    for disease in shared:
        ei, ej = di[disease], dj[disease]
        ai, aj, ri, rj = ei.adj, ej.adj, ei.dir, ej.dir
        n_adj, n_dir = len(ai) + len(aj), len(ri) + len(rj)
        adj_and = len(ai & aj) if ai and aj else 0
        dir_and = len(ri & rj) if ri and rj else 0
        ji_adj = adj_and / (n_adj - adj_and) if n_adj else 0.0
        ji_dir = dir_and / (n_dir - dir_and) if n_dir else 0.0
        numer = g0 + g1 * ji_adj + g2 * ji_dir
        if by_union:
            denom = g0 + g1 * (1.0 if n_adj else 0.0) + g2 * (1.0 if n_dir else 0.0)
        else:
            denom = g0 + g1 * (1.0 if adj_and else 0.0) + g2 * (1.0 if dir_and else 0.0)
        # denom = 0 only when g0 = 0 and every weighted indicator is 0;
        # a shared disease with nothing to weigh counts as a full match,
        # which keeps self-score at 1 for degenerate weightings.
        summand = numer / denom if denom > 0 else 1.0
        terms.append(_new(DiseaseTermScore, (disease, ji_adj, ji_dir, summand)))
        total += summand
    return _new(ScoreBreakdown, (tuple(terms), prefactor, prefactor * total))
