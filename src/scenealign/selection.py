"""Overlap band filtering and max-min diversity selection.

Candidates first pass a Jaccard band against the positive graph: too much
overlap means the negative is barely wrong, too little means it no longer
looks like the same scene.  Survivors are then reduced to the most mutually
distant subset of rationale embeddings (the p-dispersion objective).
"""

from __future__ import annotations

import itertools
import logging
from dataclasses import dataclass, replace as dc_replace
from fractions import Fraction
from functools import lru_cache
from typing import Sequence

from .embed import Embedding, distance_matrix
from .errors import ConfigError
from .perturb import NegativeCandidate
from .scene_graph import SceneGraph, element_universe, universe_overlap

logger = logging.getLogger(__name__)

# symmetric widening applied per relaxation step when the band starves
_RELAX_STEP = 0.05

# largest input solved exactly by subset enumeration; above it, greedy
_EXACT_THRESHOLD = 15


@dataclass(frozen=True)
class SelectionConfig:
    """Overlap band, target count, and search/shortfall policy."""

    gamma_lower: float = 0.3
    gamma_upper: float = 0.7
    m: int = 3
    on_shortfall: str = "emit-fewer"  # or "relax-bounds"

    def __post_init__(self):
        if not 0.0 <= self.gamma_lower <= self.gamma_upper <= 1.0:
            raise ConfigError(
                f"overlap band [{self.gamma_lower}, {self.gamma_upper}] is not ordered within [0, 1]"
            )
        if type(self.m) is not int or self.m < 1:  # a bool or a float is no count
            raise ConfigError(f"m must be an integer of at least 1, got {self.m!r}")
        if self.on_shortfall not in ("emit-fewer", "relax-bounds"):
            raise ConfigError(f"unknown shortfall policy {self.on_shortfall!r}")


@lru_cache(maxsize=64)  # a run meets a few bounds, one pair per relaxation step
def _band_fraction(bound: float) -> Fraction:
    # interpret the bound as the decimal its shortest repr denotes, so that
    # J exactly equal to a decimal bound compares as inside the band
    return Fraction(str(bound))


def _in_band(counts: Sequence[tuple[int, int]], cfg: SelectionConfig) -> list[int]:
    """Indices whose exact ratio lies in the inclusive band, compared on integers."""
    lo = _band_fraction(cfg.gamma_lower)
    hi = _band_fraction(cfg.gamma_upper)
    # lo <= inter/union <= hi, with every denominator positive
    return [
        idx
        for idx, (inter, union) in enumerate(counts)
        if lo.numerator * union <= inter * lo.denominator and inter * hi.denominator <= hi.numerator * union
    ]


def filter_with_shortfall(
    candidates: Sequence[NegativeCandidate],
    sg_pos: SceneGraph,
    cfg: SelectionConfig = SelectionConfig(),
) -> tuple[list[int], SelectionConfig, int]:
    """Band filter plus the configured shortfall policy.

    The inclusive band is tested on exact ratios, so J on a bound stays in,
    and each candidate's ``jaccard`` is set.
    Under ``relax-bounds`` the band widens by 0.05 on both sides until at
    least ``m`` candidates survive or the band covers [0, 1].  Returns the
    retained indices, the bounds actually used, and the relaxation step count.
    """
    positive = element_universe(sg_pos)
    counts = [universe_overlap(element_universe(cand.graph), positive) for cand in candidates]
    for cand, (inter, union) in zip(candidates, counts):
        # int true division is correctly rounded: the float of the exact ratio
        cand.jaccard = inter / union
    kept = _in_band(counts, cfg)
    steps = 0
    current = cfg
    if cfg.on_shortfall == "relax-bounds":
        while len(kept) < cfg.m and (current.gamma_lower > 0.0 or current.gamma_upper < 1.0):
            current = dc_replace(
                current,
                gamma_lower=max(0.0, round(current.gamma_lower - _RELAX_STEP, 10)),
                gamma_upper=min(1.0, round(current.gamma_upper + _RELAX_STEP, 10)),
            )
            steps += 1
            kept = _in_band(counts, current)
        if steps:
            logger.info(
                "relaxed overlap band %d step(s) to [%g, %g]; %d candidate(s) retained",
                steps,
                current.gamma_lower,
                current.gamma_upper,
                len(kept),
            )
    return kept, current, steps


def _exact_max_min(dist, n: int, m: int) -> list[int]:
    best_subset: tuple[int, ...] | None = None
    best_score = -1.0
    for subset in itertools.combinations(range(n), m):
        score = min(dist[i][j] for i, j in itertools.combinations(subset, 2))
        # strict improvement keeps the lexicographically smallest tie winner,
        # because combinations() enumerates subsets in lexicographic order
        if score > best_score:
            best_score = score
            best_subset = subset
    assert best_subset is not None
    return list(best_subset)


def _greedy_max_min(dist, n: int, m: int) -> list[int]:
    # seed with the globally farthest pair, smallest indices on ties
    best_pair = (0, 1)
    best_d = -1.0
    for i in range(n):
        for j in range(i + 1, n):
            if dist[i][j] > best_d:
                best_d = dist[i][j]
                best_pair = (i, j)
    selected = [best_pair[0], best_pair[1]]
    chosen = set(selected)
    while len(selected) < m:
        best_idx = -1
        best_score = -1.0
        for idx in range(n):
            if idx in chosen:
                continue
            score = min(dist[idx][s] for s in selected)
            if score > best_score:
                best_score = score
                best_idx = idx
        selected.append(best_idx)
        chosen.add(best_idx)
    return sorted(selected)


def forced_choice(n: int, m: int) -> list[int] | None:
    """The indices :func:`select_diverse` picks from ``n`` points without a distance, or None.

    With ``n <= m`` every point is kept.  With ``m == 1`` every singleton
    has an empty pairwise set, so the lexicographic tie-break keeps ``[0]``.
    Only when ``n > m >= 2`` do the distances decide, so a caller can skip
    embedding the points whenever this returns a list.
    """
    if n <= m:
        return list(range(n))
    if m == 1:
        return [0]
    return None


def select_diverse(embeddings: Sequence[Embedding], m: int) -> list[int]:
    """Pick ``m`` indices maximizing the minimal pairwise distance.

    Small inputs (up to 15 points) are solved exactly by subset
    enumeration with lexicographic tie-breaking; larger inputs fall back to
    greedy farthest-point insertion seeded with the farthest pair.  Indices
    come back in ascending order.
    """
    n = len(embeddings)
    if m < 1:
        raise ConfigError("m must be at least 1")
    forced = forced_choice(n, m)
    if forced is not None:
        return forced
    dist = distance_matrix(embeddings)
    if n <= _EXACT_THRESHOLD:
        return _exact_max_min(dist, n, m)
    return _greedy_max_min(dist, n, m)
