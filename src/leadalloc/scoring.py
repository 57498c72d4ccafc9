"""Priority-score weight derivation and per-city neighborhood ranking.

The method fixes the prevalence weight alpha and derives the coverage
weight gamma from the correlation between public coverage and prevalence.
Two gamma rules are in circulation for this derivation, so both are
implemented as explicit variants:

* ``text``:      gamma = clamp(r, 0, 1) * (1 - alpha)
* ``algorithm``: gamma = clamp(r, 0, 1)

with beta = (1 - alpha) * (1 - gamma) in both cases. Neither rule makes
the weights sum to 1; ``normalize_weights`` rescales them when a unit sum
is wanted (ranking order is unaffected either way).
"""

from __future__ import annotations

import warnings
from itertools import repeat
from operator import add, itemgetter, mul, truediv

from .errors import DataQualityWarning, DomainValidationError
from .model import (
    CityDataset,
    PriorityRanking,
    WeightConfig,
    WeightVariant,
    derived_beta_gamma,
)
from .stats import min_max_normalize, pearson

DEFAULT_ALPHA = 0.5


def derive_weights(
    r: float,
    alpha: float = DEFAULT_ALPHA,
    variant: WeightVariant | str = WeightVariant.TEXT,
    *,
    normalize: bool = False,
) -> WeightConfig:
    """Derive (beta, gamma) from the coverage-prevalence correlation ``r``.

    Negative correlations are clamped to zero (with a warning) instead of
    producing a negative coverage weight, which would invert the metric's
    intent.
    """
    variant = WeightVariant(variant)
    if not 0 < alpha < 1:
        raise DomainValidationError(f"alpha must be in the open interval (0, 1), got {alpha}")
    if not -1 <= r <= 1:
        raise DomainValidationError(f"correlation must lie in [-1, 1], got {r}")
    if r < 0:
        warnings.warn(
            f"negative correlation {r} clamped to 0 for weight derivation",
            DataQualityWarning,
            stacklevel=2,
        )
    beta, gamma = derived_beta_gamma(r, alpha, variant)
    if normalize:
        total = alpha + beta + gamma
        return WeightConfig(
            alpha=alpha / total,
            beta=beta / total,
            gamma=gamma / total,
            variant=variant,
            source_correlation=r,
            normalized=True,
        )
    return WeightConfig(
        alpha=alpha,
        beta=beta,
        gamma=gamma,
        variant=variant,
        source_correlation=r,
    )


def score_city(
    dataset: CityDataset,
    alpha: float = DEFAULT_ALPHA,
    variant: WeightVariant | str = WeightVariant.TEXT,
    r_override: float | None = None,
    *,
    normalize_weights: bool = False,
) -> PriorityRanking:
    """Rank a city's neighborhoods by priority score.

    Prevalence, untested percentage, and coverage percentage are min-max
    normalized within the city, combined linearly with the derived
    weights, sorted descending (ties broken by canonical name), and
    rescaled so the top raw score maps to exactly 10.0.
    """
    if len(dataset) < 2:
        raise DomainValidationError(
            f"{dataset.city}: scoring needs at least 2 records, got {len(dataset)}"
        )
    prevalence = dataset.prevalence
    coverage = dataset.public_coverage_pct

    r = r_override if r_override is not None else pearson(coverage, prevalence)
    weights = derive_weights(r, alpha, variant, normalize=normalize_weights)

    # Each score is alpha·P + beta·U + gamma·H, summed in that order.
    columns = (prevalence, dataset.untested_pct, coverage)
    p, u, h = (map(mul, repeat(w), min_max_normalize(c)) for w, c in zip(weights[:3], columns))
    raw = list(map(add, map(add, p, u), h))
    del p, u, h  # map stops at its first exhausted input, so u and h still hold their lists

    # Raw score descending, ties by name: sorts are stable, even in reverse,
    # so sort by name first. Neither pass builds a key object per record.
    names = dataset.names
    order = sorted(range(len(raw)), key=names.__getitem__)
    order.sort(key=raw.__getitem__, reverse=True)
    pick = itemgetter(*order)  # at least 2 positions, so it picks tuples
    names, raw = pick(names), pick(raw)
    del order, pick  # n index ints, freed before the ranking's checks build a list
    max_raw = raw[0]
    if max_raw > 0:
        scaled = tuple(map(mul, repeat(10.0), map(truediv, raw, repeat(max_raw))))
    else:
        warnings.warn(
            f"{dataset.city}: all raw priority scores are zero; scaled scores set to 0",
            DataQualityWarning,
            stacklevel=2,
        )
        raw = scaled = (0.0,) * len(raw)
    return PriorityRanking(dataset.city, weights, names, raw, scaled)


def top_k(ranking: PriorityRanking, k: int) -> list[str]:
    """First ``min(k, len)`` neighborhood names in ranking order."""
    if k < 1:
        raise DomainValidationError(f"k must be >= 1, got {k}")
    return list(ranking.names[:k])
