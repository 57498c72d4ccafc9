"""Priority-score weight derivation and per-city neighborhood ranking.

The method fixes the prevalence weight alpha and derives the coverage
weight gamma from the correlation between public coverage and prevalence.
Two gamma rules are in circulation for this derivation, so both are
implemented as explicit variants:

* ``text``:      gamma = clamp(r, 0, 1) * (1 - alpha)
* ``algorithm``: gamma = clamp(r, 0, 1)

with beta = (1 - alpha) * (1 - gamma) in both cases. The two rules, and the
division by the weights' sum that ``normalize_weights`` asks for (ranking
order is unaffected either way), live in :func:`leadalloc.model.derived_weights`.
"""

from __future__ import annotations

import warnings
from itertools import repeat
from operator import add, itemgetter, mul

from .errors import DataQualityWarning, DomainValidationError
from .model import (
    COL_COVERAGE,
    DEFAULT_ALPHA,
    METRIC_CAPS,
    CityDataset,
    PriorityRanking,
    WeightConfig,
    WeightVariant,
    check_alpha,
    check_count,
    check_correlation,
    derived_weights,
)
from .stats import _min_max_scaled, _named, pearson


def derive_weights(
    r: float,
    alpha: float = DEFAULT_ALPHA,
    variant: WeightVariant | str = WeightVariant.TEXT,
    *,
    normalize: bool = False,
) -> WeightConfig:
    """Derive (beta, gamma) from the coverage-prevalence correlation ``r``.

    ``alpha`` and ``r`` are checked before the derivation, and so before any
    warning or rescaling. Negative correlations are clamped to zero (with a
    warning) instead of producing a negative coverage weight, which would
    invert the metric's intent.
    """
    variant = WeightVariant(variant)
    check_alpha(alpha)  # first: an int past float range overflows the derivation
    check_correlation(r)
    if r < 0:
        warnings.warn(
            f"negative correlation {r} clamped to 0 for weight derivation",
            DataQualityWarning,
            stacklevel=2,
        )
    return WeightConfig(
        *derived_weights(r, alpha, variant, normalize), variant, r, bool(normalize)
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
    weights and sorted descending (ties broken by canonical name). The
    ranking's ``scaled_scores`` map the top raw score to exactly 10.0.
    """
    if len(dataset) < 2:
        raise DomainValidationError(
            f"{dataset.city}: scoring needs at least 2 records, got {len(dataset)}"
        )
    prevalence = dataset.prevalence
    coverage = dataset.public_coverage_pct

    r = _named(pearson, coverage, prevalence, COL_COVERAGE) if r_override is None else r_override
    weights = derive_weights(r, alpha, variant, normalize=normalize_weights)

    from array import array  # deferred: only scoring builds the column

    # Each score is alpha·P + beta·U + gamma·H, summed in that order. The
    # normalized columns are read as the sum is made, so none is held, and
    # the scores go into a float64 column, not float objects.
    columns = (prevalence, dataset.untested_pct, coverage)
    alpha_beta_gamma = (weights.alpha, weights.beta, weights.gamma)
    scaled = map(_min_max_scaled, columns, METRIC_CAPS)  # each warned about by its name
    p, u, h = (map(mul, repeat(w), c) for w, c in zip(alpha_beta_gamma, scaled))
    raw = array("d", map(add, map(add, p, u), h))

    # Raw score descending, ties by name: sorts are stable, even in reverse,
    # so sort by name first.
    names = dataset.names
    order = sorted(range(len(raw)), key=names.__getitem__)
    order.sort(key=raw.__getitem__, reverse=True)
    names = itemgetter(*order)(names)  # at least 2 positions, so it picks a tuple
    raw = array("d", map(raw.__getitem__, order))
    del order  # n index ints, freed before the ranking's checks build a list
    if raw[0] <= 0:
        warnings.warn(
            f"{dataset.city}: all raw priority scores are zero; scaled scores set to 0",
            DataQualityWarning,
            stacklevel=2,
        )
        raw = repeat(0.0, len(raw))
    return PriorityRanking(dataset.city, weights, names, raw)


def top_k(ranking: PriorityRanking, k: int) -> list[str]:
    """First ``min(k, len)`` neighborhood names in ranking order."""
    check_count("k", k)
    return list(ranking.names[:k])
