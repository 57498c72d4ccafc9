"""Correlation and normalization primitives.

All functions are pure. Sums use ``math.fsum`` after centering (two-pass),
which keeps results stable for the modest column lengths seen here.
"""

from __future__ import annotations

import math
import warnings
from itertools import compress, groupby, repeat
from operator import mul, sub, truediv
from typing import Iterator, Sequence

from .errors import DataQualityWarning, DomainValidationError, UndefinedCorrelationError
from .model import CityDataset, COL_PREVALENCE, Value


class CorrelationResult(Value):
    """One factor's correlation ``r`` with prevalence over its ``n`` paired rows."""

    __slots__ = _fields = ("factor", "r", "n")

    def __init__(self, factor: str, r: float, n: int) -> None:
        self._init(factor, r, n)


def pearson(x: Sequence[float], y: Sequence[float]) -> float:
    """Pearson correlation coefficient of two equal-length sequences.

    Raises :class:`UndefinedCorrelationError` when fewer than two points
    are given or either input has zero variance, and
    :class:`DomainValidationError` on a value that is not finite; never
    returns a default. Any finite values work: each column is first scaled
    by a power of two (see :func:`_centered`), which leaves r unchanged.
    """
    if len(x) != len(y):
        raise DomainValidationError(f"length mismatch: {len(x)} vs {len(y)}")
    _require_finite(x, y)
    n = len(x)
    if n < 2:
        raise UndefinedCorrelationError(f"need at least 2 points, got {n}")
    dx, dy = _centered(x), _centered(y)
    # Products, not pow(d, 2): a product is correctly rounded, so exact under the scaling.
    sxx = math.fsum(map(mul, dx, dx))
    syy = math.fsum(map(mul, dy, dy))
    if sxx == 0.0 or syy == 0.0:
        raise UndefinedCorrelationError("zero variance makes correlation undefined")
    sxy = math.fsum(map(mul, dx, dy))
    r = sxy / math.sqrt(sxx * syy)
    return min(1.0, max(-1.0, r))


def _centered(values: Sequence[float]) -> Sequence[float]:
    """``values`` less their mean, once scaled so that the largest magnitude is in [0.5, 1).

    A power-of-two scale is exact unless a value becomes subnormal. Below 1,
    no sum, square or product in :func:`pearson` overflows, and a column
    that varies keeps a variance above 0.
    """
    from array import array  # deferred: only a correlation builds these columns

    shift = -math.frexp(max(map(abs, values)))[1]
    mean = math.fsum(map(math.ldexp, values, repeat(shift))) / len(values)
    # A float64 column, not a list: a float object costs 32 bytes, a column's value 8.
    return array("d", map(sub, map(math.ldexp, values, repeat(shift)), repeat(mean)))


def spearman(x: Sequence[float], y: Sequence[float]) -> float:
    """Spearman rank correlation (Pearson on average-tied ranks).

    Diagnostic alternative to :func:`pearson`; not used by scoring. Like
    it, rejects a value that is not finite, which has no rank.
    """
    _require_finite(x, y)
    return pearson(_average_ranks(x), _average_ranks(y))


def _require_finite(x: Sequence[float], y: Sequence[float]) -> None:
    if not (all(map(math.isfinite, x)) and all(map(math.isfinite, y))):
        raise DomainValidationError("correlation needs finite values")


def _average_ranks(values: Sequence[float]) -> list[float]:
    """The 1-based rank of each value; tied values share the mean of their ranks."""
    order = sorted(range(len(values)), key=values.__getitem__)
    ranks = [0.0] * len(values)
    start = 0
    for _, group in groupby(order, values.__getitem__):
        tied = list(group)
        rank = start + (len(tied) + 1) / 2
        for i in tied:
            ranks[i] = rank
        start += len(tied)
    return ranks


_ESTIMATORS = {"pearson": pearson, "spearman": spearman}


def correlate_factors(
    dataset: CityDataset,
    factors: Sequence[str],
    *,
    estimator: str = "pearson",
) -> list[CorrelationResult]:
    """Correlate each named factor with lead prevalence.

    Each factor is computed over the rows where both the factor and
    prevalence are present, so sparsely populated extra columns are
    handled without imputation: a blank (NaN) cell drops its row.
    """
    try:
        corr = _ESTIMATORS[estimator]
    except KeyError:
        raise DomainValidationError(
            f"unknown estimator {estimator!r}; choose from {sorted(_ESTIMATORS)}"
        ) from None
    known = set(dataset.factor_names())
    prevalence = dataset.prevalence.tolist()
    results = []
    for factor in factors:
        if factor == COL_PREVALENCE:
            raise DomainValidationError("cannot correlate prevalence with itself by name")
        if factor not in known:
            raise DomainValidationError(
                f"unknown factor {factor!r}; available: {', '.join(dataset.factor_names())}"
            )
        xs = dataset.column(factor).tolist()
        ys = prevalence
        if factor in dataset.extra_columns:
            present = list(map(math.isfinite, xs))
            xs, ys = list(compress(xs, present)), list(compress(ys, present))
        if len(xs) < 2:
            raise UndefinedCorrelationError(
                f"factor {factor!r} overlaps prevalence on only {len(xs)} row(s)"
            )
        results.append(CorrelationResult(factor, _named(corr, xs, ys, factor), len(xs)))
    return results


def _named(corr, xs: Sequence[float], ys: Sequence[float], factor: str) -> float:
    """``corr(xs, ys)`` of ``factor`` and prevalence; an undefined one names the pair."""
    try:
        return corr(xs, ys)
    except UndefinedCorrelationError as exc:
        raise UndefinedCorrelationError(f"{factor} vs {COL_PREVALENCE}: {exc}") from None


def min_max_normalize(values: Sequence[float]) -> list[float]:
    """Affinely map values onto [0, 1]; a constant column maps to all zeros.

    The degenerate constant-column case carries a :class:`DataQualityWarning`
    because it silently removes that column's influence from any score
    built on the result. This is the list of :func:`_min_max_scaled`'s
    values; a caller that consumes them as it reads them, as
    ``scoring.score_city`` does, uses that instead and holds no list.
    """
    return list(_min_max_scaled(values))


def _min_max_scaled(values: Sequence[float], column: str = "") -> Iterator[float]:
    """``(value - lo) / (hi - lo)`` for each value, made as it is read.

    The range is taken, and a constant column warned about by its name
    ``column``, when this is called, before any value is read.
    """
    if not values:
        raise DomainValidationError("cannot normalize an empty sequence")
    lo = min(values)
    hi = max(values)
    if lo == hi:
        warnings.warn(
            f"degenerate {f'column {column}' if column else 'column'}: all {len(values)} values"
            f" equal {lo}; normalized to 0",
            DataQualityWarning,
            stacklevel=3,
        )
        return repeat(0.0, len(values))
    return map(truediv, map(sub, values, repeat(lo)), repeat(hi - lo))
