"""Top-k overlap accuracy of recorded allocation recommendations.

A model run scores one hit for every target neighborhood that appears
anywhere in its top-k recommendations for that city, regardless of order.
Accuracies are exact fractions; display strings are truncated (not
rounded) to two decimals, so 6/9 renders as ``0.66``.
"""

from __future__ import annotations

from types import MappingProxyType
from typing import TYPE_CHECKING, AbstractSet, Iterable, Mapping, Sequence

from .errors import DomainValidationError
from .model import DEFAULT_K, ModelRun, TargetSet, Value, check_count

if TYPE_CHECKING:
    # Imported where used at run time: ``fractions`` loads ``decimal``, which
    # no command needs before it evaluates accuracies.
    from fractions import Fraction


def truncate_display(value: Fraction | int) -> str:
    """Format a non-negative rational truncated toward zero to two decimals."""
    from fractions import Fraction

    value = Fraction(value)
    if value < 0:
        raise DomainValidationError(f"display truncation expects a non-negative value, got {value}")
    hundredths = value.numerator * 100 // value.denominator
    return f"{hundredths // 100}.{hundredths % 100:02d}"


def city_hits(recommended: Sequence[str], targets: AbstractSet[str], k: int = DEFAULT_K) -> int:
    """Count targets appearing in the first ``k`` recommendations.

    Duplicate recommendations count once; an empty recommendation list
    scores zero.
    """
    check_count("k", k)
    return len(set(recommended[:k]) & set(targets))


class RunAccuracy(Value):
    """One run's hits per target city; its total and accuracy are derived from them."""

    __slots__ = _fields = ("model", "mode", "hits_per_city", "denominator")

    def __init__(
        self, model: str, mode: str, hits_per_city: Mapping[str, int], denominator: int
    ) -> None:
        self._init(model, mode, MappingProxyType(dict(hits_per_city)), denominator)

    def __post_init__(self) -> None:
        hits = self.hits_per_city
        fits = min(hits.values(), default=0) >= 0 and sum(hits.values()) <= self.denominator
        if not fits or self.denominator < 1:
            raise DomainValidationError(f"hits {dict(hits)} do not fit in {self.denominator} targets")

    @property
    def total_hits(self) -> int:
        return sum(self.hits_per_city.values())

    @property
    def accuracy_exact(self) -> Fraction:
        from fractions import Fraction

        return Fraction(self.total_hits, self.denominator)

    @property
    def accuracy_display(self) -> str:
        return truncate_display(self.accuracy_exact)


class AccuracyReport(Value):
    """Per-run accuracies plus two overall statistics derived from them.

    ``overall_mean`` pools hits over the pooled denominator; ``run_mean``
    is the arithmetic mean of per-run accuracies. They coincide whenever
    every run has the same denominator.
    """

    __slots__ = _fields = ("k", "per_run")

    def __init__(self, k: int, per_run: Iterable[RunAccuracy]) -> None:
        self._init(k, tuple(per_run))

    def __post_init__(self) -> None:
        if not self.per_run:
            raise DomainValidationError("cannot build a report from zero runs")

    @property
    def pooled_hits(self) -> int:
        return sum(r.total_hits for r in self.per_run)

    @property
    def pooled_denominator(self) -> int:
        return sum(r.denominator for r in self.per_run)

    @property
    def overall_mean_exact(self) -> Fraction:
        from fractions import Fraction

        return Fraction(self.pooled_hits, self.pooled_denominator)

    @property
    def overall_mean_display(self) -> str:
        return truncate_display(self.overall_mean_exact)

    @property
    def run_mean_exact(self) -> Fraction:
        return sum(r.accuracy_exact for r in self.per_run) / len(self.per_run)

    @property
    def run_mean_display(self) -> str:
        return truncate_display(self.run_mean_exact)


def build_report(runs: Sequence[ModelRun], targets: TargetSet, k: int = DEFAULT_K) -> AccuracyReport:
    """Count each run's hits per target city, runs in input order."""
    denominator = targets.total_targets()
    per_run = []
    for run in runs:
        # Cities the run skipped score zero hits but still count in the denominator.
        hits = {
            city: city_hits([rec.name for rec in run.per_city.get(city, ())], names, k)
            for city, names in targets.per_city.items()
        }
        per_run.append(RunAccuracy(run.model, run.mode, hits, denominator))
    return AccuracyReport(k, tuple(per_run))


def format_report_table(report: AccuracyReport) -> str:
    """Fixed-width text table: one row per run plus the overall lines."""
    from .ingest import table_lines  # deferred: only the table needs the writers

    rows = [
        (r.model, r.mode, f"{r.total_hits}/{r.denominator}", r.accuracy_display)
        for r in report.per_run
    ]
    pooled = f"{report.pooled_hits}/{report.pooled_denominator}"
    rows.append(("overall (pooled)", "", pooled, report.overall_mean_display))
    rows.append(("overall (mean of runs)", "", "", report.run_mean_display))
    headers = ("model", "mode", "hits", "accuracy")
    return "".join(table_lines(headers, list(zip(*rows)), ("",) * 4, left={0, 1}))


def report_to_dict(report: AccuracyReport) -> dict:
    """Machine-readable report with exact fractions alongside displays."""
    return {
        "k": report.k,
        "runs": [
            {
                "model": r.model,
                "mode": r.mode,
                "hits_per_city": dict(r.hits_per_city),
                "total_hits": r.total_hits,
                "denominator": r.denominator,
                "accuracy_exact": f"{r.total_hits}/{r.denominator}",
                "accuracy_display": r.accuracy_display,
            }
            for r in report.per_run
        ],
        "overall": {
            "pooled": {
                "total_hits": report.pooled_hits,
                "denominator": report.pooled_denominator,
                "exact": f"{report.pooled_hits}/{report.pooled_denominator}",
                "display": report.overall_mean_display,
            },
            "mean_of_runs": {
                "exact": str(report.run_mean_exact),
                "display": report.run_mean_display,
            },
        },
    }
