"""Builders shared across test modules."""

from __future__ import annotations

import math

from leadalloc.errors import DomainValidationError
from leadalloc.model import (
    CORE_COLUMNS,
    AllocationPlan,
    CityDataset,
    PriorityRanking,
    UnitKind,
)
from leadalloc.scoring import derive_weights


def row(name, prevalence, untested, coverage, **extras):
    """One neighborhood as a dict keyed by CSV column; a factor it lacks is no key."""
    return dict(zip(CORE_COLUMNS, (name, prevalence, untested, coverage)), **extras)


def extra_factors(row):
    """The cells of ``row`` beyond the four core columns."""
    return {column: value for column, value in row.items() if column not in CORE_COLUMNS}


def columns(rows, width):
    """The columns of ``rows``, tuples of ``width`` fields each; ``width`` empty ones if none."""
    return tuple(zip(*rows)) or ((),) * width


def rows_of(dataset):
    """The row dicts of ``dataset``, read from its columns, leaving out each blank extra cell."""
    metrics = zip(dataset.prevalence, dataset.untested_pct, dataset.public_coverage_pct)
    return [
        row(name, *values, **{
            factor: column[index]
            for factor, column in dataset.extra_columns.items()
            if not math.isnan(column[index])
        })
        for index, (name, values) in enumerate(zip(dataset.names, metrics))
    ]


def dataset_of_rows(city, rows, bll_threshold_ug_dl=5.0, unit_kind=UnitKind.NAMED_AREA):
    """A CityDataset of row dicts, with NaN where a row lacks a factor."""
    rows = tuple(rows)
    factors = dict.fromkeys(factor for row in rows for factor in extra_factors(row))
    return CityDataset(
        city,
        *columns([[row[column] for column in CORE_COLUMNS] for row in rows], 4),
        {factor: [row.get(factor, math.nan) for row in rows] for factor in factors},
        bll_threshold_ug_dl=bll_threshold_ug_dl,
        unit_kind=unit_kind,
    )


def dataset(rows, city="demo"):
    """Build a CityDataset from (name, prevalence, untested, coverage[, extras]) rows."""
    return dataset_of_rows(city, [row(*cells[:4], **dict(*cells[4:])) for cells in rows])


def ranking_of_entries(city, weights, entries):
    """A PriorityRanking of ``(name, raw_score)`` entries."""
    return PriorityRanking(city, weights, *columns(entries, 2))


def plan_of_allocations(city, total_kits, allocations, strategy):
    """An AllocationPlan of ``(name, kits)`` allocations."""
    return AllocationPlan(city, total_kits, *columns(allocations, 2), strategy)


def ranking_from_scores(scores, city="demo"):
    """Build a valid PriorityRanking from a {name: raw_score} mapping."""
    items = sorted(scores.items(), key=lambda kv: (-kv[1], kv[0]))
    return ranking_of_entries(city, derive_weights(0.6), items)


def ranking_to_dict(ranking):
    """The ranking JSON document as a dict: the reference the streaming writer is checked against."""
    return {
        "city": ranking.city,
        "weights": ranking.weights.as_dict(),
        "entries": [
            {"neighborhood": name, "raw_score": raw, "scaled_score": scaled}
            for name, raw, scaled in zip(ranking.names, ranking.raw_scores, ranking.scaled_scores)
        ],
    }


def check_ranking_entry_by_entry(city, entries):
    """The ranking check as it was before rankings were held as columns, for comparison.

    It walks ``(name, raw_score)`` entries one at a time and raises
    ``DomainValidationError`` with the messages the columnar check must
    keep, in the same order of precedence, and with ``at`` holding the
    index of the entry that breaks the rule.
    """
    if not entries:
        raise DomainValidationError(f"{city}: ranking has no entries")
    out_of_order = None
    previous_raw, previous_name = math.inf, ""
    for index, (name, raw) in enumerate(entries):
        if not math.isfinite(raw) or raw < 0:
            raise DomainValidationError(
                f"{city}: non-finite or negative raw score for {name!r}", at=(index,)
            )
        if raw > previous_raw or (raw == previous_raw and name < previous_name):
            out_of_order = index if out_of_order is None else out_of_order
        previous_raw, previous_name = raw, name
    if out_of_order is not None:
        raise DomainValidationError(
            f"{city}: entries are not sorted by raw score descending "
            "with canonical-name tie-break",
            at=(out_of_order,),
        )
    seen = set()
    for index, (name, _) in enumerate(entries):
        if name in seen:
            raise DomainValidationError(f"{city}: duplicate neighborhood {name!r}", at=(index,))
        seen.add(name)
