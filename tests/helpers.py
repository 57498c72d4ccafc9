"""Builders shared across test modules."""

from __future__ import annotations

import math

from leadalloc.errors import DomainValidationError
from leadalloc.model import (
    COL_COVERAGE,
    COL_PREVALENCE,
    COL_UNTESTED,
    AllocationPlan,
    CityDataset,
    NeighborhoodRecord,
    PriorityRanking,
    UnitKind,
)
from leadalloc.scoring import derive_weights


def record(name, prevalence, untested, coverage, **extras):
    return NeighborhoodRecord(
        name=name,
        prevalence=prevalence,
        untested_pct=untested,
        public_coverage_pct=coverage,
        extra_factors=extras,
    )


def metric(record, factor):
    """Value of a named metric column on ``record``, or None if the record lacks it."""
    if factor == COL_PREVALENCE:
        return record.prevalence
    if factor == COL_UNTESTED:
        return record.untested_pct
    if factor == COL_COVERAGE:
        return record.public_coverage_pct
    return record.extra_factors.get(factor)


def columns(rows, width):
    """The columns of ``rows``, tuples of ``width`` fields each; ``width`` empty ones if none."""
    return tuple(zip(*rows)) or ((),) * width


def dataset_of_records(city, records, bll_threshold_ug_dl=5.0, unit_kind=UnitKind.NAMED_AREA):
    """A CityDataset of ``NeighborhoodRecord``s, with NaN where a record lacks a factor."""
    records = tuple(records)
    factors = dict.fromkeys(factor for record in records for factor in record.extra_factors)
    extras = {
        factor: [record.extra_factors.get(factor, math.nan) for record in records]
        for factor in factors
    }
    return CityDataset(
        city,
        *columns([record[:4] for record in records], 4),
        extras,
        bll_threshold_ug_dl=bll_threshold_ug_dl,
        unit_kind=unit_kind,
    )


def dataset(rows, city="demo"):
    """Build a CityDataset from (name, prevalence, untested, coverage[, extras]) rows."""
    records = [record(*row[:4], **(row[4] if len(row) > 4 else {})) for row in rows]
    return dataset_of_records(city, records)


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
            {
                "neighborhood": entry.name,
                "raw_score": entry.raw_score,
                "scaled_score": entry.scaled_score,
            }
            for entry in ranking.entries
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
