"""Builders shared across test modules."""

from __future__ import annotations

import math
from collections import Counter

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
    """A PriorityRanking of ``(name, raw_score, scaled_score)`` entries."""
    return PriorityRanking(city, weights, *columns(entries, 3))


def plan_of_allocations(city, total_kits, allocations, strategy):
    """An AllocationPlan of ``(name, kits)`` allocations."""
    return AllocationPlan(city, total_kits, *columns(allocations, 2), strategy)


def ranking_from_scores(scores, city="demo"):
    """Build a valid PriorityRanking from a {name: raw_score} mapping."""
    items = sorted(scores.items(), key=lambda kv: (-kv[1], kv[0]))
    max_raw = items[0][1]
    entries = [
        (name, raw, 10.0 * (raw / max_raw) if max_raw > 0 else 0.0) for name, raw in items
    ]
    return ranking_of_entries(city, derive_weights(0.6), entries)


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

    It walks ``(name, raw_score, scaled_score)`` entries one at a time and
    raises ``DomainValidationError`` with the messages the columnar check
    must keep, in the same order of precedence.
    """
    if not entries:
        raise DomainValidationError(f"{city}: ranking has no entries")
    in_order = True
    previous_raw, previous_name = math.inf, ""
    for name, raw, scaled in entries:
        if not math.isfinite(raw) or raw < 0:
            raise DomainValidationError(f"{city}: non-finite or negative raw score for {name!r}")
        if not 0 <= scaled <= 10:
            raise DomainValidationError(f"{city}: scaled score out of [0, 10] for {name!r}")
        if raw > previous_raw or (raw == previous_raw and name < previous_name):
            in_order = False
        previous_raw, previous_name = raw, name
    if not in_order:
        raise DomainValidationError(
            f"{city}: entries are not sorted by raw score descending "
            "with canonical-name tie-break"
        )
    names = [name for name, _, _ in entries]
    if len(set(names)) != len(names):
        ((name, _),) = Counter(names).most_common(1)
        raise DomainValidationError(f"{city}: duplicate neighborhood {name!r}")
    scaled_scores = [scaled for _, _, scaled in entries]
    if entries[0][1] > 0:
        top = max(scaled_scores)
        if top != 10.0:
            raise DomainValidationError(f"{city}: top scaled score must be exactly 10.0, got {top}")
        if not all(a >= b for a, b in zip(scaled_scores, scaled_scores[1:])):
            raise DomainValidationError(f"{city}: scaled ordering disagrees with raw ordering")
    elif any(scaled_scores):
        raise DomainValidationError(
            f"{city}: all-zero raw scores require all-zero scaled scores"
        )
