"""Builders shared across test modules."""

from __future__ import annotations

import math
from collections import Counter

from leadalloc.errors import DomainValidationError
from leadalloc.model import (
    CityDataset,
    NeighborhoodRecord,
    PriorityRanking,
    RankingEntry,
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


def dataset(rows, city="demo"):
    """Build a CityDataset from (name, prevalence, untested, coverage[, extras]) rows."""
    records = []
    for row in rows:
        extras = row[4] if len(row) > 4 else {}
        records.append(record(row[0], row[1], row[2], row[3], **extras))
    return CityDataset(
        city=city,
        records=tuple(records),
        bll_threshold_ug_dl=5.0,
        unit_kind=UnitKind.NAMED_AREA,
    )


def ranking_from_scores(scores, city="demo"):
    """Build a valid PriorityRanking from a {name: raw_score} mapping."""
    items = sorted(scores.items(), key=lambda kv: (-kv[1], kv[0]))
    max_raw = items[0][1]
    entries = tuple(
        RankingEntry(name, raw, 10.0 * (raw / max_raw) if max_raw > 0 else 0.0)
        for name, raw in items
    )
    return PriorityRanking(city=city, weights=derive_weights(0.6), entries=entries)


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
