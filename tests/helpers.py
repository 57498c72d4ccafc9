"""Builders shared across test modules."""

from __future__ import annotations

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
