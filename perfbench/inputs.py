"""Seeded benchmark inputs, written with the benchmark's own CSV and JSON code.

Nothing here imports leadalloc: a change to the package cannot alter the
inputs it is measured on. Every generator takes a ``random.Random`` seeded
from the run's ``--seed`` and also returns what the outputs must contain,
so the checks do not depend on the package either.
"""

from __future__ import annotations

import csv
import json
import random
from dataclasses import dataclass, field
from pathlib import Path

# Spellings from the bundled alias table, with the canonical name each resolves to.
ALIAS_SPELLINGS = {
    "Gr. Grand Crossing": "greater grand crossing",
    "Bed-Stuy": "bedford stuyvesant",
    "Hunts Point and Mott Haven": "hunts point mott haven",
}

_FIRST = (
    "north south east west upper lower old new little grand lake river park hill "
    "mill cedar oak pine maple elm stone bridge harbor market garden prairie forest "
    "union liberty summit"
).split()
_SECOND = (
    "heights park village square point gardens terrace crossing ridge hollow landing "
    "commons junction flats grove meadows springs yards row court"
).split()

CORE_HEADER = ["neighborhood", "prevalence_per_1000", "untested_pct", "public_coverage_pct"]


@dataclass
class Row:
    """One kept row, keyed by its canonical name in :class:`CityInput`."""

    prevalence: float
    untested: float
    coverage: float
    extra: float | None


@dataclass
class CityInput:
    city: str
    path: Path
    extra_factor: str
    kept: dict[str, Row] = field(default_factory=dict)
    rows_written: int = 0
    rows_missing_core: int = 0
    rows_variant: int = 0
    rows_alias: int = 0
    ties: int = 0  # adjacent exact raw-score ties in the checked ranking


@dataclass
class RankingInput:
    city: str
    path: Path
    names: list[str]
    raw_scores: list[float]
    ties: int


def _quantized_row(rng: random.Random) -> tuple[float, float, float, float]:
    prevalence = rng.randint(0, 40) / 2
    untested = float(rng.randint(5, 65))
    # Coverage rises with prevalence, so the derived coverage weight is positive.
    coverage = float(min(100, max(0, round(8 + 1.5 * prevalence + rng.gauss(0, 8)))))
    extra = float(rng.randint(0, 100))
    return prevalence, untested, coverage, extra


def _spell(canonical: str, rng: random.Random) -> str:
    """A spelling that canonicalizes back to ``canonical``: case and punctuation only."""
    words = canonical.split()
    style = rng.randrange(4)
    if style == 0:
        return " ".join(word.capitalize() for word in words)
    if style == 1:
        return "-".join(words).upper()
    if style == 2:
        return " – ".join(word.capitalize() for word in words)
    return canonical.title() + "."


def write_city(
    path: Path,
    city: str,
    names: list[str],
    rng: random.Random,
    *,
    aliases: dict[str, str],
    extra_factor: str,
    missing_core_share: float,
    missing_extra_share: float,
    variant_share: float,
) -> CityInput:
    """Write one city CSV; ``names`` are canonical and distinct."""
    result = CityInput(city, path, extra_factor)
    by_canonical = {canonical: spelling for spelling, canonical in aliases.items()}
    missing_rows = set(rng.sample(range(len(names)), round(missing_core_share * len(names))))
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(CORE_HEADER + [extra_factor])
        for index, canonical in enumerate(names):
            prevalence, untested, coverage, extra = _quantized_row(rng)
            cells = [repr(prevalence), repr(untested), repr(coverage), repr(extra)]
            has_extra = rng.random() >= missing_extra_share
            if not has_extra:
                cells[3] = ""
            if canonical in by_canonical:
                spelling = by_canonical[canonical]
                result.rows_alias += 1
            elif rng.random() < variant_share:
                spelling = _spell(canonical, rng)
                result.rows_variant += 1
            else:
                spelling = canonical
            if index in missing_rows:
                cells[rng.randrange(3)] = ""
                result.rows_missing_core += 1
            else:
                result.kept[canonical] = Row(
                    prevalence, untested, coverage, extra if has_extra else None
                )
            writer.writerow([spelling] + cells)
            result.rows_written += 1
    return result


def area_names(rng: random.Random, count: int, *, numbered: bool) -> list[str]:
    """Distinct canonical area names; ``numbered`` appends an index for large cities."""
    if numbered:
        return [f"{rng.choice(_FIRST)} {rng.choice(_SECOND)} {i}" for i in range(count)]
    pairs = [f"{first} {second}" for first in _FIRST for second in _SECOND]
    return rng.sample(pairs, count)


def city_names(
    city: str, rng: random.Random, count: int, aliases: dict[str, str], *, numbered: bool = False
) -> list[str]:
    """Canonical names for a city, including those ``aliases`` spell differently."""
    if city == "dc":
        return [str(zip_code) for zip_code in sorted(rng.sample(range(20001, 20100), count))]
    alias_names = list(aliases.values())
    names = area_names(rng, count - len(alias_names), numbered=numbered) + alias_names
    rng.shuffle(names)
    return names


def write_ranking(path: Path, city: str, n: int, rng: random.Random) -> RankingInput:
    """Write a valid ranking JSON of ``n`` entries with quantized, partly tied scores."""
    names = [f"tract {i:05d}" for i in range(n)]
    scored = sorted(((rng.randint(1, 4000) / 4000, name) for name in names), key=lambda e: (-e[0], e[1]))
    top = scored[0][0]
    # Weights follow the `text` derivation rule for r = 0.4 and alpha = 0.5.
    doc = {
        "city": city,
        "weights": {
            "alpha": 0.5,
            "beta": 0.4,
            "gamma": 0.2,
            "variant": "text",
            "source_correlation": 0.4,
            "normalized": False,
        },
        "entries": [
            {"neighborhood": name, "raw_score": raw, "scaled_score": 10.0 * (raw / top)}
            for raw, name in scored
        ],
    }
    path.write_text(json.dumps(doc, indent=2) + "\n", encoding="utf-8")
    raws = [raw for raw, _ in scored]
    ties = sum(1 for a, b in zip(raws, raws[1:]) if a == b)
    return RankingInput(city, path, [name for _, name in scored], raws, ties)
