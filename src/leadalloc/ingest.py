"""File ingestion: city dataset CSV, model-run JSON, target-set JSON.

Parsers are deterministic pure functions of the input bytes. Each returns
the parsed value together with a :class:`ValidationReport`; inputs with
error-severity issues raise :class:`DatasetValidationError` carrying that
report, so callers never see a half-valid dataset.

City dataset CSV schema (header order-insensitive, UTF-8, comma-separated)::

    neighborhood,prevalence_per_1000,untested_pct,public_coverage_pct[,<factor>...]

Lines before the header starting with ``#`` are comments; a comment of the
form ``# unit=fraction`` declares that the two percentage columns are
given in [0, 1] and converts them to 0-100 on load.
"""

from __future__ import annotations

import csv
import json
import math
from dataclasses import dataclass, field
from pathlib import Path
from typing import NamedTuple

from .errors import DatasetValidationError, DomainValidationError, InvalidNameError
from .model import (
    AliasTable,
    CityDataset,
    COL_COVERAGE,
    COL_NEIGHBORHOOD,
    COL_PREVALENCE,
    COL_UNTESTED,
    CORE_COLUMNS,
    ModelRun,
    NeighborhoodRecord,
    PriorityRanking,
    RankingEntry,
    Recommendation,
    TargetSet,
    UnitKind,
    WeightConfig,
    WeightVariant,
    canonicalize_name,
    city_profile,
    is_zip_code,
)


class ValidationIssue(NamedTuple):
    severity: str  # "error" | "warning"
    row: int | None
    message: str

    def __str__(self) -> str:
        location = f" [row {self.row}]" if self.row is not None else ""
        return f"{self.severity}{location}: {self.message}"


@dataclass
class ValidationReport:
    """Accumulates issues during a single parse; read-only afterwards."""

    strict: bool = False
    issues: list[ValidationIssue] = field(default_factory=list)

    def error(self, message: str, row: int | None = None) -> None:
        self.issues.append(ValidationIssue("error", row, message))

    def warning(self, message: str, row: int | None = None) -> None:
        severity = "error" if self.strict else "warning"
        self.issues.append(ValidationIssue(severity, row, message))

    def errors(self) -> list[ValidationIssue]:
        return [issue for issue in self.issues if issue.severity == "error"]

    def warnings(self) -> list[ValidationIssue]:
        return [issue for issue in self.issues if issue.severity == "warning"]

    @property
    def accepted(self) -> bool:
        return not self.errors()

    def raise_if_rejected(self) -> None:
        if not self.accepted:
            raise DatasetValidationError(self)


def parse_city_dataset(
    path: str | Path,
    city: str,
    *,
    aliases: AliasTable | None = None,
    strict: bool = False,
) -> tuple[CityDataset, ValidationReport]:
    """Parse and validate one city's dataset CSV.

    Rows missing a core metric are excluded with a warning rather than
    imputed; ``strict=True`` turns those warnings into errors.
    """
    profile = city_profile(city)
    report = ValidationReport(strict=strict)
    text = read_text(path)

    lines = text.splitlines()
    unit, comment_count = _leading_directives(lines, report)
    body = lines[comment_count:]
    if not any(line.strip() for line in body):
        report.error("empty file: no header row")
        report.raise_if_rejected()

    reader = csv.DictReader(body)
    header = [name.strip() for name in reader.fieldnames or []]
    missing = [column for column in CORE_COLUMNS if column not in header]
    if missing:
        report.error(
            f"missing required column(s): {', '.join(missing)}", row=comment_count + 1
        )
        report.raise_if_rejected()
    extra_columns = [column for column in header if column not in CORE_COLUMNS and column]

    records: list[NeighborhoodRecord] = []
    seen_rows: dict[str, int] = {}
    for row in reader:
        line = comment_count + reader.line_num
        record = _parse_row(row, line, unit, extra_columns, aliases, report)
        if record is None:
            continue
        if record.name in seen_rows:
            report.error(
                f"duplicate neighborhood {record.name!r} "
                f"(first seen at row {seen_rows[record.name]})",
                row=line,
            )
            continue
        if profile.unit_kind is UnitKind.ZIP_CODE and not is_zip_code(record.name):
            report.error(f"{record.name!r} is not a 5-digit ZIP code", row=line)
            continue
        seen_rows[record.name] = line
        records.append(record)

    if not records and report.accepted:
        report.error("no usable data rows")
    report.raise_if_rejected()
    dataset = CityDataset(
        city=profile.city,
        records=tuple(records),
        bll_threshold_ug_dl=profile.bll_threshold_ug_dl,
        unit_kind=profile.unit_kind,
    )
    return dataset, report


def _leading_directives(lines: list[str], report: ValidationReport) -> tuple[str, int]:
    """Consume leading ``#`` comment lines; return (unit, comment line count)."""
    unit = "percent"
    count = 0
    for line in lines:
        if not line.lstrip().startswith("#"):
            break
        count += 1
        content = line.lstrip().lstrip("#").strip()
        if "=" in content:
            key, _, value = content.partition("=")
            if key.strip().lower() == "unit":
                declared = value.strip().lower()
                if declared not in ("percent", "fraction"):
                    report.error(f"unknown unit declaration {declared!r}", row=count)
                else:
                    unit = declared
    return unit, count


def _parse_row(
    row: dict,
    line: int,
    unit: str,
    extra_columns: list[str],
    aliases: AliasTable | None,
    report: ValidationReport,
) -> NeighborhoodRecord | None:
    raw_name = (row.get(COL_NEIGHBORHOOD) or "").strip()
    if not raw_name:
        report.warning("row excluded: missing neighborhood name", row=line)
        return None
    try:
        name = canonicalize_name(raw_name, aliases)
    except InvalidNameError:
        report.error(f"invalid neighborhood name {raw_name!r}", row=line)
        return None

    core: dict[str, float] = {}
    usable = True
    for column in (COL_PREVALENCE, COL_UNTESTED, COL_COVERAGE):
        value = _numeric_cell(row.get(column), column, line, report)
        if value is _BAD:
            usable = False
        elif value is None:
            report.warning(f"row excluded: missing {column}", row=line)
            usable = False
        else:
            core[column] = value

    extras: dict[str, float] = {}
    for column in extra_columns:
        value = _numeric_cell(row.get(column), column, line, report)
        if value is _BAD:
            usable = False
        elif value is not None:
            extras[column] = value
    if not usable:
        return None

    prevalence = core[COL_PREVALENCE]
    untested = core[COL_UNTESTED]
    coverage = core[COL_COVERAGE]
    if prevalence < 0:
        report.error(f"{COL_PREVALENCE} must be non-negative, got {prevalence}", row=line)
        return None
    if unit == "fraction":
        bounds_label, upper = "[0,1] (unit=fraction)", 1.0
    else:
        bounds_label, upper = "[0,100]", 100.0
    out_of_range = [
        column
        for column, value in ((COL_UNTESTED, untested), (COL_COVERAGE, coverage))
        if not 0 <= value <= upper
    ]
    if out_of_range:
        for column in out_of_range:
            report.error(f"percentage out of range {bounds_label}: {column}", row=line)
        return None
    if unit == "fraction":
        untested *= 100.0
        coverage *= 100.0
    return NeighborhoodRecord(
        name=name,
        prevalence=prevalence,
        untested_pct=untested,
        public_coverage_pct=coverage,
        extra_factors=extras,
    )


class _Bad:
    pass


_BAD = _Bad()


def _numeric_cell(cell, column: str, line: int, report: ValidationReport):
    """Parse one cell: float value, None when empty, _BAD on bad content."""
    if cell is None or not cell.strip():
        return None
    try:
        value = float(cell)
    except ValueError:
        report.error(f"non-numeric value {cell.strip()!r} in column {column}", row=line)
        return _BAD
    if not math.isfinite(value):
        report.error(f"non-finite value {cell.strip()!r} in column {column}", row=line)
        return _BAD
    return value


def write_city_dataset(dataset: CityDataset, path: str | Path) -> None:
    """Serialize a dataset back to the canonical CSV schema."""
    extras = sorted({name for record in dataset.records for name in record.extra_factors})
    header = list(CORE_COLUMNS) + extras
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        for record in dataset.records:
            row = [
                record.name,
                repr(record.prevalence),
                repr(record.untested_pct),
                repr(record.public_coverage_pct),
            ]
            row.extend(
                repr(record.extra_factors[name]) if name in record.extra_factors else ""
                for name in extras
            )
            writer.writerow(row)


def parse_model_runs(
    path: str | Path, *, aliases: AliasTable | None = None
) -> tuple[list[ModelRun], ValidationReport]:
    """Parse a model-run JSON file, preserving run and recommendation order."""
    report = ValidationReport()
    doc = _load_json(path, report)
    runs: list[ModelRun] = []
    entries = doc.get("runs") if isinstance(doc, dict) else None
    if not isinstance(entries, list):
        report.error('malformed document: expected an object with a "runs" list')
        report.raise_if_rejected()
    if not entries:
        report.warning("file contains no runs")
    for index, entry in enumerate(entries):
        location = f"runs[{index}]"
        errors_before = len(report.errors())
        if not isinstance(entry, dict):
            report.error(f"{location}: expected an object")
            continue
        model = entry.get("model")
        mode = entry.get("mode")
        if not isinstance(model, str) or not model.strip():
            report.error(f"{location}: missing model field")
            continue
        if not isinstance(mode, str) or not mode.strip():
            report.error(f"{location}: missing mode field")
            continue
        cities = entry.get("cities")
        if not isinstance(cities, dict):
            report.error(f"{location}: missing cities object")
            continue
        per_city: dict[str, tuple[Recommendation, ...]] = {}
        for city_raw, recommendations in cities.items():
            city = str(city_raw).strip().lower()
            recs = _parse_recommendations(
                recommendations, f"{location}.cities.{city}", aliases, report
            )
            if recs is None:
                continue
            if not recs:
                report.warning(f"{location}: no recommendations for city {city!r}")
            per_city[city] = recs
        if len(report.errors()) == errors_before:
            runs.append(ModelRun(model=model.strip(), mode=mode.strip(), per_city=per_city))
    report.raise_if_rejected()
    return runs, report


def _parse_recommendations(
    recommendations, location: str, aliases: AliasTable | None, report: ValidationReport
) -> tuple[Recommendation, ...] | None:
    if not isinstance(recommendations, list):
        report.error(f"{location}: expected a list of recommendations")
        return None
    parsed: list[Recommendation] = []
    for position, item in enumerate(recommendations):
        where = f"{location}[{position}]"
        if not isinstance(item, dict):
            report.error(f"{where}: expected an object")
            return None
        raw_name = item.get("neighborhood")
        kits = item.get("kits")
        if not isinstance(raw_name, str) or not raw_name.strip():
            report.error(f"{where}: missing neighborhood field")
            return None
        if isinstance(kits, bool) or not isinstance(kits, int):
            report.error(f"{where}: kits must be an integer, got {kits!r}")
            return None
        if kits < 0:
            report.error(f"{where}: negative kits ({kits})")
            return None
        try:
            name = canonicalize_name(raw_name, aliases)
        except InvalidNameError:
            report.error(f"{where}: invalid neighborhood name {raw_name!r}")
            return None
        parsed.append(Recommendation(name, kits))
    return tuple(parsed)


def parse_targets(
    path: str | Path, *, aliases: AliasTable | None = None
) -> tuple[TargetSet, ValidationReport]:
    """Parse a target-set JSON file: ``{"<city>": ["name", ...]}``."""
    report = ValidationReport()
    doc = _load_json(path, report)
    if not isinstance(doc, dict) or not doc:
        report.error("malformed document: expected a non-empty object of city lists")
        report.raise_if_rejected()
    per_city: dict[str, frozenset[str]] = {}
    for city_raw, names in doc.items():
        city = str(city_raw).strip().lower()
        if not isinstance(names, list) or not names:
            report.error(f"targets for {city!r} must be a non-empty list")
            continue
        canonical: set[str] = set()
        for raw_name in names:
            if not isinstance(raw_name, str):
                report.error(f"targets for {city!r}: expected a string, got {raw_name!r}")
                continue
            try:
                name = canonicalize_name(raw_name, aliases)
            except InvalidNameError:
                report.error(f"targets for {city!r}: invalid name {raw_name!r}")
                continue
            if name in canonical:
                report.error(f"duplicate target {name!r} for city {city!r}")
                continue
            canonical.add(name)
        per_city[city] = frozenset(canonical)
    report.raise_if_rejected()
    return TargetSet(per_city=per_city), report


def read_text(path: str | Path) -> str:
    """Contents of a UTF-8 input file; undecodable bytes reject the file."""
    try:
        return Path(path).read_text(encoding="utf-8")
    except UnicodeDecodeError as exc:
        report = ValidationReport()
        report.error(f"{path}: not UTF-8 text ({exc.reason} at byte offset {exc.start})")
        raise DatasetValidationError(report) from None


def _load_json(path: str | Path, report: ValidationReport):
    try:
        return json.loads(read_text(path))
    except json.JSONDecodeError as exc:
        report.error(f"malformed JSON: {exc}")
        report.raise_if_rejected()


def ranking_to_dict(ranking: PriorityRanking) -> dict:
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


def ranking_from_dict(doc: dict) -> PriorityRanking:
    try:
        weights_doc = dict(doc["weights"])
        weights = WeightConfig(
            alpha=float(weights_doc["alpha"]),
            beta=float(weights_doc["beta"]),
            gamma=float(weights_doc["gamma"]),
            variant=WeightVariant(weights_doc["variant"]),
            source_correlation=float(weights_doc["source_correlation"]),
            normalized=bool(weights_doc.get("normalized", False)),
        )
        entries = tuple(
            RankingEntry(
                str(entry["neighborhood"]),
                float(entry["raw_score"]),
                float(entry["scaled_score"]),
            )
            for entry in doc["entries"]
        )
        city = str(doc["city"])
    except (KeyError, TypeError, ValueError) as exc:
        raise DomainValidationError(f"malformed ranking document: {exc}") from exc
    return PriorityRanking(city=city, weights=weights, entries=entries)


def write_ranking(ranking: PriorityRanking, path: str | Path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(ranking_to_dict(ranking), fh, indent=2)
        fh.write("\n")


def parse_ranking(path: str | Path) -> PriorityRanking:
    report = ValidationReport()
    doc = _load_json(path, report)
    return ranking_from_dict(doc if isinstance(doc, dict) else {})


def load_aliases(source: str | Path | dict | None) -> AliasTable | None:
    """Build an alias table from a path, an in-memory mapping, or None."""
    if source is None:
        return None
    if isinstance(source, dict):
        return AliasTable.from_mapping(source)
    return AliasTable.from_file(source)
