"""File ingestion: city dataset CSV, model-run JSON, target-set JSON.

Parsers are deterministic pure functions of the input bytes. Each returns
the parsed value together with a :class:`ValidationReport`; inputs with
error-severity issues raise :class:`DatasetValidationError` carrying that
report, so callers never see a half-valid dataset.

City dataset CSV schema (header order-insensitive, UTF-8, comma-separated)::

    neighborhood,prevalence_per_1000,untested_pct,public_coverage_pct[,<factor>...]

A leading byte-order mark is ignored and header names are stripped; a
repeated header name or a row wider than the header rejects the file.
Lines before the header starting with ``#`` are comments; a comment of the
form ``# unit=fraction`` declares that the two percentage columns are
given in [0, 1] and converts them to 0-100 on load.
"""

from __future__ import annotations

import csv
import json
import math
from collections import Counter
from dataclasses import dataclass, field
from pathlib import Path
from json.encoder import encode_basestring_ascii as _json_string
from typing import Iterator, NamedTuple, TextIO

from .errors import DatasetValidationError, DomainValidationError, InvalidNameError
from .model import (
    AliasTable,
    AllocationPlan,
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
    """Accumulates issues during a single parse of ``source``; read-only afterwards."""

    strict: bool = False
    source: str | None = None
    issues: list[ValidationIssue] = field(default_factory=list)

    def error(self, message: str, row: int | None = None) -> None:
        self.issues.append(ValidationIssue("error", row, message))

    def warning(self, message: str, row: int | None = None) -> None:
        severity = "error" if self.strict else "warning"
        self.issues.append(ValidationIssue(severity, row, message))

    def describe(self, issue: ValidationIssue) -> str:
        """The issue as users read it, led by the file it was found in."""
        return f"{self.source}: {issue}" if self.source else str(issue)

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
    report = ValidationReport(strict=strict, source=str(path))
    lines = read_text(path).splitlines()
    unit, comment_count = _leading_directives(lines, report)
    body = lines[comment_count:]
    if not any(line.strip() for line in body):
        report.error("empty file: no header row")
        report.raise_if_rejected()

    rows = _csv_rows(body, comment_count, report)
    header_line, cells = next(rows, (comment_count + 1, []))
    header = [name.strip() for name in cells]
    missing = [column for column in CORE_COLUMNS if column not in header]
    if missing:
        report.error(f"missing required column(s): {', '.join(missing)}", row=header_line)
    duplicated = [name for name, count in Counter(header).items() if name and count > 1]
    if duplicated:
        report.error(f"duplicate column(s): {', '.join(duplicated)}", row=header_line)
    report.raise_if_rejected()
    extra_columns = [column for column in header if column not in CORE_COLUMNS and column]

    records: list[NeighborhoodRecord] = []
    seen_rows: dict[str, int] = {}
    for line, cells in rows:
        if len(cells) > len(header):
            report.error(f"row has {len(cells)} fields, header has {len(header)}", row=line)
            continue
        record = _parse_row(dict(zip(header, cells)), line, unit, extra_columns, aliases, report)
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


def _csv_rows(lines: list[str], first_line: int, report: ValidationReport):
    """Yield (row number, cells) for each non-blank row up to the first unreadable one."""
    reader = csv.reader(lines)
    try:
        for cells in reader:
            if cells:
                yield first_line + reader.line_num, cells
    except csv.Error as exc:
        report.error(f"unreadable CSV row: {exc}", row=first_line + reader.line_num)


def _parse_row(
    row: dict[str, str],
    line: int,
    unit: str,
    extra_columns: list[str],
    aliases: AliasTable | None,
    report: ValidationReport,
) -> NeighborhoodRecord | None:
    """Build one record, or report why the row is excluded and return None."""
    raw_name = row.get(COL_NEIGHBORHOOD, "").strip()
    if not raw_name:
        report.warning("row excluded: missing neighborhood name", row=line)
        return None
    try:
        name = canonicalize_name(raw_name, aliases)
    except InvalidNameError:
        report.error(f"invalid neighborhood name {raw_name!r}", row=line)
        return None

    issues_before = len(report.issues)
    values: dict[str, float] = {}
    for column in (COL_PREVALENCE, COL_UNTESTED, COL_COVERAGE, *extra_columns):
        cell = row.get(column, "").strip()
        if not cell:
            if column in CORE_COLUMNS:
                report.warning(f"row excluded: missing {column}", row=line)
            continue
        try:
            value = float(cell)
        except ValueError:
            report.error(f"non-numeric value {cell!r} in column {column}", row=line)
            continue
        if not math.isfinite(value):
            report.error(f"non-finite value {cell!r} in column {column}", row=line)
            continue
        values[column] = value
    if len(report.issues) > issues_before:
        return None

    prevalence = values[COL_PREVALENCE]
    untested = values[COL_UNTESTED]
    coverage = values[COL_COVERAGE]
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
        extra_factors={column: values[column] for column in extra_columns if column in values},
    )


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
    report = ValidationReport(source=str(path))
    doc = load_json(path)
    runs: list[ModelRun] = []
    entries = doc.get("runs") if isinstance(doc, dict) else None
    if not isinstance(entries, list):
        report.error('malformed document: expected an object with a "runs" list')
        report.raise_if_rejected()
    if not entries:
        report.warning("file contains no runs")
    for index, entry in enumerate(entries):
        location = f"runs[{index}]"
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
    report = ValidationReport(source=str(path))
    doc = load_json(path)
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
    """Contents of a UTF-8 input file, less any byte-order mark; non-UTF-8 bytes reject it."""
    try:
        return Path(path).read_text(encoding="utf-8-sig")
    except UnicodeDecodeError as exc:
        message = f"{path}: not UTF-8 text ({exc.reason} at byte offset {exc.start})"
        raise _rejected(message) from None


def load_json(path: str | Path):
    """The parsed JSON document in an input file; malformed JSON rejects the file."""
    text = read_text(path)
    try:
        return json.loads(text)
    except (ValueError, RecursionError) as exc:
        raise _rejected(f"{path}: malformed JSON: {exc}") from None


def _rejected(message: str) -> DatasetValidationError:
    report = ValidationReport()
    report.error(message)
    return DatasetValidationError(report)


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
        weights_doc = doc["weights"]
        weights = WeightConfig(
            alpha=float(_json_field(weights_doc, "alpha", "number")),
            beta=float(_json_field(weights_doc, "beta", "number")),
            gamma=float(_json_field(weights_doc, "gamma", "number")),
            variant=WeightVariant(weights_doc["variant"]),
            source_correlation=float(_json_field(weights_doc, "source_correlation", "number")),
            normalized=(
                _json_field(weights_doc, "normalized", "boolean")
                if "normalized" in weights_doc
                else False
            ),
        )
        entries = tuple(
            RankingEntry(
                _json_field(entry, "neighborhood", "string"),
                float(_json_field(entry, "raw_score", "number")),
                float(_json_field(entry, "scaled_score", "number")),
            )
            for entry in doc["entries"]
        )
        city = _json_field(doc, "city", "string")
    except (KeyError, TypeError, ValueError, OverflowError) as exc:
        raise DomainValidationError(f"malformed ranking document: {exc}") from exc
    return PriorityRanking(city=city, weights=weights, entries=entries)


_JSON_TYPES = {"string": str, "number": (int, float), "boolean": bool}


def _json_field(doc: dict, key: str, kind: str):
    """``doc[key]`` if it is a JSON value of ``kind``; true and false are not numbers."""
    value = doc[key]
    if isinstance(value, bool) != (kind == "boolean") or not isinstance(value, _JSON_TYPES[kind]):
        raise TypeError(f"{key!r} must be a JSON {kind}, got {value!r:.40}")
    return value


def write_ranking(ranking: PriorityRanking, path: str | Path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        dump_ranking(ranking, fh)


def dump_ranking(ranking: PriorityRanking, fh: TextIO) -> None:
    """Stream the ranking JSON document, as ``score --out`` and ``score --json`` write it."""
    head = {"city": ranking.city, "weights": ranking.weights.as_dict()}
    entries = (
        f'{{\n      "neighborhood": {_json_string(entry.name)},'
        f'\n      "raw_score": {entry.raw_score!r},'
        f'\n      "scaled_score": {entry.scaled_score!r}\n    }}'
        for entry in ranking.entries
    )
    _dump_document(head, "entries", entries, fh)


def dump_plan(plan: AllocationPlan, fh: TextIO) -> None:
    """Stream the allocation plan JSON document that ``allocate --json`` prints."""
    head = {
        "city": plan.city,
        "total_kits": plan.total_kits,
        "strategy": plan.strategy.value,
        "apportionment": plan.apportionment,
    }
    allocations = (
        f'{{\n      "neighborhood": {_json_string(entry.name)},\n      "kits": {entry.kits!r}\n    }}'
        for entry in plan.allocations
    )
    _dump_document(head, "allocations", allocations, fh)


def _dump_document(head: dict, key: str, items: Iterator[str], fh: TextIO) -> None:
    """Write ``head`` plus ``key`` holding ``items`` as ``json.dump(..., indent=2)`` and a newline would.

    ``items`` are the non-empty list's members, already encoded at the
    list's indent. ``json.dump`` runs its pure-Python encoder whenever
    ``indent`` is set; here it encodes only the small head, and each member
    is written as it is made, so the document is never held whole. Members
    encode strings with json's own ASCII encoder and numbers with ``repr``,
    which is how ``json.dump`` writes ``str``, ``int`` and finite ``float``.
    """
    fh.write(f'{json.dumps(head, indent=2)[:-2]},\n  "{key}": [\n    {next(items)}')
    for item in items:
        fh.write(f",\n    {item}")
    fh.write("\n  ]\n}\n")


def parse_ranking(path: str | Path) -> PriorityRanking:
    doc = load_json(path)
    try:
        return ranking_from_dict(doc if isinstance(doc, dict) else {})
    except DomainValidationError as exc:
        raise _rejected(f"{path}: {exc}") from None
