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
from itertools import chain
from operator import itemgetter
from pathlib import Path
from json.encoder import encode_basestring_ascii as _json_string
from typing import TYPE_CHECKING, Callable, Iterable, Iterator, NamedTuple, TextIO

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

if TYPE_CHECKING:
    from array import array


class ValidationIssue(NamedTuple):
    severity: str  # "error" | "warning"
    row: int | None
    message: str

    def __str__(self) -> str:
        location = f" [row {self.row}]" if self.row is not None else ""
        return f"{self.severity}{location}: {self.message}"


class ValidationReport:
    """Accumulates issues during a single parse of ``source``; read-only afterwards."""

    __slots__ = ("strict", "source", "issues")

    def __init__(
        self,
        strict: bool = False,
        source: str | None = None,
        issues: list[ValidationIssue] | None = None,
    ) -> None:
        self.strict = strict
        self.source = source
        self.issues = [] if issues is None else issues

    def __eq__(self, other):
        if type(other) is not ValidationReport:
            return NotImplemented
        return (self.strict, self.source, self.issues) == (other.strict, other.source, other.issues)

    def __repr__(self) -> str:
        return (
            f"ValidationReport(strict={self.strict!r}, source={self.source!r}, "
            f"issues={self.issues!r})"
        )

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


_VALUE_COLUMNS = (COL_PREVALENCE, COL_UNTESTED, COL_COVERAGE)


def parse_city_dataset(
    path: str | Path,
    city: str,
    *,
    aliases: AliasTable | None = None,
    strict: bool = False,
) -> tuple[CityDataset, ValidationReport]:
    """Parse and validate one city's dataset CSV.

    Rows missing a core metric are excluded with a warning rather than
    imputed; ``strict=True`` turns those warnings into errors. The file is
    read as a stream of rows, never held whole. Only ``\\r``, ``\\n`` and
    ``\\r\\n`` end a line, so other line-break characters stay inside their
    cell, and a quoted cell may span lines (RFC 4180).
    """
    profile = city_profile(city)
    report = ValidationReport(strict=strict, source=str(path))
    # newline="" is how the csv module reads a file: it splits lines itself.
    with open(path, encoding="utf-8-sig", newline="") as lines:
        try:
            names, columns = _parse_records(lines, profile.unit_kind, aliases, report)
        except UnicodeDecodeError:
            # The stream's decoder counts offsets from the chunk it was
            # decoding; read_text rejects the file naming the file's offset.
            read_text(path)
            raise
    dataset = CityDataset(
        profile.city,
        names,
        *map(columns.pop, _VALUE_COLUMNS),
        columns,
        bll_threshold_ug_dl=profile.bll_threshold_ug_dl,
        unit_kind=profile.unit_kind,
    )
    return dataset, report


def _parse_records(
    lines: TextIO, unit_kind: UnitKind, aliases: AliasTable | None, report: ValidationReport
) -> tuple[list[str], dict[str, array]]:
    """The names and value columns of a city dataset read from ``lines``.

    Each accepted row appends its name, and its value to the column of each
    core metric and extra factor, NaN for a blank extra cell. Raises if
    ``report`` rejects the dataset.
    """
    from array import array  # deferred: only a parse builds columns

    unit, comment_count, blank_lines = _leading_directives(lines, report)
    rows = _csv_rows(chain(blank_lines, lines), comment_count, report)
    header_line, cells = next(rows, (comment_count + 1, []))
    header = [name.strip() for name in cells]
    missing = [column for column in CORE_COLUMNS if column not in header]
    if missing:
        report.error(f"missing required column(s): {', '.join(missing)}", row=header_line)
    duplicated = [name for name, count in Counter(header).items() if name and count > 1]
    if duplicated:
        report.error(f"duplicate column(s): {', '.join(duplicated)}", row=header_line)
    report.raise_if_rejected()
    value_columns = (
        *_VALUE_COLUMNS,
        *(column for column in header if column not in CORE_COLUMNS and column),
    )
    name_index = header.index(COL_NEIGHBORHOOD)
    value_cells = itemgetter(*map(header.index, value_columns))
    columns = [array("d") for _ in value_columns]

    names: list[str] = []
    seen_rows: dict[str, int] = {}
    width = len(header)
    zip_codes = unit_kind is UnitKind.ZIP_CODE
    for line, cells in rows:
        if len(cells) != width:
            if len(cells) > width:
                report.error(f"row has {len(cells)} fields, header has {width}", row=line)
                continue
            cells += [""] * (width - len(cells))  # a short row's missing cells are blank
        parsed = _parse_row(
            cells, line, unit, name_index, value_cells, value_columns, aliases, report
        )
        if parsed is None:
            continue
        name, values = parsed
        if name in seen_rows:
            report.error(
                f"duplicate neighborhood {name!r} (first seen at row {seen_rows[name]})",
                row=line,
            )
            continue
        if zip_codes and not is_zip_code(name):
            report.error(f"{name!r} is not a 5-digit ZIP code", row=line)
            continue
        seen_rows[name] = line
        names.append(name)
        for column, value in zip(columns, values):
            column.append(value)

    if not names and report.accepted:
        report.error("no usable data rows")
    report.raise_if_rejected()
    return names, dict(zip(value_columns, columns))


def _leading_directives(lines: TextIO, report: ValidationReport) -> tuple[str, int, list[str]]:
    """Consume leading ``#`` comment lines; return (unit, comment line count, blank lines).

    The blank lines are those read after the comments up to and including
    the first line with content; the rest of the file is left unread. A
    file with no such line has no header row, which rejects it.
    """
    unit = "percent"
    count = 0
    line = lines.readline()
    while line.lstrip().startswith("#"):
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
        line = lines.readline()
    blank_lines = [line]
    while line and not line.strip():
        line = lines.readline()
        blank_lines.append(line)
    if not line:
        report.error("empty file: no header row")
        report.raise_if_rejected()
    return unit, count, blank_lines


def _csv_rows(lines: Iterable[str], first_line: int, report: ValidationReport):
    """Yield (row number, cells) for each non-blank row up to the first unreadable one."""
    reader = csv.reader(lines)
    try:
        for cells in reader:
            if cells:
                yield first_line + reader.line_num, cells
    except csv.Error as exc:
        report.error(f"unreadable CSV row: {exc}", row=first_line + reader.line_num)


def _parse_row(
    cells: list[str],
    line: int,
    unit: str,
    name_index: int,
    value_cells: itemgetter,
    value_columns: tuple[str, ...],
    aliases: AliasTable | None,
    report: ValidationReport,
) -> tuple[str, list[float]] | None:
    """One row's name and values, or None after reporting why the row is excluded.

    ``value_cells`` picks the cells of ``value_columns`` from ``cells``: the
    three core metrics, then the extra factors. A blank extra cell's value
    is NaN.
    """
    raw_name = cells[name_index].strip()
    if not raw_name:
        report.warning("row excluded: missing neighborhood name", row=line)
        return None
    try:
        name = canonicalize_name(raw_name, aliases)
    except InvalidNameError:
        report.error(f"invalid neighborhood name {raw_name!r}", row=line)
        return None

    # float() ignores the whitespace around a number, so a row of finite
    # numbers needs no per-cell work; any other row goes cell by cell.
    try:
        values = list(map(float, value_cells(cells)))
    except ValueError:
        values = None
    if values is None or not all(map(math.isfinite, values)):
        values = _cell_values(value_columns, value_cells(cells), line, report)
        if values is None:
            return None

    prevalence, untested, coverage = values[:3]
    if prevalence < 0:
        report.error(f"{COL_PREVALENCE} must be non-negative, got {prevalence}", row=line)
        return None
    upper = 1.0 if unit == "fraction" else 100.0
    if not (0 <= untested <= upper and 0 <= coverage <= upper):
        bounds_label = "[0,1] (unit=fraction)" if unit == "fraction" else "[0,100]"
        for column, value in ((COL_UNTESTED, untested), (COL_COVERAGE, coverage)):
            if not 0 <= value <= upper:
                report.error(f"percentage out of range {bounds_label}: {column}", row=line)
        return None
    if unit == "fraction":
        values[1] = untested * 100.0
        values[2] = coverage * 100.0
    return name, values


def _cell_values(
    columns: tuple[str, ...], cells: tuple[str, ...], line: int, report: ValidationReport
) -> list[float] | None:
    """Each cell's number, NaN for a blank cell; None if any cell excludes the row."""
    issues_before = len(report.issues)
    values: list[float] = []
    for column, cell in zip(columns, cells):
        cell = cell.strip()
        values.append(math.nan)
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
        values[-1] = value
    return None if len(report.issues) > issues_before else values


def write_city_dataset(dataset: CityDataset, path: str | Path) -> None:
    """Serialize a dataset back to the canonical CSV schema; a blank extra cell stays blank."""
    extras = dataset.factor_names()[2:]
    columns = [
        dataset.prevalence,
        dataset.untested_pct,
        dataset.public_coverage_pct,
        *map(dataset.extra_columns.__getitem__, extras),
    ]
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow([*CORE_COLUMNS, *extras])
        for name, *values in zip(dataset.names, *columns):
            writer.writerow([name, *("" if math.isnan(value) else repr(value) for value in values)])


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
        for city, recommendations in _cities(cities, f"{location}.cities", report):
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
    for city, names in _cities(doc, "targets", report):
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


def _cities(doc: dict, location: str, report: ValidationReport) -> Iterator[tuple[str, object]]:
    """``doc``'s keys as cities, with values; a key naming an earlier key's city is an error."""
    raw_keys: dict[str, str] = {}
    for raw_key, value in doc.items():
        city = str(raw_key).strip().lower()
        if city in raw_keys:
            report.error(
                f"{location}: keys {raw_keys[city]!r} and {raw_key!r} both name city {city!r}"
            )
            continue
        raw_keys[city] = raw_key
        yield city, value


def read_text(path: str | Path) -> str:
    """Contents of a UTF-8 input file, less any byte-order mark; non-UTF-8 bytes reject it."""
    try:
        return Path(path).read_text(encoding="utf-8-sig")
    except UnicodeDecodeError as exc:
        message = f"{path}: not UTF-8 text ({exc.reason} at byte offset {exc.start})"
        raise _rejected(message) from None


def load_json(path: str | Path, object_hook: Callable[[dict], object] | None = None):
    """The parsed JSON document in an input file; malformed JSON rejects the file.

    ``object_hook``, if given, replaces each JSON object with what it
    returns for the object's dict, as the decoder makes the object.
    """
    text = read_text(path)
    try:
        return json.loads(text, object_hook=object_hook)
    except (ValueError, RecursionError) as exc:
        raise _rejected(f"{path}: malformed JSON: {exc}") from None


def _rejected(message: str) -> DatasetValidationError:
    report = ValidationReport()
    report.error(message)
    return DatasetValidationError(report)


_COLLECTED = object()  # what the object hook of parse_ranking leaves of an entry it collected


def ranking_from_dict(doc: dict, *, collected: tuple[list, ...] | None = None) -> PriorityRanking:
    """The ranking of a decoded document; ``collected`` is for ``parse_ranking`` alone."""
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
        if collected is None:
            collected = tuple(zip(*map(_ranking_entry, doc["entries"]))) or ((), (), ())
        city = _json_field(doc, "city", "string")
    except (KeyError, TypeError, ValueError, OverflowError) as exc:
        raise DomainValidationError(f"malformed ranking document: {exc}") from exc
    return PriorityRanking(city, weights, *collected)


def _ranking_entry(entry: dict) -> RankingEntry:
    """One entry object of a ranking document; integral scores are read as floats."""
    return RankingEntry(
        _json_field(entry, "neighborhood", "string"),
        float(_json_field(entry, "raw_score", "number")),
        float(_json_field(entry, "scaled_score", "number")),
    )


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
        f'{{\n      "neighborhood": {_json_string(name)},'
        f'\n      "raw_score": {raw!r},'
        f'\n      "scaled_score": {scaled!r}\n    }}'
        for name, raw, scaled in zip(ranking.names, ranking.raw_scores, ranking.scaled_scores)
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
        f'{{\n      "neighborhood": {_json_string(name)},\n      "kits": {kits!r}\n    }}'
        for name, kits in zip(plan.names, plan.kits)
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


def _entry_collector() -> tuple[Callable[[dict], object], tuple[list, list, list]]:
    """An object hook for :func:`load_json`, and the name and score columns it fills.

    The hook appends each object of exactly the three well-typed fields
    ``dump_ranking`` writes for an entry to the columns and returns
    ``_COLLECTED`` in its place, so no entry is held as a dict or an object.
    """
    columns = names, raw_scores, scaled_scores = [], [], []
    add_name, add_raw, add_scaled = names.append, raw_scores.append, scaled_scores.append

    def collect(obj: dict) -> object:
        if len(obj) == 3:
            name = obj.get("neighborhood")
            raw = obj.get("raw_score")
            scaled = obj.get("scaled_score")
            if type(name) is str and type(raw) is float and type(scaled) is float:
                add_name(name)
                add_raw(raw)
                add_scaled(scaled)
                return _COLLECTED
        return obj

    return collect, columns


def parse_ranking(path: str | Path) -> PriorityRanking:
    collect, collected = _entry_collector()
    doc = load_json(path, collect)
    entries = doc.get("entries") if isinstance(doc, dict) else None
    collected_all = type(entries) is list and entries.count(_COLLECTED) == len(entries)
    if not (collected_all and len(entries) == len(collected[0])):
        # An entry with integral scores or other fields, or an entry-shaped
        # object elsewhere: decode again, keeping every object a dict.
        doc, collected = load_json(path), None
    try:
        return ranking_from_dict(doc if isinstance(doc, dict) else {}, collected=collected)
    except DomainValidationError as exc:
        raise _rejected(f"{path}: {exc}") from None
