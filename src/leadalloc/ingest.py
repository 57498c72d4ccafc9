"""File ingestion and output: city dataset CSV, model-run JSON, target-set JSON,
and the writers of what the commands print, ranking and plan JSON and text tables.

Parsers are deterministic pure functions of the input bytes. Each returns
the parsed value together with a :class:`ValidationReport`; inputs with
error-severity issues raise :class:`DatasetValidationError` carrying that
report, so callers never see a half-valid dataset. A CSV reports every bad
row; a JSON file stops at its first fault, named by its JSON Pointer.

City dataset CSV schema (header order-insensitive, UTF-8, comma-separated)::

    neighborhood,prevalence_per_1000,untested_pct,public_coverage_pct[,<factor>...]

A leading byte-order mark is ignored and header names are stripped; a
repeated header name or a row wider than the header rejects the file.
Blank lines, also of only spaces or tabs, are skipped anywhere; ``#``
comments only before the header. Any comment may be ``# unit=fraction``,
which declares that the two percentage columns are given in [0, 1] and
converts them to 0-100 on load.
"""

from __future__ import annotations

import json
import math
from collections import Counter
from itertools import chain, repeat
from operator import itemgetter, mul
from pathlib import Path
from json.encoder import encode_basestring_ascii as _json_string
from typing import TYPE_CHECKING, AbstractSet, Callable, Iterable, Iterator, Sequence, TextIO

from .errors import DatasetValidationError, DomainValidationError, InvalidNameError, located
from .model import (
    AliasTable,
    AllocationPlan,
    CityDataset,
    COL_NEIGHBORHOOD,
    CORE_COLUMNS,
    METRIC_CAPS,
    ModelRun,
    PriorityRanking,
    Recommendation,
    TargetSet,
    UnitKind,
    Value,
    WeightConfig,
    WeightVariant,
    canonicalize_name,
    city_profile,
    duplicate_name,
    value_fault,
    zip_fault,
)

if TYPE_CHECKING:
    from array import array


class ValidationIssue(Value):
    """One parse issue: "error" or "warning", at "row N", a JSON Pointer or None (the file)."""

    __slots__ = _fields = ("severity", "location", "message")

    def __init__(self, severity: str, location: str | None, message: str) -> None:
        self._init(severity, location, message)


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

    def error(self, message: str, location: str | None = None) -> None:
        self.issues.append(ValidationIssue("error", location, message))

    def warning(self, message: str, location: str | None = None) -> None:
        severity = "error" if self.strict else "warning"
        self.issues.append(ValidationIssue(severity, location, message))

    def reject(self, message: str, location: str | None = None) -> DatasetValidationError:
        """The error that rejects the file, once ``message`` is added as an error."""
        self.error(message, location)
        return DatasetValidationError(self)

    def describe(self, issue: ValidationIssue) -> str:
        """The issue as ``<severity>: <file>: <location>: <message>``, less any part it lacks."""
        return ": ".join(filter(None, (issue.severity, self.source, issue.location, issue.message)))

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


_VALUE_COLUMNS = tuple(METRIC_CAPS)


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
) -> tuple[tuple[str, ...], dict[str, array]]:
    """The names and value columns of a city dataset read from ``lines``.

    Each row but a blank one (see :func:`_csv_rows`) is checked in one order:
    its field count, its name, every value cell (see :func:`_cell_values`), a
    repeat of a kept name, then the ZIP rule. The first failing step excludes
    the row, so a repeat is judged only against kept rows. Each kept row
    appends its name, and its value to the column of each core metric and
    extra factor, NaN for a blank extra cell. Raises if ``report`` rejects the file.
    """
    from array import array  # deferred: only a parse builds columns

    unit, skipped, first = _leading_directives(lines, report)
    rows = _csv_rows(chain((first,), lines), skipped, report)
    header_line, cells = next(rows, (skipped + 1, []))
    header = [name.strip() for name in cells]
    missing = [column for column in CORE_COLUMNS if column not in header]
    if missing:
        report.error(f"missing required column(s): {', '.join(missing)}", f"row {header_line}")
    duplicated = [name for name, count in Counter(header).items() if name and count > 1]
    if duplicated:
        report.error(f"duplicate column(s): {', '.join(duplicated)}", f"row {header_line}")
    report.raise_if_rejected()
    value_columns = (
        *_VALUE_COLUMNS,
        *(column for column in header if column not in CORE_COLUMNS and column),
    )
    position = dict(zip(header, range(len(header))))  # one pass: a name's index is O(1)
    name_index = position[COL_NEIGHBORHOOD]
    value_cells = itemgetter(*map(position.__getitem__, value_columns))
    columns = [array("d") for _ in value_columns]
    # Each core metric's cap in the file's unit: under unit=fraction a percentage's is 1.
    caps = tuple(cap / 100 if unit == "fraction" else cap for cap in METRIC_CAPS.values())

    # Each kept name's row, in file order: a dict, as a name's repeat must be found in O(1).
    names: dict[str, int] = {}
    width = len(header)
    zip_codes = unit_kind is UnitKind.ZIP_CODE
    for line, cells in rows:
        if len(cells) != width:
            if len(cells) > width:
                report.error(f"row has {len(cells)} fields, header has {width}", f"row {line}")
                continue
            cells += [""] * (width - len(cells))  # a short row's missing cells are blank
        raw_name = cells[name_index].strip()
        if not raw_name:
            report.warning("row excluded: missing neighborhood name", f"row {line}")
            continue
        try:
            name = canonicalize_name(raw_name, aliases)
        except InvalidNameError:
            report.error(f"invalid neighborhood name {raw_name!r}", f"row {line}")
            continue
        values = _cell_values(value_columns, value_cells(cells), caps, line, report)
        if values is None:
            continue
        if name in names:
            report.error(f"{duplicate_name(name)} (first seen at row {names[name]})", f"row {line}")
            continue
        if zip_codes and (fault := zip_fault(name)):
            report.error(fault, f"row {line}")
            continue
        names[name] = line
        for column, value in zip(columns, values):
            column.append(value)

    if not names and report.accepted:
        report.error("no usable data rows")
    report.raise_if_rejected()
    if unit == "fraction":
        for index in (1, 2):  # the percentages, read in [0, 1]
            columns[index] = array("d", map(mul, columns[index], repeat(100.0)))
    return tuple(names), dict(zip(value_columns, columns))


def _leading_directives(lines: TextIO, report: ValidationReport) -> tuple[str, int, str]:
    """Consume the blank and ``#`` lines before the header; return (unit, their count, next line).

    Blank lines and comments may come in any order, and ``# unit=`` may be
    any of the comments. The next line is the first other one, where the
    header starts; the rest of the file is left unread. A file with no such
    line has no header row, which rejects it.
    """
    unit = "percent"
    count = 0
    line = lines.readline()
    while line and (content := line.lstrip())[:1] in ("", "#"):  # a blank line or a comment
        count += 1
        key, equals, value = content.lstrip("#").partition("=")
        if equals and key.strip().lower() == "unit":
            declared = value.strip().lower()
            if declared not in ("percent", "fraction"):
                report.error(f"unknown unit declaration {declared!r}", f"row {count}")
            else:
                unit = declared
        line = lines.readline()
    if not line:
        report.error("empty file: no header row")
        report.raise_if_rejected()
    return unit, count, line


def _csv_rows(lines: Iterable[str], first_line: int, report: ValidationReport):
    """Yield (row number, cells) for each row up to the first unreadable one, less blank rows:
    those of no cell or of one cell empty after ``strip()``, as a line of spaces or tabs is."""
    import csv  # deferred: only a CSV parse reads rows

    reader = csv.reader(lines)
    try:
        for cells in reader:
            if len(cells) > 1 or cells and cells[0].strip():
                yield first_line + reader.line_num, cells
    except csv.Error as exc:
        report.error(f"unreadable CSV row: {exc}", f"row {first_line + reader.line_num}")


def _cell_values(
    columns: tuple[str, ...], cells: tuple[str, ...], caps: tuple[float, ...], line: int,
    report: ValidationReport,
) -> list[float] | None:
    """Each cell's number, NaN for a blank cell; None if any cell excludes the row.

    ``columns`` are the three core metrics, then the extra factors, and
    ``caps`` the core metrics' caps in the file's unit. Each cell that is
    blank in a core column, not a number, or breaks a rule of
    :func:`model.value_fault` is reported.
    """
    # float() ignores the whitespace around a number, so a row of finite
    # numbers within their caps needs no per-cell work; any other row goes
    # cell by cell.
    try:
        values = list(map(float, cells))
    except ValueError:
        pass
    else:
        if all(map(math.isfinite, values)):
            p, u, h = values[:3]  # the prevalence, untested and coverage values
            p_cap, u_cap, h_cap = caps
            if 0 <= p <= p_cap and 0 <= u <= u_cap and 0 <= h <= h_cap:
                return values
    issues_before = len(report.issues)
    values: list[float] = []
    for column, cell, cap in zip(columns, cells, chain(caps, repeat(None))):
        cell = cell.strip()
        values.append(math.nan)
        if not cell:
            if column in CORE_COLUMNS:
                report.warning(f"row excluded: missing {column}", f"row {line}")
            continue
        try:
            value = float(cell)
        except ValueError:
            report.error(f"non-numeric value {cell!r} in column {column}", f"row {line}")
            continue
        fault = value_fault(column, value, cap)
        if fault:
            report.error(fault, f"row {line}")
            continue
        values[-1] = value
    return None if len(report.issues) > issues_before else values


def parse_model_runs(
    path: str | Path, *, aliases: AliasTable | None = None
) -> tuple[list[ModelRun], ValidationReport]:
    """Parse a model-run JSON file, preserving run and recommendation order."""
    report = ValidationReport(source=str(path))
    return _first_fault(report, _model_runs, load_json(path), aliases, report), report


def _model_runs(doc, aliases: AliasTable | None, report: ValidationReport) -> list[ModelRun]:
    run_docs = _json_field(_json_field(doc, (), "object"), ("runs",), "array")
    if not run_docs:
        report.warning("file contains no runs", "/runs")
    runs: list[ModelRun] = []
    for index in range(len(run_docs)):
        at = ("runs", index)
        run = _json_field(run_docs, at, "object")
        model, mode = (_json_field(run, (*at, key), "string").strip() for key in ("model", "mode"))
        cities_at = (*at, "cities")
        cities = _json_field(run, cities_at, "object")
        per_city: dict[str, list[Recommendation]] = {}
        for city, key in _cities(cities, cities_at).items():
            city_at = (*cities_at, key)
            recommendations = _json_field(cities, city_at, "array")
            if not recommendations:
                report.warning("no recommendations", _pointer(city_at))
            parsed = per_city[city] = []
            for position in range(len(recommendations)):
                item_at = (*city_at, position)
                item = _json_field(recommendations, item_at, "object")
                raw_name = _json_field(item, (*item_at, "neighborhood"), "string")
                name = located((*item_at, "neighborhood"), canonicalize_name, raw_name, aliases)
                kits = _json_field(item, (*item_at, "kits"), "integer")
                parsed.append(located(item_at, Recommendation, name, kits))
        runs.append(located(at, ModelRun, model, mode, per_city))
    return runs


def parse_targets(
    path: str | Path, *, aliases: AliasTable | None = None
) -> tuple[TargetSet, ValidationReport]:
    """Parse a target-set JSON file: ``{"<city>": ["name", ...]}``."""
    report = ValidationReport(source=str(path))
    return _first_fault(report, _target_set, load_json(path), aliases), report


def _target_set(doc, aliases: AliasTable | None) -> TargetSet:
    keys = _cities(_json_field(doc, (), "object"), ())
    per_city: dict[str, set[str]] = {}
    for city, key in keys.items():
        names = _json_field(doc, (key,), "array")
        canonical = per_city[city] = set()
        for position in range(len(names)):
            at = (key, position)
            name = located(at, canonicalize_name, _json_field(names, at, "string"), aliases)
            if name in canonical:
                raise DomainValidationError(f"duplicate target {name!r}", at=at)
            canonical.add(name)
    try:
        return TargetSet(per_city)
    except DomainValidationError as exc:
        exc.at = tuple(map(keys.get, exc.at))  # the type names a city; the file, its key
        raise


def _cities(doc: dict, at: tuple) -> dict[str, str]:
    """Each city ``doc``'s keys name, with its key; a blank key or a second key is a fault."""
    keys: dict[str, str] = {}
    for key in doc:
        city = key.strip().lower()
        if not city:
            raise DomainValidationError(f"key {key!r} names no city", at=(*at, key))
        if city in keys:
            raise DomainValidationError(
                f"keys {keys[city]!r} and {key!r} both name city {city!r}", at=(*at, key)
            )
        keys[city] = key
    return keys


def parse_aliases(path: str | Path) -> AliasTable:
    """The alias table of a JSON file, ``{"<canonical>": ["alias", ...]}``."""
    return _first_fault(ValidationReport(source=str(path)), _alias_table, load_json(path))


def _alias_table(doc) -> AliasTable:
    for key in _json_field(doc, (), "object"):
        names = _json_field(doc, (key,), "array")
        for position in range(len(names)):
            _json_field(names, (key, position), "string")
    return AliasTable.from_mapping(doc)


def read_text(path: str | Path) -> str:
    """Contents of a UTF-8 input file, less any byte-order mark; non-UTF-8 bytes reject it."""
    try:
        # utf-8-sig would drop the mark before decoding, so a fault's offset would miss its 3 bytes.
        return Path(path).read_text(encoding="utf-8").removeprefix("\ufeff")
    except UnicodeDecodeError as exc:
        message = f"not UTF-8 text ({exc.reason} at byte offset {exc.start})"
        raise ValidationReport(source=str(path)).reject(message) from None


def load_json(path: str | Path, object_hook: Callable[[dict], object] | None = None):
    """The parsed JSON document in an input file; malformed JSON rejects the file.

    ``object_hook``, if given, replaces each JSON object with what it
    returns for the object's dict, as the decoder makes the object.
    """
    text = read_text(path)
    try:
        return json.loads(text, object_hook=object_hook)
    except (ValueError, RecursionError) as exc:
        raise ValidationReport(source=str(path)).reject(f"malformed JSON: {exc}") from None


def _first_fault(report: ValidationReport, build: Callable, *args):
    """``build(*args)``; the first fault it raises rejects ``report``'s file, at its pointer."""
    try:
        return build(*args)
    except DomainValidationError as exc:
        raise report.reject(str(exc), _pointer(exc.at) or None) from None


def _pointer(at: tuple) -> str:
    """The JSON Pointer (RFC 6901) of the reference tokens ``at``; "" is the whole document."""
    return "".join("/" + str(token).replace("~", "~0").replace("/", "~1") for token in at)


_JSON_TYPES = {"object": dict, "array": list, "string": str, "boolean": bool, "integer": int,
               "number": (int, float)}


def _json_field(doc, at: tuple, kind: str):
    """The value at ``at``, its JSON Pointer's tokens, if a JSON ``kind``; a number as a float.

    ``doc`` holds the value, or is it when ``at`` is ``()``. true and false are not numbers.
    """
    try:
        value = doc[at[-1]] if at else doc
    except KeyError:
        raise DomainValidationError("missing", at=at) from None
    if isinstance(value, bool) != (kind == "boolean") or not isinstance(value, _JSON_TYPES[kind]):
        raise DomainValidationError(f"must be a JSON {kind}, got {value!r:.40}", at=at)
    try:
        return float(value) if kind == "number" else value
    except OverflowError:
        raise DomainValidationError(f"must fit in a float, got {value!r:.40}", at=at) from None


_COLLECTED = object()  # what the object hook of parse_ranking leaves of an entry it collected
_ENTRY_FIELDS = (("neighborhood", "string"), ("raw_score", "number"), ("scaled_score", "number"))


def ranking_from_dict(doc, collected: tuple[list, array, array] | None = None) -> PriorityRanking:
    """The ranking of a decoded document; ``collected`` is for ``parse_ranking`` alone.

    Each entry's ``scaled_score`` must equal the ranking's derived one exactly.
    """
    weights_doc = _json_field(_json_field(doc, (), "object"), ("weights",), "object")
    alpha, beta, gamma, source_correlation = (
        _json_field(weights_doc, ("weights", key), "number")
        for key in ("alpha", "beta", "gamma", "source_correlation")
    )
    variant = _json_field(weights_doc, ("weights", "variant"), "string")
    normalized = "normalized" in weights_doc and _json_field(
        weights_doc, ("weights", "normalized"), "boolean"
    )
    weights = located(
        ("weights",), WeightConfig, alpha, beta, gamma,
        located(("weights", "variant"), WeightVariant, variant), source_correlation, normalized,
    )
    if collected is None:  # integral scores are read as floats
        from array import array  # deferred: only a parse builds columns

        entries = _json_field(doc, ("entries",), "array")
        collected = ([], array("d"), array("d"))
        for index in range(len(entries)):
            entry = _json_field(entries, ("entries", index), "object")
            for column, (key, kind) in zip(collected, _ENTRY_FIELDS):
                column.append(_json_field(entry, ("entries", index, key), kind))
    city = _json_field(doc, ("city",), "string")
    names, raw_scores, scaled_scores = collected
    ranking = located(("entries",), PriorityRanking, city, weights, names, raw_scores)
    derived = ranking.scaled_scores
    if derived != scaled_scores:  # one C-level pass, comparing the columns by value
        index = next(i for i, pair in enumerate(zip(scaled_scores, derived)) if pair[0] != pair[1])
        raise DomainValidationError(
            f"{city}: scaled_score of {names[index]!r} is {scaled_scores[index]!r}; "
            f"10 × raw / top raw is {derived[index]!r}",
            at=("entries", index, "scaled_score"),
        )
    return ranking


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


def table_lines(
    headers: Sequence[str],
    columns: Sequence[Sequence],
    formats: Sequence[str],
    left: AbstractSet[int],
) -> Iterator[str]:
    """Fixed-width text table, one newline-terminated line at a time.

    Column ``i`` lists ``columns[i]``, each value formatted with the spec
    ``formats[i]``: a precision and type only, such as ``".2f"``, ``"d"``,
    or ``""`` for strings. Columns in ``left`` are left-aligned, the others
    right-aligned. Each column is iterated twice, first for its width and
    then for the lines, so it must be a sequence, not an iterator.

    A width comes from formatting every value of the column. The lines come
    from one printf-style template, applied through ``map`` to each row of
    ``zip(*columns)``, so no Python code runs per row. Each spec means the
    same as a ``%`` conversion: ``"%.2f" % x == format(x, ".2f")``, and
    ``""`` becomes ``%s``.
    """
    widths = [
        max(map(len, map(format, column, repeat(spec))), default=0)
        for column, spec in zip(columns, formats)
    ]
    widths = list(map(max, map(len, headers), widths))
    aligns = ["<" if col in left else ">" for col in range(len(headers))]
    head = "  ".join(map(format, headers, map("{}{}".format, aligns, widths))).rstrip() + "\n"
    flags = ["-" if align == "<" else "" for align in aligns]
    template = "  ".join(map("%{}{}{}".format, flags, widths, [spec or "s" for spec in formats]))
    rows = map(str.rstrip, map(template.__mod__, zip(*columns)))
    return chain((head,), map(str.__add__, rows, repeat("\n")))


def _entry_collector() -> tuple[Callable[[dict], object], tuple[list, array, array]]:
    """An object hook for :func:`load_json`, and the name and score columns it fills.

    The hook appends each object of exactly the three well-typed fields
    ``dump_ranking`` writes for an entry to the columns and returns
    ``_COLLECTED`` in its place, so no entry is held as a dict or an object,
    and no score as a float object: the scores go into ``array('d')`` columns.
    """
    from array import array  # deferred: only a parse builds columns

    columns = names, raw_scores, scaled_scores = [], array("d"), array("d")
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
    return _first_fault(ValidationReport(source=str(path)), ranking_from_dict, doc, collected)
