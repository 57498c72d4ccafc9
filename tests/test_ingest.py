"""CSV and JSON ingestion: validation, exclusion rules, round-trips."""

from __future__ import annotations

import codecs
import io
import json
import math
import pickle
import re
import tempfile
import time
import tracemalloc
import warnings
from pathlib import Path

import pytest
from hypothesis import assume, given
from hypothesis import strategies as st

from helpers import (
    extra_factors,
    plan_of_allocations,
    ranking_from_scores,
    ranking_of_entries,
    ranking_to_dict,
    rows_of,
)
from leadalloc.errors import (
    DataQualityWarning,
    DatasetValidationError,
    DomainValidationError,
    UnknownCityError,
)
from leadalloc.ingest import (
    ValidationIssue,
    ValidationReport,
    dump_plan,
    dump_ranking,
    parse_city_dataset,
    parse_model_runs,
    parse_ranking,
    parse_targets,
    ranking_from_dict,
    read_text,
    write_ranking,
)
from leadalloc.model import (
    CORE_COLUMNS,
    AliasTable,
    PriorityRanking,
    Strategy,
    UnitKind,
    WeightVariant,
)
from leadalloc.scoring import derive_weights, score_city

# Any text but a blank one, which a ranking or a plan refuses as a name.
NAMES = st.text().filter(str.strip)

GOOD_CSV = """
neighborhood,prevalence_per_1000,untested_pct,public_coverage_pct
Englewood,12.4,48.0,41.0
West Englewood,11.1,50.5,39.0
Austin,10.2,46.0,44.0
"""
GOOD_HEADER = "neighborhood,prevalence_per_1000,untested_pct,public_coverage_pct"

# Small city files, each well formed or broken in ways reported at a row.
CSV_BODIES = [
    GOOD_CSV.lstrip("\n"),
    f"{GOOD_HEADER}\nEnglewood,12.4,,41.0\nAustin,high,1,1\nAustin,1,2,3\nAUSTIN,1,2,3\n"
    "A,1,2,3,4,5\n",
    "neighborhood,prevalence_per_1000,untested_pct\nA,1,2\n",
    f"{GOOD_HEADER}\n",
]
# Lines a file may hold before its header: blank ones, of spaces and tabs or
# none, and comments, one of them a unit directive; each ends as a line can.
FRONT_MATTER = st.lists(
    st.tuples(
        st.text(" \t", max_size=3)
        | st.builds(
            "{}#{}".format,
            st.text(" \t", max_size=2),
            st.text(st.characters(blacklist_categories=("Cs",), blacklist_characters="\r\n="),
                    max_size=6),
        )
        | st.just("# unit=percent"),
        st.sampled_from(["\n", "\r\n", "\r"]),
    ).map("".join),
    max_size=6,
).map("".join)
# Blank lines a file may hold anywhere: empty or of spaces and tabs, each ended as a line can.
BLANK_LINES = st.lists(
    st.tuples(st.text(" \t", max_size=3), st.sampled_from(["\n", "\r\n", "\r"])).map("".join),
    max_size=3,
).map("".join)


def parse_outcome(path: Path, strict: bool = False) -> tuple:
    """The dataset of a Chicago file, None if rejected, and its issues as tuples."""
    try:
        dataset, report = parse_city_dataset(path, "chicago", strict=strict)
    except DatasetValidationError as exc:
        dataset, report = None, exc.report
    return dataset, [(issue.severity, issue.location, issue.message) for issue in report.issues]


class TestParseCityDataset:
    def test_happy_path(self, write_file):
        dataset, report = parse_city_dataset(write_file(GOOD_CSV), "chicago")
        assert report.accepted
        assert report.issues == []
        assert dataset.city == "chicago"
        assert dataset.names == ("englewood", "west englewood", "austin")
        assert dataset.prevalence[0] == 12.4
        assert dataset.bll_threshold_ug_dl == 5.0
        assert dataset.unit_kind is UnitKind.NAMED_AREA

    def test_a_wide_header_parses_in_linear_time(self, tmp_path):
        # 40,000 extra columns: a column lookup per name scanning the header took about 9 s.
        extras = [f"f{i}" for i in range(40_000)]
        row = ",".join(["5", "20", "30", *("1",) * len(extras)])
        path = tmp_path / "wide.csv"
        path.write_text(
            ",".join([*CORE_COLUMNS, *extras]) + "".join(f"\n{name},{row}" for name in "abc"),
            encoding="utf-8",
        )
        start = time.perf_counter()
        dataset, report = parse_city_dataset(path, "chicago")
        assert time.perf_counter() - start < 2.0
        assert report.accepted and len(dataset) == 3
        assert len(dataset.factor_names()) == 2 + len(extras)

    def test_demo_file_parses_with_extras(self, demo_csv):
        dataset, report = parse_city_dataset(demo_csv, "demo")
        assert report.accepted
        assert len(dataset) == 10
        assert dataset.factor_names() == (
            "untested_pct",
            "public_coverage_pct",
            "avg_turbidity",
            "median_income_k",
        )
        assert dataset.names[0] == "riverbend"
        assert dataset.extra_columns["median_income_k"][0] == 32.5

    def test_blank_extra_cells_leave_the_factor_out(self, write_file):
        path = write_file(
            """
            neighborhood,prevalence_per_1000,untested_pct,public_coverage_pct,pipe,empty,lines
            A,1.0,2.0,3.0,40,,7
            B,1.5,2.5,3.5,,,8
            C,2.0,3.0,4.0,,,
            D,2.5,3.5,4.5,41,,9
            """
        )
        dataset, report = parse_city_dataset(path, "chicago")
        assert report.accepted
        rows = rows_of(dataset)
        assert [extra_factors(row) for row in rows] == [
            {"pipe": 40.0, "lines": 7.0},
            {"lines": 8.0},
            {},
            {"pipe": 41.0, "lines": 9.0},
        ]
        assert extra_factors(rows[1]) == {"lines": 8.0}
        assert rows[1].get("pipe") is None
        assert rows[3].get("lines") == 9.0
        assert dataset.factor_names() == ("untested_pct", "public_coverage_pct", "lines", "pipe")

    def test_decode_error_past_the_first_chunk_names_its_file_offset(self, tmp_path):
        # The file is read as a stream, decoded a chunk at a time; the error
        # still gives the offset in the file, as read_text does.
        rows = "".join(f"area {i},1.0,2.0,3.0\n" for i in range(4_000)).encode()
        prefix = GOOD_CSV.encode() + rows
        assert len(prefix) > 65_536
        path = tmp_path / "city.csv"
        path.write_bytes(prefix + b"Caf\xe9,1.0,2.0,3.0\n")
        offset = len(prefix) + 3
        with pytest.raises(DatasetValidationError) as parsed:
            parse_city_dataset(path, "chicago")
        with pytest.raises(DatasetValidationError) as read:
            read_text(path)
        message = f"not UTF-8 text (invalid continuation byte at byte offset {offset})"
        assert str(parsed.value) == str(read.value) == f"error: {path}: {message}"

    def test_decode_error_after_a_byte_order_mark_counts_the_mark(self, tmp_path):
        path = tmp_path / "city.csv"
        path.write_bytes(codecs.BOM_UTF8 + f"{GOOD_HEADER}\nA\xff,1.0,2.0,3.0\n".encode("latin-1"))
        with pytest.raises(DatasetValidationError) as parsed:
            parse_city_dataset(path, "chicago")
        with pytest.raises(DatasetValidationError) as read:
            read_text(path)
        message = "not UTF-8 text (invalid start byte at byte offset 70)"
        assert str(parsed.value) == str(read.value) == f"error: {path}: {message}"

    def test_parse_holds_each_row_once(self, tmp_path):
        # At 20,000 rows with one extra factor, a copy of the whole file
        # (held 4 bytes a character) and a dict plus a read-only proxy per
        # record peak at about 15.7 MB under tracemalloc; streamed rows and
        # shared factor names peak at about 9.6 MB.
        path = tmp_path / "city.csv"
        rows = (
            f"area {i},{i % 41 / 2},{5 + i % 61},{min(100, i % 41 + i % 7)},{i % 90}\n"
            for i in range(20_000)
        )
        header = "neighborhood,prevalence_per_1000,untested_pct,public_coverage_pct,pipe_age_yr\n"
        path.write_text(header + "".join(rows), encoding="utf-8")
        tracemalloc.start()
        try:
            dataset, _ = parse_city_dataset(path, "chicago")
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert len(dataset) == 20_000
        assert {f: column[-1] for f, column in dataset.extra_columns.items()} == {
            "pipe_age_yr": 19_999 % 90
        }
        assert peak < 12_000_000

    def test_header_order_is_flexible(self, write_file):
        path = write_file(
            """
            untested_pct,neighborhood,public_coverage_pct,prevalence_per_1000
            48.0,Englewood,41.0,12.4
            50.5,West Englewood,39.0,11.1
            """
        )
        dataset, _ = parse_city_dataset(path, "chicago")
        assert dataset.names == ("englewood", "west englewood")

    def test_percentage_out_of_range_reports_row(self, write_file):
        path = write_file(
            """
            neighborhood,prevalence_per_1000,untested_pct,public_coverage_pct
            Englewood,12.4,120,41.0
            Austin,10.2,46.0,44.0
            """
        )
        with pytest.raises(DatasetValidationError) as excinfo:
            parse_city_dataset(path, "chicago")
        assert str(excinfo.value) == (
            f"error: {path}: row 2: untested_pct out of range [0, 100], got 120.0"
        )

    def test_duplicate_names_after_canonicalization(self, write_file):
        path = write_file(
            """
            neighborhood,prevalence_per_1000,untested_pct,public_coverage_pct
            Englewood,12.4,48.0,41.0
            ENGLEWOOD,11.0,47.0,40.0
            """
        )
        with pytest.raises(DatasetValidationError) as excinfo:
            parse_city_dataset(path, "chicago")
        assert "duplicate neighborhood 'englewood'" in str(excinfo.value)
        assert "first seen at row 2" in str(excinfo.value)

    def test_each_repeat_names_its_first_row_even_when_kept_after_an_earlier_repeat(
        self, write_file
    ):
        path = write_file(
            """
            neighborhood,prevalence_per_1000,untested_pct,public_coverage_pct
            Austin,1,2,3
            Loop,1,2,3
            Austin,1,2,3
            Uptown,1,2,3
            UPTOWN,1,2,3
            Loop,1,2,3
            """,
            "dup.csv",
        )
        with pytest.raises(DatasetValidationError) as excinfo:
            parse_city_dataset(path, "chicago")
        assert str(excinfo.value).splitlines() == [
            f"error: {path}: row 4: duplicate neighborhood 'austin' (first seen at row 2)",
            f"error: {path}: row 6: duplicate neighborhood 'uptown' (first seen at row 5)",
            f"error: {path}: row 7: duplicate neighborhood 'loop' (first seen at row 3)",
        ]

    def test_unit_fraction_directive_rescales(self, write_file):
        path = write_file(
            """
            # unit=fraction
            neighborhood,prevalence_per_1000,untested_pct,public_coverage_pct
            Englewood,12.4,0.48,0.41
            Austin,10.2,0.46,0.44
            """
        )
        dataset, _ = parse_city_dataset(path, "chicago")
        assert dataset.untested_pct[0] == 48.0
        assert dataset.public_coverage_pct[0] == 41.0

    def test_unit_fraction_bounds(self, write_file):
        path = write_file(
            """
            # unit=fraction
            neighborhood,prevalence_per_1000,untested_pct,public_coverage_pct
            Englewood,12.4,48.0,0.41
            Austin,10.2,0.46,0.44
            """
        )
        with pytest.raises(DatasetValidationError, match=r"row 3: untested_pct out of range \[0, 1\], got 48.0"):
            parse_city_dataset(path, "chicago")

    def test_unknown_unit_rejected(self, write_file):
        path = write_file(
            """
            # unit=permille
            neighborhood,prevalence_per_1000,untested_pct,public_coverage_pct
            Englewood,12.4,48.0,41.0
            """
        )
        with pytest.raises(DatasetValidationError, match="unknown unit"):
            parse_city_dataset(path, "chicago")

    @pytest.mark.parametrize(
        "front, plain",
        [
            ("# first\n\n# second\n", ""),
            ("# c\n   \n", ""),
            ("\n# unit=fraction\n", "# unit=fraction\n"),
        ],
        ids=["comment-after-blank-line", "line-of-spaces", "unit-after-blank-line"],
    )
    def test_blank_lines_and_comments_come_in_any_order(self, tmp_path, front, plain):
        body = f"{GOOD_HEADER}\nEnglewood,12.4,0.48,0.41\nAustin,10.2,0.46,0.44\n"
        fronted, expected = tmp_path / "fronted.csv", tmp_path / "expected.csv"
        fronted.write_bytes((front + body).encode())
        expected.write_bytes((plain + body).encode())
        dataset, report = parse_city_dataset(fronted, "chicago")
        assert report.issues == []
        assert dataset == parse_city_dataset(expected, "chicago")[0]

    @given(front=FRONT_MATTER, body=st.sampled_from(CSV_BODIES))
    def test_front_matter_shifts_only_the_row_numbers(self, front, body):
        lines = len(re.findall(r"\r\n|\r|\n", front))

        def shift(text: str) -> str:  # each row number, moved past the front matter
            return re.sub(r"row (\d+)", lambda m: f"row {int(m[1]) + lines}", text)

        with tempfile.TemporaryDirectory() as directory:
            plain, fronted = Path(directory, "plain.csv"), Path(directory, "fronted.csv")
            plain.write_bytes(body.encode())
            fronted.write_bytes((front + body).encode())
            dataset, issues = parse_outcome(plain)
            assert parse_outcome(fronted) == (dataset, [
                (severity, location and shift(location), shift(message))
                for severity, location, message in issues
            ])

    @pytest.mark.parametrize("strict", [False, True], ids=["lenient", "strict"])
    @given(body=st.sampled_from(CSV_BODIES), data=st.data())
    def test_blank_lines_after_the_header_shift_only_the_row_numbers(self, strict, body, data):
        records = body.splitlines(keepends=True)
        gaps = data.draw(st.lists(BLANK_LINES, min_size=len(records), max_size=len(records)))
        moved, inserted = {}, 0  # each record's row number once the gaps are in
        for number, gap in enumerate(gaps, 1):
            moved[number] = number + inserted
            inserted += len(re.findall(r"\r\n|\r|\n", gap))

        def shift(text: str) -> str:
            return re.sub(r"row (\d+)", lambda m: f"row {moved[int(m[1])]}", text)

        with tempfile.TemporaryDirectory() as directory:
            plain, spaced = Path(directory, "plain.csv"), Path(directory, "spaced.csv")
            plain.write_bytes(body.encode())
            spaced.write_bytes("".join(map("".join, zip(records, gaps))).encode())
            dataset, issues = parse_outcome(plain, strict)
            assert parse_outcome(spaced, strict) == (dataset, [
                (severity, location and shift(location), shift(message))
                for severity, location, message in issues
            ])

    @pytest.mark.parametrize("strict", [False, True], ids=["lenient", "strict"])
    def test_blank_rows_after_the_header_are_skipped(self, tmp_path, strict):
        spaced, plain = tmp_path / "spaced.csv", tmp_path / "plain.csv"
        spaced.write_text(f"{GOOD_HEADER}\nA,1,2,3\n   \n\nB,2,3,4\n\t\nC,3,4,5\n   ")
        plain.write_text(f"{GOOD_HEADER}\nA,1,2,3\nB,2,3,4\nC,3,4,5\n")
        dataset, report = parse_city_dataset(spaced, "chicago", strict=strict)
        assert report.issues == []
        assert dataset == parse_city_dataset(plain, "chicago")[0]

    @pytest.mark.parametrize(
        "row, messages",
        [
            (",,,", ["row excluded: missing neighborhood name"]),
            (" ,", ["row excluded: missing neighborhood name"]),
            ("Austin", [f"row excluded: missing {column}" for column in CORE_COLUMNS[1:]]),
        ],
        ids=["commas-only", "one-comma", "name-only"],
    )
    def test_a_row_of_commas_or_of_a_lone_name_is_not_blank(self, tmp_path, row, messages):
        path = tmp_path / "city.csv"
        path.write_text(f"{GOOD_HEADER}\nEnglewood,12.4,48.0,41.0\n{row}\n")
        dataset, report = parse_city_dataset(path, "chicago")
        assert dataset.names == ("englewood",)
        assert report.issues == [ValidationIssue("warning", "row 3", m) for m in messages]
        with pytest.raises(DatasetValidationError) as excinfo:
            parse_city_dataset(path, "chicago", strict=True)
        assert excinfo.value.report.issues == [
            ValidationIssue("error", "row 3", m) for m in messages
        ]

    def test_a_header_and_blank_lines_has_no_usable_rows(self, tmp_path):
        path = tmp_path / "city.csv"
        path.write_bytes(f"{GOOD_HEADER}\n   \n\t\r\n\n \r".encode())
        with pytest.raises(DatasetValidationError) as excinfo:
            parse_city_dataset(path, "chicago")
        assert str(excinfo.value) == f"error: {path}: no usable data rows"

    def test_missing_required_column(self, write_file):
        path = write_file(
            """
            neighborhood,prevalence_per_1000,untested_pct
            Englewood,12.4,48.0
            """
        )
        with pytest.raises(DatasetValidationError, match="public_coverage_pct"):
            parse_city_dataset(path, "chicago")

    def test_row_missing_metric_is_excluded_with_warning(self, write_file):
        path = write_file(
            """
            neighborhood,prevalence_per_1000,untested_pct,public_coverage_pct
            Englewood,12.4,,41.0
            Austin,10.2,46.0,44.0
            West Englewood,11.1,50.5,39.0
            """
        )
        dataset, report = parse_city_dataset(path, "chicago")
        assert dataset.names == ("austin", "west englewood")
        (warning,) = report.warnings()
        assert warning.location == "row 2"
        assert "missing untested_pct" in warning.message

    def test_strict_mode_turns_exclusions_into_errors(self, write_file):
        path = write_file(
            """
            neighborhood,prevalence_per_1000,untested_pct,public_coverage_pct
            Englewood,12.4,,41.0
            Austin,10.2,46.0,44.0
            """
        )
        with pytest.raises(DatasetValidationError, match="missing untested_pct"):
            parse_city_dataset(path, "chicago", strict=True)

    def test_missing_name_is_excluded_with_warning(self, write_file):
        path = write_file(
            """
            neighborhood,prevalence_per_1000,untested_pct,public_coverage_pct
            ,12.4,48.0,41.0
            Austin,10.2,46.0,44.0
            West Englewood,11.1,50.5,39.0
            """
        )
        dataset, report = parse_city_dataset(path, "chicago")
        assert dataset.names == ("austin", "west englewood")
        assert "missing neighborhood name" in report.warnings()[0].message

    def test_non_numeric_cell_is_an_error(self, write_file):
        path = write_file(
            """
            neighborhood,prevalence_per_1000,untested_pct,public_coverage_pct
            Englewood,high,48.0,41.0
            """
        )
        with pytest.raises(DatasetValidationError, match="non-numeric value 'high'"):
            parse_city_dataset(path, "chicago")

    def test_non_finite_cell_is_an_error(self, write_file):
        path = write_file(
            """
            neighborhood,prevalence_per_1000,untested_pct,public_coverage_pct
            Englewood,inf,48.0,41.0
            """
        )
        with pytest.raises(DatasetValidationError, match=r"prevalence_per_1000 out of range \[0, inf\), got inf"):
            parse_city_dataset(path, "chicago")

    def test_negative_prevalence_is_an_error(self, write_file):
        path = write_file(
            """
            neighborhood,prevalence_per_1000,untested_pct,public_coverage_pct
            Englewood,-2.0,48.0,41.0
            """
        )
        with pytest.raises(DatasetValidationError, match=r"prevalence_per_1000 out of range \[0, inf\), got -2.0"):
            parse_city_dataset(path, "chicago")

    @pytest.mark.parametrize(
        "content, issues",
        [
            (b"", []),
            (codecs.BOM_UTF8, []),
            (b"# a\n\n \t\r\n#\r", []),
            (b"# unit=permille\n\n", ["row 1: unknown unit declaration 'permille'"]),
        ],
        ids=["empty", "byte-order-mark", "comments-and-blank-lines", "unknown-unit"],
    )
    def test_empty_file_rejected(self, tmp_path, content, issues):
        path = tmp_path / "city.csv"
        path.write_bytes(content)
        with pytest.raises(DatasetValidationError) as excinfo:
            parse_city_dataset(path, "chicago")
        lines = [*issues, "empty file: no header row"]
        assert str(excinfo.value) == "\n".join(f"error: {path}: {line}" for line in lines)

    def test_header_only_rejected(self, write_file):
        path = write_file("neighborhood,prevalence_per_1000,untested_pct,public_coverage_pct\n")
        with pytest.raises(DatasetValidationError, match="no usable data rows"):
            parse_city_dataset(path, "chicago")

    def test_unknown_city_rejected(self, write_file):
        with pytest.raises(UnknownCityError):
            parse_city_dataset(write_file(GOOD_CSV), "atlantis")

    def test_zip_city_accepts_zip_rows(self, write_file):
        path = write_file(
            """
            neighborhood,prevalence_per_1000,untested_pct,public_coverage_pct
            20011,4.1,30.0,40.0
            20020,3.9,35.0,45.0
            """
        )
        dataset, _ = parse_city_dataset(path, "dc")
        assert dataset.names == ("20011", "20020")
        assert dataset.bll_threshold_ug_dl == 3.5

    def test_zip_city_rejects_named_rows(self, write_file):
        path = write_file(
            """
            neighborhood,prevalence_per_1000,untested_pct,public_coverage_pct
            Georgetown,4.1,30.0,40.0
            """
        )
        with pytest.raises(DatasetValidationError, match="ZIP"):
            parse_city_dataset(path, "dc")

    def test_aliases_apply_during_parse(self, write_file):
        path = write_file(
            """
            neighborhood,prevalence_per_1000,untested_pct,public_coverage_pct
            Bed-Stuy,9.0,40.0,50.0
            Greenpoint,8.0,42.0,30.0
            """
        )
        aliases = AliasTable.from_mapping({"bedford stuyvesant": ["bed stuy"]})
        dataset, _ = parse_city_dataset(path, "nyc", aliases=aliases)
        assert dataset.names == ("bedford stuyvesant", "greenpoint")


class TestParseModelRuns:
    def test_bundled_runs(self, bundled_runs):
        runs, report = parse_model_runs(bundled_runs)
        assert report.accepted
        assert [(run.model, run.mode) for run in runs] == [
            ("ChatGPT 5", "Deep research"),
            ("ChatGPT 5", "Agent mode"),
            ("Claude 4.5", "Deep research"),
            ("Claude 4.5", "Extended thinking"),
            ("Gemini 2.5 Flash", "Deep research"),
        ]
        for run in runs:
            assert set(run.per_city) == {"chicago", "nyc", "dc"}
            for recommendations in run.per_city.values():
                assert len(recommendations) == 3
                assert all(rec.kits >= 0 for rec in recommendations)

    def test_bundled_run_names_are_canonical(self, bundled_runs):
        runs, _ = parse_model_runs(bundled_runs)
        first_chicago = [rec.name for rec in runs[0].per_city["chicago"]]
        assert first_chicago == ["austin", "englewood", "north lawndale"]
        nyc_names = {
            rec.name for run in runs for rec in run.per_city["nyc"]
        }
        # The recorded files spell these with several different dash styles.
        assert "williamsburg bushwick" in nyc_names
        assert "bedford stuyvesant" in nyc_names

    def test_negative_kits_rejected(self, write_file):
        path = write_file(
            json.dumps(
                {
                    "runs": [
                        {
                            "model": "m",
                            "mode": "d",
                            "cities": {"chicago": [{"neighborhood": "Austin", "kits": -5}]},
                        }
                    ]
                }
            )
        )
        with pytest.raises(DatasetValidationError, match="negative kits"):
            parse_model_runs(path)

    def test_boolean_kits_rejected(self, write_file):
        path = write_file(
            json.dumps(
                {
                    "runs": [
                        {
                            "model": "m",
                            "mode": "d",
                            "cities": {"chicago": [{"neighborhood": "Austin", "kits": True}]},
                        }
                    ]
                }
            )
        )
        with pytest.raises(DatasetValidationError) as excinfo:
            parse_model_runs(path)
        assert str(excinfo.value) == (
            f"error: {path}: /runs/0/cities/chicago/0/kits: must be a JSON integer, got True"
        )

    def test_the_first_missing_field_rejects_the_file(self, write_file):
        path = write_file(
            json.dumps(
                {
                    "runs": [
                        {"mode": "d", "cities": {}},
                        {"model": "m", "cities": {}},
                    ]
                }
            )
        )
        with pytest.raises(DatasetValidationError) as excinfo:
            parse_model_runs(path)
        # A JSON file stops at its first fault: run 1's missing mode is not reached.
        assert str(excinfo.value) == f"error: {path}: /runs/0/model: missing"

    def test_runs_must_be_a_list(self, write_file):
        path = write_file(json.dumps({"runs": "nope"}))
        with pytest.raises(DatasetValidationError, match="/runs: must be a JSON array, got 'nope'"):
            parse_model_runs(path)

    def test_empty_city_list_warns_but_run_survives(self, write_file):
        path = write_file(
            json.dumps(
                {
                    "runs": [
                        {
                            "model": "m",
                            "mode": "d",
                            "cities": {
                                "chicago": [],
                                "nyc": [{"neighborhood": "Greenpoint", "kits": 400}],
                            },
                        }
                    ]
                }
            )
        )
        runs, report = parse_model_runs(path)
        assert len(runs) == 1
        assert runs[0].per_city["chicago"] == ()
        assert report.warnings() == [
            ValidationIssue("warning", "/runs/0/cities/chicago", "no recommendations")
        ]

    def test_decode_error_after_a_byte_order_mark_counts_the_mark(self, tmp_path):
        path = tmp_path / "runs.json"
        path.write_bytes(codecs.BOM_UTF8 + b'{"runs"\xff: []}')
        with pytest.raises(DatasetValidationError) as excinfo:
            parse_model_runs(path)
        message = "not UTF-8 text (invalid start byte at byte offset 10)"
        assert str(excinfo.value) == f"error: {path}: {message}"

    def test_malformed_json_rejected(self, write_file):
        with pytest.raises(DatasetValidationError, match="malformed JSON"):
            parse_model_runs(write_file("{not json"))

    def test_aliases_apply_to_recommendations(self, write_file):
        path = write_file(
            json.dumps(
                {
                    "runs": [
                        {
                            "model": "m",
                            "mode": "d",
                            "cities": {
                                "nyc": [
                                    {
                                        "neighborhood": "Hunts Point and Mott Haven",
                                        "kits": 300,
                                    }
                                ]
                            },
                        }
                    ]
                }
            )
        )
        aliases = AliasTable.from_mapping(
            {"hunts point mott haven": ["hunts point and mott haven"]}
        )
        runs, _ = parse_model_runs(path, aliases=aliases)
        assert runs[0].per_city["nyc"][0].name == "hunts point mott haven"

    def test_city_keys_naming_one_city_are_rejected(self, write_file):
        recs = [{"neighborhood": "Austin", "kits": 1}]
        run = {"model": "m", "mode": "d", "cities": {"chicago": recs, " Chicago": recs}}
        path = write_file(json.dumps({"runs": [run]}))
        with pytest.raises(DatasetValidationError) as excinfo:
            parse_model_runs(path)
        assert str(excinfo.value) == (
            f"error: {path}: /runs/0/cities/ Chicago: "
            "keys 'chicago' and ' Chicago' both name city 'chicago'"
        )

    @pytest.mark.parametrize("key", ["", " "])
    def test_blank_city_key_is_rejected(self, write_file, key):
        recs = [{"neighborhood": "Austin", "kits": 1}]
        run = {"model": "m", "mode": "d", "cities": {key: recs, "chicago": recs}}
        path = write_file(json.dumps({"runs": [run]}))
        with pytest.raises(DatasetValidationError) as excinfo:
            parse_model_runs(path)
        assert str(excinfo.value) == (
            f"error: {path}: /runs/0/cities/{key}: key {key!r} names no city"
        )


class TestParseTargets:
    def test_bundled_targets(self, bundled_targets):
        targets, report = parse_targets(bundled_targets)
        assert report.accepted
        assert set(targets.per_city) == {"chicago", "nyc", "dc"}
        assert targets.total_targets() == 9
        assert targets.per_city["chicago"] == {"englewood", "west englewood", "austin"}
        assert "bedford stuyvesant" in targets.per_city["nyc"]
        assert targets.per_city["dc"] == {"20011", "20020", "20002"}

    def test_dash_variants_collapse_to_duplicates(self, write_file):
        path = write_file(
            json.dumps(
                {"nyc": ["Hunts Point – Mott Haven", "Hunts Point - Mott Haven"]}
            )
        )
        with pytest.raises(DatasetValidationError, match="duplicate target"):
            parse_targets(path)

    def test_empty_city_list_rejected(self, write_file):
        path = write_file(json.dumps({"chicago": []}))
        with pytest.raises(DatasetValidationError) as excinfo:
            parse_targets(path)
        assert str(excinfo.value) == f"error: {path}: /chicago: target set for 'chicago' is empty"

    def test_non_string_target_rejected(self, write_file):
        path = write_file(json.dumps({"chicago": ["Austin", 42]}))
        with pytest.raises(DatasetValidationError) as excinfo:
            parse_targets(path)
        assert str(excinfo.value) == f"error: {path}: /chicago/1: must be a JSON string, got 42"

    def test_empty_document_rejected(self, write_file):
        path = write_file(json.dumps({}))
        with pytest.raises(DatasetValidationError) as excinfo:
            parse_targets(path)
        assert str(excinfo.value) == f"error: {path}: target set lists no cities"

    def test_city_keys_naming_one_city_are_rejected(self, write_file):
        path = write_file(
            json.dumps({"chicago": ["west englewood", "englewood"], "Chicago": ["austin"]})
        )
        with pytest.raises(DatasetValidationError) as excinfo:
            parse_targets(path)
        assert str(excinfo.value) == (
            f"error: {path}: /Chicago: keys 'chicago' and 'Chicago' both name city 'chicago'"
        )

    @pytest.mark.parametrize("key", ["", " "])
    def test_blank_city_key_is_rejected(self, write_file, key):
        path = write_file(json.dumps({key: ["west englewood"], "chicago": ["west englewood"]}))
        with pytest.raises(DatasetValidationError) as excinfo:
            parse_targets(path)
        assert str(excinfo.value) == f"error: {path}: /{key}: key {key!r} names no city"


class TestRankingRoundTrip:
    def test_write_then_parse_is_identity(self, demo_csv, tmp_path):
        dataset, _ = parse_city_dataset(demo_csv, "demo")
        ranking = score_city(dataset)
        path = tmp_path / "ranking.json"
        write_ranking(ranking, path)
        assert parse_ranking(path) == ranking

    def test_dict_round_trip(self, demo_csv):
        dataset, _ = parse_city_dataset(demo_csv, "demo")
        ranking = score_city(dataset)
        assert ranking_from_dict(ranking_to_dict(ranking)) == ranking

    def test_malformed_document_rejected(self):
        with pytest.raises(DomainValidationError, match="^missing$") as rejected:
            ranking_from_dict({"city": "demo"})
        assert rejected.value.at == ("weights",)

    def test_parse_holds_no_dict_per_entry(self, tmp_path):
        # parse_ranking decodes each entry object straight into its columns.
        # Holding the whole document as dicts while the entries are built, as
        # a plain json.loads does, peaks at 8.2-9.5 MB under tracemalloc for
        # 20,000 entries; decoding entry by entry peaks at 5.9-6.1 MB into
        # lists of float objects and at 4.7 MB into float64 columns.
        path = tmp_path / "ranking.json"
        scores = {f"area {i:05d}": 1 - i / 20_000 for i in range(20_000)}
        write_ranking(ranking_from_scores(scores), path)
        tracemalloc.start()
        try:
            ranking = parse_ranking(path)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert len(ranking) == 20_000
        assert peak < 7_000_000

    def test_parse_holds_no_float_object_per_score(self, tmp_path):
        # A ranking read from 20,000 entries holds its scores as float64
        # columns. Held as tuples of float objects, the memory still traced
        # after the read was 2.01 MB under tracemalloc on CPython 3.11; as
        # columns it is 1.52 MB.
        path = tmp_path / "ranking.json"
        scores = {f"area {i:05d}": 1 - i / 20_000 for i in range(20_000)}
        write_ranking(ranking_from_scores(scores), path)
        del scores
        tracemalloc.start()
        try:
            ranking = parse_ranking(path)
            held = tracemalloc.get_traced_memory()[0]
        finally:
            tracemalloc.stop()
        assert len(ranking) == 20_000
        assert held < 1_750_000

    def test_entries_with_other_fields_or_integral_scores_still_parse(self, tmp_path):
        doc = ranking_to_dict(ranking_from_scores({"a": 2.0, "b": 1.0}))
        doc["entries"][0]["note"] = "kept out"
        doc["entries"][1].update(raw_score=1, scaled_score=5)
        path = tmp_path / "ranking.json"
        path.write_text(json.dumps(doc), encoding="utf-8")
        ranking = parse_ranking(path)
        assert ranking.names == ("a", "b")
        assert (list(ranking.raw_scores), list(ranking.scaled_scores)) == ([2.0, 1.0], [10.0, 5.0])

    def test_weights_shaped_like_an_entry_are_rejected(self, tmp_path):
        doc = ranking_to_dict(ranking_from_scores({"a": 2.0, "b": 1.0}))
        doc["weights"] = {"neighborhood": "a", "raw_score": 0.5, "scaled_score": 0.5}
        path = tmp_path / "ranking.json"
        path.write_text(json.dumps(doc), encoding="utf-8")
        with pytest.raises(DatasetValidationError) as rejected:
            parse_ranking(path)
        assert str(rejected.value) == f"error: {path}: /weights/alpha: missing"

    def test_blank_name_is_rejected_with_the_file(self, tmp_path):
        doc = ranking_to_dict(ranking_from_scores({"a": 2.0, "b": 1.0}))
        doc["entries"][1]["neighborhood"] = " "
        path = tmp_path / "ranking.json"
        path.write_text(json.dumps(doc), encoding="utf-8")
        with pytest.raises(DatasetValidationError) as rejected:
            parse_ranking(path)
        assert str(rejected.value) == (
            f"error: {path}: /entries/1: neighborhood name must be non-empty"
        )

    def test_integral_scores_read_as_floats(self):
        doc = ranking_to_dict(ranking_from_scores({"riverbend": 1.0, "mill east": 0.25}))
        doc["entries"][0].update(raw_score=1, scaled_score=10)
        ranking = ranking_from_dict(doc)
        name, raw, scaled = ranking.names[0], ranking.raw_scores[0], ranking.scaled_scores[0]
        assert (name, raw, scaled) == ("riverbend", 1.0, 10.0)
        assert (type(raw), type(scaled)) == (float, float)

    @pytest.mark.parametrize(
        "scores, name, scaled, expected",
        [
            ({"a": 2.0, "b": 1.0}, "a", 9.99, 10.0),
            ({"a": 2.0, "b": 1.0}, "b", 10.5, 5.0),
            ({"a": 2.0, "b": 1.0, "c": 0.5}, "c", 6.0, 2.5),
            ({"a": 0.0, "b": 0.0}, "a", 3.0, 0.0),
        ],
        ids=["top-not-ten", "out-of-range", "not-monotone", "non-zero-under-all-zero-raw"],
    )
    def test_scaled_score_must_be_derived_exactly(self, scores, name, scaled, expected):
        doc = ranking_to_dict(ranking_from_scores(scores))
        next(e for e in doc["entries"] if e["neighborhood"] == name)["scaled_score"] = scaled
        index = next(i for i, e in enumerate(doc["entries"]) if e["neighborhood"] == name)
        with pytest.raises(DomainValidationError) as rejected:
            ranking_from_dict(doc)
        assert str(rejected.value) == (
            f"demo: scaled_score of {name!r} is {scaled!r}; 10 × raw / top raw is {expected!r}"
        )
        assert rejected.value.at == ("entries", index, "scaled_score")

    @given(
        st.lists(
            st.tuples(NAMES, st.floats(0.0, 1e300) | st.sampled_from([0.0, 0.5, 1.0])),
            min_size=1,
            max_size=8,
            unique_by=lambda item: item[0],
        ),
        st.data(),
    )
    def test_a_scaled_score_one_ulp_off_is_rejected_naming_its_entry(self, scored, data):
        ranking = ranking_from_scores(dict(scored))
        index = data.draw(st.integers(0, len(ranking) - 1))
        toward = data.draw(st.sampled_from([-math.inf, math.inf]))
        with tempfile.TemporaryDirectory() as directory:
            path = Path(directory) / "ranking.json"
            write_ranking(ranking, path)
            doc = json.loads(path.read_text(encoding="utf-8"))
            entry = doc["entries"][index]
            entry["scaled_score"] = math.nextafter(entry["scaled_score"], toward)
            path.write_text(json.dumps(doc, indent=2), encoding="utf-8")
            with pytest.raises(DatasetValidationError) as rejected:
                parse_ranking(path)
        assert str(rejected.value).startswith(
            f"error: {path}: /entries/{index}/scaled_score: "
            f"demo: scaled_score of {entry['neighborhood']!r} is "
        )

    @given(
        st.lists(
            st.tuples(
                NAMES,
                st.floats(0.0, 1e300) | st.sampled_from([0.0, 0.5, 1.0]),
            ),
            min_size=1,
            max_size=8,
            unique_by=lambda item: item[0],
        )
    )
    def test_parse_reads_back_what_write_wrote(self, scored):
        scored.sort(key=lambda item: (-item[1], item[0]))
        ranking = PriorityRanking(
            "demo", derive_weights(0.6), [name for name, _ in scored], [raw for _, raw in scored]
        )
        with tempfile.TemporaryDirectory() as directory:
            path = Path(directory) / "ranking.json"
            write_ranking(ranking, path)
            assert parse_ranking(path) == ranking

    @given(
        st.floats(-1.0, 1.0),
        st.floats(0.0, 1.0, exclude_min=True, exclude_max=True)
        | st.sampled_from([5e-324, 1 - 2**-53]),
        st.sampled_from(WeightVariant),
        st.booleans(),
        st.sampled_from(["alpha", "beta", "gamma"]),
    )
    def test_derived_weights_read_back_and_no_others_do(self, r, alpha, variant, normalize, key):
        # A plain config's alpha is the derivation's input: under the algorithm rule at r = 1
        # any alpha gives beta 0 and gamma 1, so only a normalized alpha is a derived weight.
        assume(normalize or key != "alpha")
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", DataQualityWarning)  # a negative r is clamped
            weights = derive_weights(r, alpha, variant, normalize=normalize)
        ranking = PriorityRanking("demo", weights, ["a", "b"], [1.0, 0.5])
        with tempfile.TemporaryDirectory() as directory:
            path = Path(directory) / "ranking.json"
            write_ranking(ranking, path)
            assert parse_ranking(path) == ranking
            doc = json.loads(path.read_text(encoding="utf-8"))
            doc["weights"][key] += 1e-6
            path.write_text(json.dumps(doc), encoding="utf-8")
            with pytest.raises(DatasetValidationError) as rejected:
                parse_ranking(path)
        assert str(rejected.value).startswith(f"error: {path}: /weights: ")

    def test_entry_shaped_objects_outside_the_entries_are_ignored(self, tmp_path):
        ranking = ranking_from_scores({"a": 2.0, "b": 1.0, "c": 0.5})
        for place in ("first", "last"):
            doc = ranking_to_dict(ranking)
            extra = {"neighborhood": "z", "raw_score": 9.0, "scaled_score": 10.0}
            doc = {"note": extra, **doc} if place == "first" else {**doc, "note": extra}
            doc["entries"][1]["note"] = dict(extra)  # an entry that holds one, too
            path = tmp_path / f"{place}.json"
            path.write_text(json.dumps(doc), encoding="utf-8")
            assert parse_ranking(path) == ranking


def json_dump_text(doc) -> str:
    buffer = io.StringIO()
    json.dump(doc, buffer, indent=2)
    return buffer.getvalue() + "\n"


def written_text(dump, value) -> str:
    buffer = io.StringIO()
    dump(value, buffer)
    return buffer.getvalue()


class TestStreamingWriters:
    """The streaming writers print exactly what ``json.dump(..., indent=2)`` prints."""

    @given(
        st.text(),
        st.lists(
            st.tuples(NAMES, st.one_of(st.integers(0, 10**30), st.floats(0.0, 1e300))),
            min_size=1,
            max_size=8,
            unique_by=lambda item: item[0],  # a ranking names each neighborhood once
        ),
    )
    def test_ranking_matches_json_dump(self, city, scored):
        # A ranking holds float64 scores, so sort as floats: two integers past 2**53 can tie.
        scored.sort(key=lambda item: (-float(item[1]), item[0]))
        ranking = ranking_of_entries(city=city, weights=derive_weights(0.6), entries=scored)
        assert written_text(dump_ranking, ranking) == json_dump_text(ranking_to_dict(ranking))

    @given(
        st.text(),
        st.lists(
            st.tuples(NAMES, st.integers(0, 10**30)),
            min_size=1,
            max_size=8,
            unique_by=lambda item: item[0],  # a plan names each neighborhood once
        ),
        st.sampled_from(list(Strategy)),
    )
    def test_plan_matches_json_dump(self, city, allocations, strategy):
        total = sum(kits for _, kits in allocations)
        assume(total > 0)
        plan = plan_of_allocations(city, total, tuple(allocations), strategy)
        doc = {
            "city": city,
            "total_kits": total,
            "strategy": strategy.value,
            "apportionment": plan.apportionment,
            "allocations": [{"neighborhood": name, "kits": kits} for name, kits in allocations],
        }
        assert written_text(dump_plan, plan) == json_dump_text(doc)


class TestAliasLoading:
    def test_load_aliases_dispatch(self, write_file):
        table = AliasTable.from_mapping({"bedford stuyvesant": ["bed stuy"]})
        assert table.resolve("bed stuy") == "bedford stuyvesant"
        path = write_file(json.dumps({"bedford stuyvesant": ["bed stuy"]}))
        assert AliasTable.from_file(path).resolve("bed stuy") == "bedford stuyvesant"


class TestIssueFormatting:
    def test_issues_render_severity_and_row(self, write_file):
        path = write_file(
            """
            neighborhood,prevalence_per_1000,untested_pct,public_coverage_pct
            Englewood,12.4,,41.0
            Austin,10.2,46.0,44.0
            """
        )
        _, report = parse_city_dataset(path, "chicago")
        rendered = [report.describe(issue) for issue in report.issues]
        assert rendered == [f"warning: {path}: row 2: row excluded: missing untested_pct"]

    def test_a_rejection_survives_pickling(self, write_file):
        path = write_file("neighborhood,untested_pct\nEnglewood,48.0\n")
        with pytest.raises(DatasetValidationError) as info:
            parse_city_dataset(path, "chicago")
        for error in (info.value, ValidationReport(source="x.csv").reject("bad")):
            copy = pickle.loads(pickle.dumps(error))
            assert type(copy) is DatasetValidationError
            assert str(copy) == str(error)
            assert copy.report == error.report
