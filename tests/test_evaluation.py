"""Top-k overlap accuracy and its display contract."""

from __future__ import annotations

import math
import tracemalloc
from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from leadalloc.errors import DomainValidationError
from leadalloc.evaluation import (
    AccuracyReport,
    RunAccuracy,
    build_report,
    city_hits,
    format_report_table,
    report_to_dict,
    truncate_display,
)
from leadalloc.ingest import parse_model_runs, parse_targets, table_lines
from leadalloc.model import ModelRun, Recommendation, TargetSet
from leadalloc import resources


@pytest.fixture(scope="module")
def bundled():
    runs, _ = parse_model_runs(resources.model_runs_path())
    targets, _ = parse_targets(resources.targets_path())
    return runs, targets


class TestTruncateDisplay:
    @pytest.mark.parametrize(
        ("num", "den", "expected"),
        [
            (6, 9, "0.66"),
            (5, 9, "0.55"),
            (3, 9, "0.33"),
            (2, 9, "0.22"),
            (21, 45, "0.46"),
            (9, 45, "0.20"),
            (9, 9, "1.00"),
            (0, 9, "0.00"),
            (2, 3, "0.66"),  # rounding would print 0.67
            (999, 1000, "0.99"),  # rounding would print 1.00
        ],
    )
    def test_truncates_toward_zero(self, num, den, expected):
        assert truncate_display(Fraction(num, den)) == expected

    def test_integer_inputs(self):
        assert truncate_display(2) == "2.00"

    def test_negative_rejected(self):
        with pytest.raises(DomainValidationError, match="non-negative"):
            truncate_display(Fraction(-1, 3))


class TestCityHits:
    CHICAGO_TARGETS = frozenset({"englewood", "west englewood", "austin"})

    def test_two_of_three(self):
        recommended = ["englewood", "west englewood", "little village"]
        assert city_hits(recommended, self.CHICAGO_TARGETS) == 2

    def test_order_within_top_k_is_irrelevant(self):
        recommended = ["little village", "west englewood", "englewood"]
        assert city_hits(recommended, self.CHICAGO_TARGETS) == 2

    def test_entries_beyond_k_do_not_count(self):
        recommended = ["little village", "north lawndale", "south shore", "austin"]
        assert city_hits(recommended, self.CHICAGO_TARGETS, k=3) == 0
        assert city_hits(recommended, self.CHICAGO_TARGETS, k=4) == 1

    def test_duplicates_count_once(self):
        assert city_hits(["austin", "austin", "austin"], self.CHICAGO_TARGETS) == 1

    def test_empty_recommendations_score_zero(self):
        assert city_hits([], self.CHICAGO_TARGETS) == 0

    def test_k_one_uses_only_the_first(self):
        assert city_hits(["austin", "englewood"], self.CHICAGO_TARGETS, k=1) == 1
        assert city_hits(["pullman", "englewood"], self.CHICAGO_TARGETS, k=1) == 0

    def test_k_must_be_positive(self):
        with pytest.raises(DomainValidationError, match="k must be"):
            city_hits(["austin"], self.CHICAGO_TARGETS, k=0)


class TestRunAccuracy:
    def test_missing_city_still_counts_in_denominator(self):
        run = ModelRun(
            model="m",
            mode="d",
            per_city={"chicago": (Recommendation("austin", 500),)},
        )
        targets = TargetSet(
            per_city={
                "chicago": frozenset({"austin", "englewood"}),
                "nyc": frozenset({"greenpoint"}),
            }
        )
        summary = build_report([run], targets).per_run[0]
        assert summary.total_hits == 1
        assert summary.denominator == 3
        assert summary.accuracy_exact == Fraction(1, 3)

    def test_cities_not_in_targets_are_ignored(self):
        run = ModelRun(
            model="m",
            mode="d",
            per_city={
                "chicago": (Recommendation("austin", 500),),
                "boston": (Recommendation("roxbury", 500),),
            },
        )
        targets = TargetSet(per_city={"chicago": frozenset({"austin"})})
        assert build_report([run], targets).per_run[0].accuracy_exact == Fraction(1, 1)

    def test_only_the_counts_are_fields(self):
        assert RunAccuracy._fields == ("model", "mode", "hits_per_city", "denominator")
        assert AccuracyReport._fields == ("k", "per_run")
        run = RunAccuracy("m", "d", {"chicago": 0}, 3)
        for removed in ("total_hits", "accuracy_exact", "accuracy_display"):
            with pytest.raises(TypeError):
                RunAccuracy("m", "d", {"chicago": 0}, 3, **{removed: run.total_hits})
        for removed in (
            "pooled_hits",
            "pooled_denominator",
            "overall_mean_exact",
            "overall_mean_display",
            "run_mean_exact",
            "run_mean_display",
        ):
            with pytest.raises(TypeError):
                AccuracyReport(3, (run,), **{removed: run.total_hits})

    @pytest.mark.parametrize(
        ("hits", "denominator"),
        [({"chicago": 4}, 3), ({"chicago": -1, "dc": 2}, 3), ({"chicago": 0}, 0), ({}, -1)],
    )
    def test_hits_must_fit_the_denominator(self, hits, denominator):
        with pytest.raises(DomainValidationError, match="do not fit"):
            RunAccuracy("m", "d", hits, denominator)


HITS = st.dictionaries(st.sampled_from(["chicago", "nyc", "dc"]), st.integers(0, 40), min_size=1)


@given(HITS, HITS, st.integers(0, 40))
def test_totals_and_accuracies_follow_from_the_hits(hits, other, spare):
    denominator = max(sum(hits.values()), sum(other.values()), 1) + spare
    run = RunAccuracy("m", "d", hits, denominator)
    replaced = run._replace(hits_per_city=other)
    for value, drawn in ((run, hits), (replaced, other)):
        total = sum(drawn.values())
        hundredths = total * 100 // denominator
        assert value.total_hits == total
        assert value.accuracy_exact == Fraction(total, denominator)
        assert value.accuracy_display == f"{hundredths // 100}.{hundredths % 100:02d}"
    report = AccuracyReport(3, [run, replaced])
    pooled = sum(hits.values()) + sum(other.values())
    assert report.per_run == (run, replaced)
    assert (report.pooled_hits, report.pooled_denominator) == (pooled, 2 * denominator)
    assert report.overall_mean_exact == report.run_mean_exact == Fraction(pooled, 2 * denominator)
    assert report.overall_mean_display == truncate_display(Fraction(pooled, 2 * denominator))


class TestBuildReport:
    def test_bundled_fixture_reproduces_recorded_accuracies(self, bundled):
        runs, targets = bundled
        report = build_report(runs, targets)
        assert [r.total_hits for r in report.per_run] == [6, 5, 3, 5, 2]
        assert all(r.denominator == 9 for r in report.per_run)
        assert [r.accuracy_display for r in report.per_run] == [
            "0.66",
            "0.55",
            "0.33",
            "0.55",
            "0.22",
        ]
        assert report.pooled_hits == 21
        assert report.pooled_denominator == 45
        assert report.overall_mean_display == "0.46"
        # Uniform denominators make the two overall statistics coincide.
        assert report.run_mean_exact == report.overall_mean_exact == Fraction(21, 45)
        assert report.run_mean_display == "0.46"

    def test_bundled_fixture_per_city_hits(self, bundled):
        runs, targets = bundled
        report = build_report(runs, targets)
        assert dict(report.per_run[0].hits_per_city) == {"chicago": 2, "nyc": 1, "dc": 3}
        assert dict(report.per_run[2].hits_per_city) == {"chicago": 1, "nyc": 2, "dc": 0}
        assert dict(report.per_run[4].hits_per_city) == {"chicago": 1, "nyc": 0, "dc": 1}

    def test_k_one_recount(self, bundled):
        runs, targets = bundled
        report = build_report(runs, targets, k=1)
        assert [r.total_hits for r in report.per_run] == [3, 2, 2, 2, 0]
        assert report.pooled_hits == 9
        assert report.overall_mean_display == "0.20"

    def test_zero_runs_rejected(self, bundled):
        _, targets = bundled
        with pytest.raises(DomainValidationError, match="zero runs"):
            build_report([], targets)
        with pytest.raises(DomainValidationError, match="zero runs"):
            AccuracyReport(3, ())

    def test_run_order_is_preserved(self, bundled):
        runs, targets = bundled
        report = build_report(list(reversed(runs)), targets)
        assert [r.model for r in report.per_run] == [run.model for run in reversed(runs)]
        assert report.pooled_hits == 21


class TestRendering:
    def test_table_layout(self, bundled):
        runs, targets = bundled
        table = format_report_table(build_report(runs, targets))
        lines = table.splitlines()
        assert lines[0].split() == ["model", "mode", "hits", "accuracy"]
        assert lines[1].endswith("6/9      0.66")
        assert lines[-2].split() == ["overall", "(pooled)", "21/45", "0.46"]
        assert lines[-1].startswith("overall (mean of runs)")
        assert lines[-1].endswith("0.46")
        assert table.endswith("\n")

    def test_dict_rendering(self, bundled):
        runs, targets = bundled
        doc = report_to_dict(build_report(runs, targets))
        assert doc["k"] == 3
        assert doc["runs"][0]["accuracy_exact"] == "6/9"
        assert doc["runs"][0]["accuracy_display"] == "0.66"
        assert doc["runs"][0]["hits_per_city"] == {"chicago": 2, "nyc": 1, "dc": 3}
        assert doc["overall"]["pooled"]["exact"] == "21/45"
        assert doc["overall"]["pooled"]["display"] == "0.46"
        assert doc["overall"]["mean_of_runs"]["exact"] == "7/15"
        assert doc["overall"]["mean_of_runs"]["display"] == "0.46"


@st.composite
def _tables(draw):
    columns = draw(st.integers(1, 4))
    cell = st.text(alphabet="ab {}:<>é ", max_size=6)
    row = st.tuples(*[cell] * columns)
    left = draw(st.sets(st.integers(0, columns - 1)))
    return draw(row), draw(st.lists(row, max_size=5)), left


def _padded_cell_by_cell(headers, rows, left):
    """The reference layout: each cell padded on its own with ljust or rjust."""
    widths = [max(len(cells[col]) for cells in (headers, *rows)) for col in range(len(headers))]
    expected = [
        "  ".join(
            cell.ljust(width) if col in left else cell.rjust(width)
            for col, (cell, width) in enumerate(zip(cells, widths))
        ).rstrip()
        + "\n"
        for cells in (headers, *rows)
    ]
    return expected


@given(_tables())
def test_table_lines_pad_each_cell_like_ljust_and_rjust(table):
    """The one-template layout gives the bytes that padding cell by cell gives."""
    headers, rows, left = table
    columns = [[cells[col] for cells in rows] for col in range(len(headers))]
    formats = [""] * len(headers)
    assert list(table_lines(headers, columns, formats, left)) == _padded_cell_by_cell(
        headers, rows, left
    )


# Values that format to lengths their neighbours do not: signed zeros,
# rounding up to a new digit, 17 digits, and the non-finite floats.
_EDGE_FLOATS = [0.0, -0.0, 9.9999996, -9.9999996, 1e16, -1e16, 0.5, 2.5, math.inf, -math.inf]
_TYPED_COLUMNS = {
    "": st.text(alphabet="ab {}:<>é ", max_size=6),
    "d": st.sampled_from([0, -1, 7, 10, 99999]) | st.integers(-(10**20), 10**20),
    **dict.fromkeys(
        (".6f", ".2f", ".4f", "g"),
        st.sampled_from(_EDGE_FLOATS)
        | st.floats(min_value=-1e17, max_value=1e17)
        | st.just(math.nan),
    ),
}


@st.composite
def _typed_tables(draw):
    formats = draw(st.lists(st.sampled_from(sorted(_TYPED_COLUMNS)), min_size=1, max_size=5))
    count = draw(st.integers(0, 6))
    # Few distinct values per column, so equal values (and 0.0 beside -0.0) recur.
    columns = []
    for spec in formats:
        pool = draw(st.lists(_TYPED_COLUMNS[spec], min_size=1, max_size=3))
        columns.append(draw(st.lists(st.sampled_from(pool), min_size=count, max_size=count)))
    headers = draw(st.tuples(*[st.text(alphabet="ab ", max_size=12)] * len(formats)))
    left = draw(st.sets(st.integers(0, len(formats) - 1)))
    return headers, columns, formats, left


@given(_typed_tables())
def test_table_lines_format_typed_columns_like_the_cell_by_cell_reference(table):
    """Widths from every value, and one template per row, match formatting every cell."""
    headers, columns, formats, left = table
    rows = [
        tuple(map(format, values, formats)) for values in zip(*columns)
    ]
    assert list(table_lines(headers, columns, formats, left)) == _padded_cell_by_cell(
        headers, rows, left
    )


@pytest.mark.parametrize("spec", [".2f", ".6f", "g", "d"])
def test_table_widths_hold_no_set_of_the_values(spec):
    # A width is the longest of the column's formatted values, each formatted
    # and measured in turn, so neither the values nor their strings are held:
    # a set of these 20,000 distinct numbers would take 2 MB.
    values = [i / 7 for i in range(20_000)] if spec != "d" else list(range(-5, 19_995))
    tracemalloc.start()
    try:
        lines = table_lines(("x",), [values], (spec,), left=set())
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    widest = max(len(format(value, spec)) for value in values)
    assert len(next(lines)) == widest + 1
    assert peak < 100_000
