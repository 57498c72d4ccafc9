"""CSV and JSON ingestion: validation, exclusion rules, round-trips."""

from __future__ import annotations

import io
import json
import tempfile
import tracemalloc
from pathlib import Path

import pytest
from hypothesis import assume, given
from hypothesis import strategies as st

from helpers import (
    metric,
    plan_of_allocations,
    ranking_from_scores,
    ranking_of_entries,
    ranking_to_dict,
)
from leadalloc.errors import (
    DatasetValidationError,
    DomainValidationError,
    UnknownCityError,
)
from leadalloc.ingest import (
    dump_plan,
    dump_ranking,
    parse_city_dataset,
    parse_model_runs,
    parse_ranking,
    parse_targets,
    ranking_from_dict,
    read_text,
    write_city_dataset,
    write_ranking,
)
from leadalloc.model import (
    AliasTable,
    PriorityRanking,
    RankingEntry,
    Strategy,
    UnitKind,
)
from leadalloc.scoring import derive_weights, score_city

GOOD_CSV = """
neighborhood,prevalence_per_1000,untested_pct,public_coverage_pct
Englewood,12.4,48.0,41.0
West Englewood,11.1,50.5,39.0
Austin,10.2,46.0,44.0
"""


class TestParseCityDataset:
    def test_happy_path(self, write_file):
        dataset, report = parse_city_dataset(write_file(GOOD_CSV), "chicago")
        assert report.accepted
        assert report.issues == []
        assert dataset.city == "chicago"
        assert dataset.names == ("englewood", "west englewood", "austin")
        assert dataset.records[0].prevalence == 12.4
        assert dataset.bll_threshold_ug_dl == 5.0
        assert dataset.unit_kind is UnitKind.NAMED_AREA

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
        assert dataset.records[0].name == "riverbend"
        assert dataset.records[0].extra_factors["median_income_k"] == 32.5

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
        assert [dict(record.extra_factors) for record in dataset.records] == [
            {"pipe": 40.0, "lines": 7.0},
            {"lines": 8.0},
            {},
            {"pipe": 41.0, "lines": 9.0},
        ]
        assert dataset.records[1].extra_factors == {"lines": 8.0}
        assert metric(dataset.records[1], "pipe") is None
        assert metric(dataset.records[3], "lines") == 9.0
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
        message = f"{path}: not UTF-8 text (invalid continuation byte at byte offset {offset})"
        assert str(parsed.value) == str(read.value) == f"input rejected: error: {message}"

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
        assert dataset.records[-1].extra_factors == {"pipe_age_yr": 19_999 % 90}
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
        message = str(excinfo.value)
        assert "percentage out of range [0,100]: untested_pct" in message
        assert "[row 2]" in message

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
        assert dataset.records[0].untested_pct == 48.0
        assert dataset.records[0].public_coverage_pct == 41.0

    def test_unit_fraction_bounds(self, write_file):
        path = write_file(
            """
            # unit=fraction
            neighborhood,prevalence_per_1000,untested_pct,public_coverage_pct
            Englewood,12.4,48.0,0.41
            Austin,10.2,0.46,0.44
            """
        )
        with pytest.raises(DatasetValidationError, match=r"\[0,1\]"):
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
        assert warning.row == 2
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
        with pytest.raises(DatasetValidationError, match="non-finite"):
            parse_city_dataset(path, "chicago")

    def test_negative_prevalence_is_an_error(self, write_file):
        path = write_file(
            """
            neighborhood,prevalence_per_1000,untested_pct,public_coverage_pct
            Englewood,-2.0,48.0,41.0
            """
        )
        with pytest.raises(DatasetValidationError, match="non-negative"):
            parse_city_dataset(path, "chicago")

    def test_empty_file_rejected(self, write_file):
        with pytest.raises(DatasetValidationError, match="empty file"):
            parse_city_dataset(write_file("\n"), "chicago")

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

    def test_round_trip_preserves_values_exactly(self, demo_csv, tmp_path):
        original, _ = parse_city_dataset(demo_csv, "demo")
        out = tmp_path / "roundtrip.csv"
        write_city_dataset(original, out)
        reparsed, report = parse_city_dataset(out, "demo")
        assert report.accepted
        assert reparsed == original


class TestParseModelRuns:
    def test_bundled_runs(self, bundled_runs):
        runs, report = parse_model_runs(bundled_runs)
        assert report.accepted
        assert [run.label for run in runs] == [
            "ChatGPT 5 (Deep research)",
            "ChatGPT 5 (Agent mode)",
            "Claude 4.5 (Deep research)",
            "Claude 4.5 (Extended thinking)",
            "Gemini 2.5 Flash (Deep research)",
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
        with pytest.raises(DatasetValidationError, match="must be an integer"):
            parse_model_runs(path)

    def test_missing_fields_reported_per_run(self, write_file):
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
        message = str(excinfo.value)
        assert "runs[0]: missing model field" in message
        assert "runs[1]: missing mode field" in message

    def test_runs_must_be_a_list(self, write_file):
        path = write_file(json.dumps({"runs": "nope"}))
        with pytest.raises(DatasetValidationError, match='"runs" list'):
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
        assert any("no recommendations" in str(issue) for issue in report.warnings())

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
        assert (
            f"{path}: error: runs[0].cities: keys 'chicago' and ' Chicago' both name city 'chicago'"
            in str(excinfo.value)
        )


class TestParseTargets:
    def test_bundled_targets(self, bundled_targets):
        targets, report = parse_targets(bundled_targets)
        assert report.accepted
        assert set(targets.cities()) == {"chicago", "nyc", "dc"}
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
        with pytest.raises(DatasetValidationError, match="non-empty list"):
            parse_targets(path)

    def test_non_string_target_rejected(self, write_file):
        path = write_file(json.dumps({"chicago": ["Austin", 42]}))
        with pytest.raises(DatasetValidationError, match="expected a string"):
            parse_targets(path)

    def test_empty_document_rejected(self, write_file):
        path = write_file(json.dumps({}))
        with pytest.raises(DatasetValidationError, match="non-empty object"):
            parse_targets(path)

    def test_city_keys_naming_one_city_are_rejected(self, write_file):
        path = write_file(
            json.dumps({"chicago": ["west englewood", "englewood"], "Chicago": ["austin"]})
        )
        with pytest.raises(DatasetValidationError) as excinfo:
            parse_targets(path)
        assert (
            f"{path}: error: targets: keys 'chicago' and 'Chicago' both name city 'chicago'"
            in str(excinfo.value)
        )


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
        with pytest.raises(DomainValidationError, match="malformed ranking"):
            ranking_from_dict({"city": "demo"})

    def test_parse_holds_no_dict_per_entry(self, tmp_path):
        # parse_ranking decodes each entry object straight into a RankingEntry.
        # Holding the whole document as dicts while the entries are built, as
        # a plain json.loads does, peaks at 8.2-9.5 MB under tracemalloc for
        # 20,000 entries; decoding entry by entry peaks at 5.9-6.1 MB.
        path = tmp_path / "ranking.json"
        scores = {f"area {i:05d}": 1 - i / 20_000 for i in range(20_000)}
        write_ranking(ranking_from_scores(scores), path)
        tracemalloc.start()
        try:
            ranking = parse_ranking(path)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert len(ranking.entries) == 20_000
        assert peak < 7_000_000

    def test_entries_with_other_fields_or_integral_scores_still_parse(self, tmp_path):
        doc = ranking_to_dict(ranking_from_scores({"a": 2.0, "b": 1.0}))
        doc["entries"][0]["note"] = "kept out"
        doc["entries"][1].update(raw_score=1, scaled_score=5)
        path = tmp_path / "ranking.json"
        path.write_text(json.dumps(doc), encoding="utf-8")
        assert parse_ranking(path).entries == (("a", 2.0, 10.0), ("b", 1.0, 5.0))

    def test_weights_shaped_like_an_entry_are_rejected(self, tmp_path):
        doc = ranking_to_dict(ranking_from_scores({"a": 2.0, "b": 1.0}))
        doc["weights"] = {"neighborhood": "a", "raw_score": 0.5, "scaled_score": 0.5}
        path = tmp_path / "ranking.json"
        path.write_text(json.dumps(doc), encoding="utf-8")
        with pytest.raises(DatasetValidationError, match="malformed ranking document"):
            parse_ranking(path)

    def test_integral_scores_read_as_floats(self, demo_csv):
        doc = ranking_to_dict(score_city(parse_city_dataset(demo_csv, "demo")[0]))
        doc["entries"][0].update(raw_score=1, scaled_score=10)
        entry = ranking_from_dict(doc).entries[0]
        assert entry == ("riverbend", 1.0, 10.0)
        assert (type(entry.raw_score), type(entry.scaled_score)) == (float, float)

    @given(
        st.lists(
            st.tuples(st.text(), st.floats(0.0, 1e300) | st.sampled_from([0.0, 0.5, 1.0])),
            min_size=1,
            max_size=8,
            unique_by=lambda item: item[0],
        )
    )
    def test_parse_reads_back_what_write_wrote(self, scored):
        scored.sort(key=lambda item: (-item[1], item[0]))
        top = scored[0][1]
        ranking = PriorityRanking(
            "demo",
            derive_weights(0.6),
            [name for name, _ in scored],
            [raw for _, raw in scored],
            [10.0 * (raw / top) if top else 0.0 for _, raw in scored],
        )
        with tempfile.TemporaryDirectory() as directory:
            path = Path(directory) / "ranking.json"
            write_ranking(ranking, path)
            assert parse_ranking(path) == ranking

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
            st.tuples(st.text(), st.one_of(st.integers(0, 10**30), st.floats(0.0, 1e300))),
            min_size=1,
            max_size=8,
            unique_by=lambda item: item[0],  # a ranking names each neighborhood once
        ),
    )
    def test_ranking_matches_json_dump(self, city, scored):
        scored.sort(key=lambda item: (-item[1], item[0]))
        top = scored[0][1]
        entries = [RankingEntry(name, raw, 10.0 * (raw / top) if top else 0.0) for name, raw in scored]
        ranking = ranking_of_entries(city=city, weights=derive_weights(0.6), entries=tuple(entries))
        assert written_text(dump_ranking, ranking) == json_dump_text(ranking_to_dict(ranking))

    @given(
        st.text(),
        st.lists(st.tuples(st.text(), st.integers(0, 10**30)), min_size=1, max_size=8),
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
        rendered = [str(issue) for issue in report.issues]
        assert rendered == ["warning [row 2]: row excluded: missing untested_pct"]
