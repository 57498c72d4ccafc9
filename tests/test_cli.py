"""End-to-end command-line behavior: golden outputs and exit codes."""

from __future__ import annotations

import codecs
import gc
import json
import os
import subprocess
import sys
import tracemalloc
from pathlib import Path

import pytest

import leadalloc
from helpers import ranking_from_scores
from leadalloc import cli, resources
from leadalloc.cli import ALIAS_ENV_VAR, main
from leadalloc.errors import LeadAllocError
from leadalloc.ingest import parse_ranking, write_ranking
from leadalloc.model import CORE_COLUMNS


@pytest.fixture(autouse=True)
def _no_alias_override(monkeypatch):
    monkeypatch.delenv(ALIAS_ENV_VAR, raising=False)


def run_cli(capsys, *argv: str) -> tuple[int, str, str]:
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


@pytest.fixture
def demo_ranking(capsys, demo_csv, tmp_path):
    path = tmp_path / "ranking.json"
    code = main(["score", "--input", str(demo_csv), "--city", "demo", "--out", str(path)])
    assert code == 0
    capsys.readouterr()
    return path


class TestEvaluate:
    def test_default_bundled_data_matches_golden(self, capsys, golden):
        code, out, err = run_cli(capsys, "evaluate")
        assert code == 0
        assert out == golden("evaluate_table.txt")
        assert err == ""

    def test_json_format_matches_golden(self, capsys, golden):
        code, out, _ = run_cli(capsys, "evaluate", "--format", "json")
        assert code == 0
        assert out == golden("evaluate_report.json")

    def test_k_one_recounts_hits(self, capsys):
        code, out, _ = run_cli(capsys, "evaluate", "--k", "1")
        assert code == 0
        lines = out.splitlines()
        hits = [line.split()[-2] for line in lines[1:6]]
        assert hits == ["3/9", "2/9", "2/9", "2/9", "0/9"]
        assert lines[6].split() == ["overall", "(pooled)", "9/45", "0.20"]

    def test_explicit_paths(self, capsys, bundled_runs, bundled_targets):
        code, out, _ = run_cli(
            capsys,
            "evaluate",
            "--runs",
            str(bundled_runs),
            "--targets",
            str(bundled_targets),
        )
        assert code == 0
        assert "21/45" in out

    def test_missing_targets_file_exits_2(self, capsys, tmp_path):
        code, out, err = run_cli(
            capsys, "evaluate", "--targets", str(tmp_path / "missing.json")
        )
        assert code == 2
        assert out == ""
        assert "error:" in err

    def test_target_city_keys_naming_one_city_exit_2(self, capsys, write_file):
        path = write_file(
            json.dumps({"chicago": ["west englewood", "englewood"], "Chicago": ["austin"]}),
            "targets.json",
        )
        code, out, err = run_cli(capsys, "evaluate", "--targets", str(path))
        assert code == 2
        assert out == ""
        assert f"{path}: error: targets: keys 'chicago' and 'Chicago' both name city" in err

    def test_malformed_runs_file_exits_2(self, capsys, write_file):
        path = write_file("{broken", "runs.json")
        code, _, err = run_cli(capsys, "evaluate", "--runs", str(path))
        assert code == 2
        assert "malformed JSON" in err

    def test_alias_file_env_var_changes_matching(
        self, capsys, write_file, monkeypatch
    ):
        runs = write_file(
            json.dumps(
                {
                    "runs": [
                        {
                            "model": "m",
                            "mode": "d",
                            "cities": {
                                "chicago": [
                                    {"neighborhood": "South Lawndale", "kits": 1000}
                                ]
                            },
                        }
                    ]
                }
            ),
            "runs.json",
        )
        targets = write_file(json.dumps({"chicago": ["Little Village"]}), "targets.json")

        code, out, _ = run_cli(
            capsys, "evaluate", "--runs", str(runs), "--targets", str(targets)
        )
        assert code == 0
        assert "0/1" in out

        aliases = write_file(
            json.dumps({"little village": ["south lawndale"]}), "aliases.json"
        )
        monkeypatch.setenv(ALIAS_ENV_VAR, str(aliases))
        code, out, _ = run_cli(
            capsys, "evaluate", "--runs", str(runs), "--targets", str(targets)
        )
        assert code == 0
        assert "1/1" in out

    def test_internal_errors_exit_1_without_traceback(self, capsys, monkeypatch):
        def boom(*args, **kwargs):
            raise RuntimeError("boom")

        monkeypatch.setattr(cli, "build_report", boom)
        code, out, err = run_cli(capsys, "evaluate")
        assert code == 1
        assert "internal error: boom" in err
        assert "Traceback" not in err


class TestCorrelate:
    def test_demo_table_matches_golden(self, capsys, golden, demo_csv):
        code, out, err = run_cli(
            capsys, "correlate", "--input", str(demo_csv), "--city", "demo"
        )
        assert code == 0
        assert out == golden("correlate_demo.txt")
        assert err == ""

    def test_demo_json_matches_golden(self, capsys, golden, demo_csv):
        code, out, _ = run_cli(
            capsys, "correlate", "--input", str(demo_csv), "--city", "demo", "--json"
        )
        assert code == 0
        assert out == golden("correlate_demo.json")

    def test_factor_subset(self, capsys, demo_csv):
        code, out, _ = run_cli(
            capsys,
            "correlate",
            "--input",
            str(demo_csv),
            "--city",
            "demo",
            "--factors",
            "public_coverage_pct",
        )
        assert code == 0
        lines = out.splitlines()
        assert len(lines) == 2
        assert lines[1].split() == ["public_coverage_pct", "0.68", "10"]

    def test_spearman_estimator(self, capsys, demo_csv):
        code, out, _ = run_cli(
            capsys,
            "correlate",
            "--input",
            str(demo_csv),
            "--city",
            "demo",
            "--estimator",
            "spearman",
            "--json",
        )
        assert code == 0
        doc = json.loads(out)
        assert doc["estimator"] == "spearman"

    def test_unknown_factor_exits_2(self, capsys, demo_csv):
        code, _, err = run_cli(
            capsys,
            "correlate",
            "--input",
            str(demo_csv),
            "--city",
            "demo",
            "--factors",
            "bogus",
        )
        assert code == 2
        assert "unknown factor" in err

    def test_unknown_city_exits_2(self, capsys, demo_csv):
        code, _, err = run_cli(
            capsys, "correlate", "--input", str(demo_csv), "--city", "atlantis"
        )
        assert code == 2
        assert "unknown city" in err

    def test_missing_input_exits_2(self, capsys, tmp_path):
        code, _, err = run_cli(
            capsys, "correlate", "--input", str(tmp_path / "nope.csv"), "--city", "demo"
        )
        assert code == 2
        assert "error:" in err

    def test_row_warnings_go_to_stderr_not_stdout(self, capsys, write_file):
        path = write_file(
            """
            neighborhood,prevalence_per_1000,untested_pct,public_coverage_pct
            Englewood,12.4,,41.0
            Austin,10.2,46.0,44.0
            West Englewood,11.1,50.5,39.0
            """,
            "partial.csv",
        )
        code, out, err = run_cli(
            capsys, "correlate", "--input", str(path), "--city", "chicago"
        )
        assert code == 0
        assert "warning [row 2]" in err
        assert "warning" not in out

    def test_invalid_zip_code_exits_2_naming_the_row(self, capsys, write_file):
        path = write_file(
            """
            neighborhood,prevalence_per_1000,untested_pct,public_coverage_pct
            20001,4.0,50.0,40.0
            123,5.0,60.0,30.0
            20003,3.0,40.0,50.0
            """,
            "dc.csv",
        )
        code, out, err = run_cli(capsys, "correlate", "--input", str(path), "--city", "dc")
        assert code == 2
        assert out == ""
        assert "[row 3]: '123' is not a 5-digit ZIP code" in err


class TestScore:
    def test_demo_table_matches_golden(self, capsys, golden, demo_csv):
        code, out, err = run_cli(
            capsys, "score", "--input", str(demo_csv), "--city", "demo"
        )
        assert code == 0
        assert out == golden("score_demo.txt")
        assert err == ""

    def test_top_entry_scaled_to_ten(self, capsys, demo_csv):
        code, out, _ = run_cli(
            capsys, "score", "--input", str(demo_csv), "--city", "demo", "--json"
        )
        assert code == 0
        doc = json.loads(out)
        assert doc["entries"][0]["scaled_score"] == 10.0

    def test_out_file_round_trips(self, capsys, demo_csv, tmp_path):
        out_path = tmp_path / "ranking.json"
        code, _, _ = run_cli(
            capsys,
            "score",
            "--input",
            str(demo_csv),
            "--city",
            "demo",
            "--out",
            str(out_path),
        )
        assert code == 0
        ranking = parse_ranking(out_path)
        assert ranking.city == "demo"
        assert ranking.entries[0].scaled_score == 10.0

    def test_json_stdout_and_out_file_are_the_same_bytes(self, capsys, demo_csv, tmp_path):
        out_path = tmp_path / "ranking.json"
        code, out, _ = run_cli(
            capsys,
            "score",
            "--input",
            str(demo_csv),
            "--city",
            "demo",
            "--json",
            "--out",
            str(out_path),
        )
        assert code == 0
        assert out_path.read_bytes() == out.encode("utf-8")

    def test_variants_change_weights(self, capsys, demo_csv):
        _, out_text, _ = run_cli(
            capsys,
            "score",
            "--input",
            str(demo_csv),
            "--city",
            "demo",
            "--variant",
            "text",
            "--json",
        )
        _, out_algo, _ = run_cli(
            capsys,
            "score",
            "--input",
            str(demo_csv),
            "--city",
            "demo",
            "--variant",
            "algorithm",
            "--json",
        )
        gamma_text = json.loads(out_text)["weights"]["gamma"]
        gamma_algo = json.loads(out_algo)["weights"]["gamma"]
        assert gamma_algo == pytest.approx(2 * gamma_text, rel=1e-12)

    def test_r_override_is_recorded(self, capsys, demo_csv):
        code, out, _ = run_cli(
            capsys,
            "score",
            "--input",
            str(demo_csv),
            "--city",
            "demo",
            "--r-override",
            "0.6",
            "--json",
        )
        assert code == 0
        weights = json.loads(out)["weights"]
        assert weights["source_correlation"] == 0.6
        assert weights["gamma"] == 0.30

    def test_alpha_out_of_range_exits_2(self, capsys, demo_csv):
        code, _, err = run_cli(
            capsys,
            "score",
            "--input",
            str(demo_csv),
            "--city",
            "demo",
            "--alpha",
            "1.0",
        )
        assert code == 2
        assert "alpha" in err

    def test_degenerate_columns_warn_on_stderr(self, capsys, write_file):
        path = write_file(
            """
            neighborhood,prevalence_per_1000,untested_pct,public_coverage_pct
            Englewood,5.0,40.0,30.0
            Austin,5.0,45.0,35.0
            """,
            "flat.csv",
        )
        code, out, err = run_cli(
            capsys,
            "score",
            "--input",
            str(path),
            "--city",
            "chicago",
            "--r-override",
            "0.6",
        )
        assert code == 0
        assert "warning: degenerate column" in err
        assert "warning" not in out


class TestAllocate:
    def test_demo_table_matches_golden(self, capsys, golden, demo_ranking):
        code, out, err = run_cli(
            capsys, "allocate", "--ranking", str(demo_ranking), "--kits", "1000"
        )
        assert code == 0
        assert out == golden("allocate_demo.txt")
        assert err == ""

    def test_kits_conserved(self, capsys, demo_ranking):
        code, out, _ = run_cli(
            capsys,
            "allocate",
            "--ranking",
            str(demo_ranking),
            "--kits",
            "777",
            "--json",
        )
        assert code == 0
        doc = json.loads(out)
        assert sum(item["kits"] for item in doc["allocations"]) == 777

    def test_top_k_equal_zeroes_the_tail(self, capsys, demo_ranking):
        code, out, _ = run_cli(
            capsys,
            "allocate",
            "--ranking",
            str(demo_ranking),
            "--kits",
            "1000",
            "--strategy",
            "top_k_equal",
            "--k",
            "3",
            "--json",
        )
        assert code == 0
        kits = [item["kits"] for item in json.loads(out)["allocations"]]
        assert kits[:3] == [334, 333, 333]
        assert all(k == 0 for k in kits[3:])

    def test_zero_kits_exits_2(self, capsys, demo_ranking):
        code, _, err = run_cli(
            capsys, "allocate", "--ranking", str(demo_ranking), "--kits", "0"
        )
        assert code == 2
        assert "total_kits" in err

    def test_missing_ranking_exits_2(self, capsys, tmp_path):
        code, _, err = run_cli(
            capsys, "allocate", "--ranking", str(tmp_path / "none.json"), "--kits", "10"
        )
        assert code == 2
        assert "error:" in err

    @pytest.mark.parametrize("strategy", ["proportional", "rank_weighted", "top_k_equal"])
    def test_infinite_raw_score_exits_2(self, capsys, demo_ranking, strategy):
        doc = json.loads(demo_ranking.read_text(encoding="utf-8"))
        doc["entries"][0]["raw_score"] = float("inf")
        demo_ranking.write_text(json.dumps(doc), encoding="utf-8")
        code, out, err = run_cli(
            capsys, "allocate", "--ranking", str(demo_ranking), "--kits", "10",
            "--strategy", strategy,
        )
        assert code == 2
        assert out == ""
        assert "non-finite or negative raw score" in err

    def test_duplicate_neighborhood_in_ranking_exits_2_naming_it(self, capsys, tmp_path):
        path = tmp_path / "dup.json"
        doc = json.loads(DEMO_WEIGHTS_DOC)
        doc["entries"] = [
            {"neighborhood": "a", "raw_score": 1.0, "scaled_score": 10.0},
            {"neighborhood": "a", "raw_score": 0.5, "scaled_score": 5.0},
        ]
        path.write_text(json.dumps(doc), encoding="utf-8")
        code, out, err = run_cli(capsys, "allocate", "--ranking", str(path), "--kits", "10")
        assert code == 2
        assert out == ""
        assert f"{path}: demo: duplicate neighborhood 'a'" in err


DEMO_WEIGHTS_DOC = json.dumps(
    {
        "city": "demo",
        "weights": {
            "alpha": 0.5,
            "beta": 0.4,
            "gamma": 0.2,
            "variant": "text",
            "source_correlation": 0.4,
            "normalized": False,
        },
    }
)


LATIN1_CSV = (
    "neighborhood,prevalence_per_1000,untested_pct,public_coverage_pct\n"
    "Café,1.0,2.0,3.0\n"
).encode("latin-1")
LATIN1_JSON = '{"runs": [], "city": "Café"}\n'.encode("latin-1")


class TestUndecodableInput:
    @pytest.mark.parametrize(
        "command, payload",
        [
            (["correlate", "--city", "demo", "--input"], LATIN1_CSV),
            (["score", "--city", "demo", "--input"], LATIN1_CSV),
            (["allocate", "--kits", "10", "--ranking"], LATIN1_JSON),
            (["evaluate", "--runs"], LATIN1_JSON),
            (["evaluate", "--targets"], LATIN1_JSON),
        ],
        ids=["correlate", "score", "allocate", "evaluate-runs", "evaluate-targets"],
    )
    def test_non_utf8_file_exits_2_naming_it(self, capsys, tmp_path, command, payload):
        path = tmp_path / "latin1.dat"
        path.write_bytes(payload)
        code, out, err = run_cli(capsys, *command, str(path))
        assert code == 2
        assert out == ""
        assert f"{path}: not UTF-8 text" in err

    def test_non_utf8_alias_file_exits_2_naming_it(self, capsys, tmp_path, monkeypatch):
        path = tmp_path / "aliases.json"
        path.write_bytes(LATIN1_JSON)
        monkeypatch.setenv(ALIAS_ENV_VAR, str(path))
        code, out, err = run_cli(capsys, "evaluate")
        assert code == 2
        assert out == ""
        assert f"{path}: not UTF-8 text" in err


GOOD_HEADER = "neighborhood,prevalence_per_1000,untested_pct,public_coverage_pct"


class TestInputBoundary:
    @pytest.mark.parametrize(
        "command, source",
        [
            (["score", "--city", "demo", "--input"], "demo_csv"),
            (["allocate", "--kits", "1000", "--ranking"], "demo_ranking"),
            (["evaluate", "--runs"], "bundled_runs"),
            (["evaluate", "--targets"], "bundled_targets"),
        ],
        ids=["csv", "ranking", "runs", "targets"],
    )
    def test_byte_order_mark_is_ignored(self, capsys, request, tmp_path, command, source):
        clean = request.getfixturevalue(source)
        marked = tmp_path / f"bom-{clean.name}"
        marked.write_bytes(codecs.BOM_UTF8 + clean.read_bytes())
        expected = run_cli(capsys, *command, str(clean))
        assert expected[0] == 0
        assert run_cli(capsys, *command, str(marked)) == expected

    def test_byte_order_mark_in_alias_file_is_ignored(self, capsys, tmp_path, monkeypatch):
        expected = run_cli(capsys, "evaluate")
        marked = tmp_path / "aliases.json"
        marked.write_bytes(codecs.BOM_UTF8 + resources.aliases_path().read_bytes())
        monkeypatch.setenv(ALIAS_ENV_VAR, str(marked))
        assert run_cli(capsys, "evaluate") == expected

    def test_padded_header_names_are_stripped(self, capsys, write_file, demo_csv):
        lines = demo_csv.read_text(encoding="utf-8").splitlines(keepends=True)
        lines[1] = ",".join(f" {name} " for name in lines[1].rstrip("\n").split(",")) + "\n"
        padded = write_file("".join(lines), "padded.csv")
        expected = run_cli(capsys, "score", "--city", "demo", "--input", str(demo_csv))
        assert run_cli(capsys, "score", "--city", "demo", "--input", str(padded)) == expected

    @pytest.mark.parametrize(
        "rows, message",
        [
            (
                [GOOD_HEADER + ",untested_pct", "Austin,1.0,2.0,3.0,4.0"],
                "[row 1]: duplicate column(s): untested_pct",
            ),
            (
                [GOOD_HEADER, "Austin,1.0,2.0,3.0", "A,1,2,3,4,5"],
                "[row 3]: row has 6 fields, header has 4",
            ),
            (
                [GOOD_HEADER, "Austin,1.0,2.0,3.0", "A,1,2," + "3" * 131_073],
                "[row 3]: unreadable CSV row: field larger than field limit",
            ),
        ],
        ids=["duplicate-column", "over-wide-row", "over-long-field"],
    )
    def test_bad_csv_shape_exits_2_naming_the_row(self, capsys, write_file, rows, message):
        path = write_file("\n".join(rows) + "\n", "bad.csv")
        code, out, err = run_cli(capsys, "score", "--city", "chicago", "--input", str(path))
        assert code == 2
        assert out == ""
        assert message in err

    @pytest.mark.parametrize(
        "separator", ["\f", "\v", "\x1c", "\x1d", "\x1e", "\x85", "\u2028", "\u2029"]
    )
    def test_only_cr_and_lf_end_a_csv_row(self, capsys, tmp_path, separator):
        path = tmp_path / "city.csv"
        text = f"{GOOD_HEADER}\nAlpha{separator}Beta,1,2,3\nGamma,4,5,6\n"
        path.write_text(text, encoding="utf-8", newline="")
        code, out, err = run_cli(capsys, "score", "--city", "chicago", "--input", str(path), "--json")
        assert (code, err) == (0, "")
        assert [entry["neighborhood"] for entry in json.loads(out)["entries"]] == [
            "gamma",
            "alpha beta",
        ]

    def test_row_numbers_count_only_cr_and_lf_lines(self, capsys, tmp_path):
        path = tmp_path / "city.csv"
        text = f"{GOOD_HEADER}\nDelta\u2028Park,7,8,9\nGamma,4,5,6\nBad,x,5,6\n"
        path.write_text(text, encoding="utf-8", newline="")
        code, out, err = run_cli(capsys, "score", "--city", "chicago", "--input", str(path))
        assert (code, out) == (2, "")
        assert f"{path}: error [row 4]: non-numeric value 'x' in column prevalence_per_1000" in err

    @pytest.mark.parametrize("line_end", ["\n", "\r\n", "\r"])
    def test_quoted_name_may_span_lines(self, capsys, tmp_path, line_end):
        path = tmp_path / "city.csv"
        lines = [GOOD_HEADER, '"Hunts Point', 'Mott Haven",1,2,3', "Gamma,4,5,6", "Bad,x,5,6", ""]
        path.write_text(line_end.join(lines), encoding="utf-8", newline="")
        code, out, err = run_cli(capsys, "score", "--city", "nyc", "--input", str(path))
        assert code == 2
        assert f"{path}: error [row 5]: non-numeric value 'x'" in err
        path.write_text(line_end.join(lines[:4] + [""]), encoding="utf-8", newline="")
        code, out, err = run_cli(capsys, "score", "--city", "nyc", "--input", str(path), "--json")
        assert (code, err) == (0, "")
        names = [entry["neighborhood"] for entry in json.loads(out)["entries"]]
        assert names == ["gamma", "hunts point mott haven"]

    def test_huge_integer_raw_score_exits_2(self, capsys, demo_ranking):
        doc = json.loads(demo_ranking.read_text(encoding="utf-8"))
        doc["entries"][0]["raw_score"] = 10**400
        demo_ranking.write_text(json.dumps(doc), encoding="utf-8")
        code, out, err = run_cli(capsys, "allocate", "--ranking", str(demo_ranking), "--kits", "10")
        assert code == 2
        assert out == ""
        assert f"{demo_ranking}: malformed ranking document" in err

    @pytest.mark.parametrize(
        "payload", ["{broken", "[" * 100_000, "1" * 5_000], ids=["syntax", "deep", "long-int"]
    )
    @pytest.mark.parametrize("reader", ["--runs", "--targets", "--ranking", "aliases"])
    def test_malformed_json_exits_2_naming_the_file(
        self, capsys, tmp_path, monkeypatch, reader, payload
    ):
        path = tmp_path / "bad.json"
        path.write_text(payload, encoding="utf-8")
        if reader == "aliases":
            monkeypatch.setenv(ALIAS_ENV_VAR, str(path))
            command = ["evaluate"]
        elif reader == "--ranking":
            command = ["allocate", "--kits", "10", reader, str(path)]
        else:
            command = ["evaluate", reader, str(path)]
        code, out, err = run_cli(capsys, *command)
        assert code == 2
        assert out == ""
        assert f"{path}: malformed JSON" in err

    @pytest.mark.parametrize(
        "section, key, value, message",
        [
            ("entry", "neighborhood", {"x": 1}, "'neighborhood' must be a JSON string"),
            ("entry", "neighborhood", 7, "'neighborhood' must be a JSON string"),
            ("document", "city", ["a"], "'city' must be a JSON string"),
            ("weights", "normalized", "false", "'normalized' must be a JSON boolean"),
            ("entry", "raw_score", str, "'raw_score' must be a JSON number"),
            ("entry", "scaled_score", True, "'scaled_score' must be a JSON number"),
            ("weights", "alpha", str, "'alpha' must be a JSON number"),
        ],
        ids=["name-object", "name-number", "city-list", "normalized-string", "score-string",
             "score-boolean", "weight-string"],
    )
    def test_ranking_field_of_wrong_json_type_exits_2(
        self, capsys, demo_ranking, section, key, value, message
    ):
        doc = json.loads(demo_ranking.read_text(encoding="utf-8"))
        target = {"document": doc, "weights": doc["weights"], "entry": doc["entries"][-1]}[section]
        target[key] = value(target[key]) if callable(value) else value
        demo_ranking.write_text(json.dumps(doc), encoding="utf-8")
        code, out, err = run_cli(capsys, "allocate", "--ranking", str(demo_ranking), "--kits", "10")
        assert code == 2
        assert out == ""
        assert f"{demo_ranking}: malformed ranking document: {message}" in err

    def test_csv_row_error_names_the_file(self, capsys, write_file):
        path = write_file(GOOD_HEADER + "\nAustin,1.0,2.0,3.0\nA,1,2,3,4,5\n", "wide.csv")
        code, out, err = run_cli(capsys, "score", "--city", "chicago", "--input", str(path))
        assert code == 2
        assert out == ""
        assert f"{path}: error [row 3]: row has 6 fields, header has 4" in err

    def test_run_error_names_the_file(self, capsys, write_file, bundled_targets):
        runs = write_file('{"runs": [{"mode": "chat", "cities": {}}]}', "runs.json")
        code, out, err = run_cli(
            capsys, "evaluate", "--runs", str(runs), "--targets", str(bundled_targets)
        )
        assert code == 2
        assert out == ""
        assert f"{runs}: error: runs[0]: missing model field" in err

    def test_alias_lists_must_hold_names(self, capsys, write_file, monkeypatch):
        monkeypatch.setenv(ALIAS_ENV_VAR, str(write_file('{"austin": 5}', "aliases.json")))
        code, out, err = run_cli(capsys, "evaluate")
        assert code == 2
        assert out == ""
        assert "expected a JSON object of name lists" in err

    @pytest.mark.parametrize(
        "aliases",
        [{"": ["x"]}, {"a": ["b"], "c": ["b"]}, {"old town": ["new town"], "new town": ["x"]}],
        ids=["empty-name", "alias-of-two-names", "chained"],
    )
    def test_rejected_alias_table_names_the_file(self, capsys, write_file, monkeypatch, aliases):
        path = write_file(json.dumps(aliases), "aliases.json")
        monkeypatch.setenv(ALIAS_ENV_VAR, str(path))
        code, out, err = run_cli(capsys, "evaluate")
        assert code == 2
        assert out == ""
        assert err.startswith(f"error: alias file {path}: ")


def test_score_streams_its_table(tmp_path, monkeypatch):
    # At 20,000 rows, holding every formatted table row at once as a list of
    # string tuples peaks at about 18 MB under tracemalloc; the streamed
    # table leaves the peak to parsing and scoring, at about 13 MB.
    path = tmp_path / "city.csv"
    rows = (f"area {i},{i % 41 / 2},{5 + i % 61},{min(100, i % 41 + i % 7)}\n" for i in range(20_000))
    path.write_text(GOOD_HEADER + "\n" + "".join(rows), encoding="utf-8")
    with open(os.devnull, "w", encoding="utf-8") as devnull:
        monkeypatch.setattr(sys, "stdout", devnull)
        tracemalloc.start()
        try:
            code = main(["score", "--city", "chicago", "--input", str(path)])
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
    assert code == 0
    assert peak < 15_000_000


def test_allocate_streams_its_table(monkeypatch):
    # The ranking is built before tracing starts, so the peak is the plan
    # and the table. At 20,000 entries, holding every formatted table row at
    # once as a list of string tuples peaks at about 5.4 MB under tracemalloc;
    # the columns are views of the plan, and the peak is about 1.9 MB.
    ranking = ranking_from_scores({f"area {i:05d}": 1 - i / 20_000 for i in range(20_000)})
    monkeypatch.setattr(cli, "parse_ranking", lambda path: ranking)
    argv = ["allocate", "--ranking", "ranking.json", "--kits", "50000", "--strategy",
            "top_k_equal", "--k", "2000"]
    with open(os.devnull, "w", encoding="utf-8") as devnull:
        monkeypatch.setattr(sys, "stdout", devnull)
        tracemalloc.start()
        try:
            code = main(argv)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
    assert code == 0
    assert peak < 3_000_000


def test_allocate_json_holds_the_ranking_once(tmp_path, monkeypatch):
    # The ranking is read from its file inside the traced call. At 20,000
    # entries, decoding the whole document into dicts before building the
    # entries, and keeping the proportional weights' (numerator, denominator)
    # pairs while apportioning, peaks at 9.4-9.7 MB under tracemalloc;
    # without either, the peak is 7.2-7.5 MB.
    path = tmp_path / "ranking.json"
    write_ranking(ranking_from_scores({f"area {i:05d}": 1 - i / 20_000 for i in range(20_000)}),
                  path)
    argv = ["allocate", "--ranking", str(path), "--kits", "50000", "--json"]
    with open(os.devnull, "w", encoding="utf-8") as devnull:
        monkeypatch.setattr(sys, "stdout", devnull)
        tracemalloc.start()
        try:
            code = main(argv)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
    assert code == 0
    assert peak < 8_500_000


class TestParserBasics:
    def test_no_command_exits_2(self, capsys):
        assert main([]) == 2
        assert "usage" in capsys.readouterr().err

    def test_unknown_command_exits_2(self, capsys):
        assert main(["frobnicate"]) == 2

    def test_version_exits_0(self, capsys):
        assert main(["--version"]) == 0
        assert "leadalloc 0.1.0" in capsys.readouterr().out

    def test_module_invocation_subprocess(self, golden):
        # The child imports the same leadalloc as this test, installed or not.
        package_root = str(Path(leadalloc.__file__).resolve().parents[1])
        search_path = os.pathsep.join(filter(None, [package_root, os.environ.get("PYTHONPATH")]))
        result = subprocess.run(
            [sys.executable, "-m", "leadalloc", "evaluate"],
            capture_output=True,
            text=True,
            timeout=60,
            env={**os.environ, "PYTHONPATH": search_path},
        )
        assert result.returncode == 0
        assert result.stdout == golden("evaluate_table.txt")

    @pytest.mark.parametrize(
        ("rows", "lines_read"),
        # 10^4 rows make a table far larger than a pipe's buffer, so the child is
        # still writing when the reader stops, as `| head -1`. A 3-row table fits
        # stdout's buffer, so it fails only on the last flush, as with `| true`.
        [(10_000, 1), (3, 0)],
    )
    def test_a_reader_that_closes_stdout_early_is_not_an_error(self, tmp_path, rows, lines_read):
        body = "".join(f"area {i},{i % 97}.5,{i % 89},{i % 83}\n" for i in range(rows))
        path = tmp_path / "city.csv"
        path.write_text(f"{','.join(CORE_COLUMNS)}\n{body}", encoding="utf-8")
        package_root = str(Path(leadalloc.__file__).resolve().parents[1])
        child = subprocess.Popen(
            [sys.executable, "-m", "leadalloc", "score", "--input", str(path), "--city", "chicago"],
            stdout=subprocess.PIPE,
            stderr=subprocess.PIPE,
            text=True,
            # Buffered stdout, as in a shell, whatever this process was given.
            env={**os.environ, "PYTHONPATH": package_root, "PYTHONUNBUFFERED": ""},
        )
        try:
            for _ in range(lines_read):
                assert child.stdout.readline().startswith("city: chicago")
            child.stdout.close()
            stderr = child.stderr.read()
            assert child.wait(timeout=60) == 0, stderr
        finally:
            child.kill()
            child.wait()
            child.stderr.close()
        assert "error:" not in stderr and "Exception ignored" not in stderr

    def test_import_loads_no_start_up_heavy_modules(self):
        # dataclasses (with inspect, ast, dis and tokenize), fractions (with
        # decimal) and importlib.resources cost about 30 ms of start-up that no
        # command needs to begin; array, about 0.6 ms, is for building columns.
        heavy = (
            "dataclasses", "inspect", "fractions", "decimal", "importlib.resources", "array"
        )
        package_root = str(Path(leadalloc.__file__).resolve().parents[1])
        probe = f"import sys, leadalloc.cli; print(*[m for m in {heavy!r} if m in sys.modules])"
        result = subprocess.run(
            [sys.executable, "-S", "-c", probe],
            capture_output=True,
            text=True,
            timeout=60,
            env={**os.environ, "PYTHONPATH": package_root},
        )
        assert result.returncode == 0, result.stderr
        assert result.stdout.split() == []

    @pytest.mark.parametrize("enabled_before", [True, False])
    @pytest.mark.parametrize("outcome", [0, LeadAllocError("bad input"), ValueError("bug")])
    def test_subcommand_runs_without_cyclic_gc_and_restores_it(
        self, monkeypatch, capsys, enabled_before, outcome
    ):
        seen = []

        def command(args):
            seen.append(gc.isenabled())
            if isinstance(outcome, Exception):
                raise outcome
            return outcome

        monkeypatch.setattr(cli, "cmd_evaluate", command)
        (gc.enable if enabled_before else gc.disable)()
        try:
            code = main(["evaluate"])
            assert gc.isenabled() is enabled_before
        finally:
            gc.enable()
        assert seen == [False]
        assert code == {int: 0, LeadAllocError: 2, ValueError: 1}[type(outcome)]
