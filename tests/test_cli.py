"""End-to-end command-line behavior: golden outputs and exit codes."""

from __future__ import annotations

import codecs
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import leadalloc
from leadalloc import cli, resources
from leadalloc.cli import ALIAS_ENV_VAR, main
from leadalloc.ingest import parse_ranking


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
