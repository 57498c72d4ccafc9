"""End-to-end command-line behavior: golden outputs and exit codes."""

from __future__ import annotations

import codecs
import json
import math
import os
import subprocess
import sys
import tracemalloc
from pathlib import Path

import pytest

import leadalloc
from helpers import ranking_from_scores
from leadalloc import cli, evaluation, resources
from leadalloc.cli import ALIAS_ENV_VAR, main
from leadalloc.ingest import parse_ranking, write_ranking
from leadalloc.model import CORE_COLUMNS


GOLDEN = Path(__file__).parent / "golden"


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
        line = f"error: {path}: /Chicago: keys 'chicago' and 'Chicago' both name city 'chicago'"
        assert err == line + "\n"

    def test_blank_target_city_key_exits_2(self, capsys, write_file):
        path = write_file(
            json.dumps({" ": ["west englewood"], "chicago": ["west englewood"]}), "targets.json"
        )
        code, out, err = run_cli(capsys, "evaluate", "--targets", str(path))
        assert code == 2
        assert out == ""
        assert err == f"error: {path}: / : key ' ' names no city\n"

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

        monkeypatch.setattr(evaluation, "build_report", boom)
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
        assert err == f"warning: {path}: row 2: row excluded: missing untested_pct\n"
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
        assert f"error: {path}: row 3: '123' is not a 5-digit ZIP code\n" in err


class TestScore:
    def test_demo_table_matches_golden(self, capsys, golden, demo_csv):
        code, out, err = run_cli(
            capsys, "score", "--input", str(demo_csv), "--city", "demo"
        )
        assert code == 0
        assert out == golden("score_demo.txt")
        assert err == ""

    def test_demo_json_matches_golden(self, capsys, golden, demo_csv):
        code, out, err = run_cli(
            capsys, "score", "--input", str(demo_csv), "--city", "demo", "--json"
        )
        assert code == 0
        assert out == golden("score_demo.json")
        assert err == ""

    @pytest.mark.parametrize(
        ("flags", "expected"),
        [((), "score_bad_rows.err"), (("--strict",), "score_bad_rows_strict.err")],
    )
    def test_fault_matrix_reports_each_row_at_its_first_fault(
        self, capsys, golden, tmp_path, monkeypatch, flags, expected
    ):
        # One row per way a row can fail, and three names seen twice: a
        # kept name (a repeat), a name first excluded for a bad cell and one
        # first excluded for too many fields (neither a repeat). The goldens
        # name the file bad.csv, as the installed-package check runs it.
        (tmp_path / "bad.csv").write_bytes((GOLDEN / "score_bad_rows.csv").read_bytes())
        monkeypatch.chdir(tmp_path)
        code, out, err = run_cli(capsys, "score", "--input", "bad.csv", "--city", "chicago", *flags)
        assert (code, out, err) == (2, "", golden(expected))

    def test_zip_rows_report_a_non_zip_name_and_a_repeated_zip(self, capsys, write_file):
        path = write_file(
            """
            neighborhood,prevalence_per_1000,untested_pct,public_coverage_pct
            20001,4.0,50.0,40.0
            Capitol Hill,5.0,60.0,30.0
            20002,3.0,40.0,50.0
            20001,6.0,55.0,45.0
            Capitol Hill,5.0,60.0,30.0
            """,
            "dc.csv",
        )
        code, out, err = run_cli(capsys, "score", "--input", str(path), "--city", "dc")
        assert (code, out) == (2, "")
        # The second 'capitol hill' is no repeat: its first row was not kept.
        assert err == (
            f"error: {path}: row 3: 'capitol hill' is not a 5-digit ZIP code\n"
            f"error: {path}: row 5: duplicate neighborhood '20001' (first seen at row 2)\n"
            f"error: {path}: row 6: 'capitol hill' is not a 5-digit ZIP code\n"
        )

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
        assert ranking.scaled_scores[0] == 10.0

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

    @pytest.mark.parametrize(
        ("flags", "message"),
        [
            (["--alpha", "2"], "alpha must be in (0, 1), got 2.0"),
            # Checked after normalizing, these weights would sum to 0.0 and divide by it.
            (
                ["--alpha", "2", "--r-override", "0.5", "--normalize-weights"],
                "alpha must be in (0, 1), got 2.0",
            ),
            (["--r-override", "1.5"], "source correlation must lie in [-1, 1], got 1.5"),
        ],
    )
    def test_weight_limits_read_as_in_a_ranking_file(
        self, capsys, demo_csv, demo_ranking, flags, message
    ):
        code, out, err = run_cli(
            capsys, "score", "--input", str(demo_csv), "--city", "demo", *flags
        )
        assert (code, out, err) == (2, "", f"error: {message}\n")
        doc = json.loads(demo_ranking.read_text(encoding="utf-8"))
        doc["weights"]["alpha"] = 2.0 if "--alpha" in flags else 0.5
        doc["weights"]["source_correlation"] = 1.5 if "--r-override" in flags else 0.5
        demo_ranking.write_text(json.dumps(doc), encoding="utf-8")
        code, out, err = run_cli(capsys, "allocate", "--ranking", str(demo_ranking), "--kits", "9")
        assert (code, out, err) == (2, "", f"error: {demo_ranking}: /weights: {message}\n")

    def test_normalized_weights_no_derivation_gives_exit_2(self, capsys, demo_csv, tmp_path):
        path = tmp_path / "normalized.json"
        argv = ["score", "--input", str(demo_csv), "--city", "demo", "--normalize-weights"]
        assert run_cli(capsys, *argv, "--out", str(path))[0] == 0
        assert run_cli(capsys, "allocate", "--ranking", str(path), "--kits", "10")[0] == 0
        # They sum to 1, but no alpha gives them at the demo's r.
        doc = json.loads(path.read_text(encoding="utf-8"))
        doc["weights"].update(alpha=0.5, beta=0.5, gamma=0.0)
        path.write_text(json.dumps(doc), encoding="utf-8")
        code, out, err = run_cli(capsys, "allocate", "--ranking", str(path), "--kits", "10")
        assert (code, out) == (2, "")
        assert err.count("\n") == 1
        assert err.startswith(
            f"error: {path}: /weights: weights (alpha=0.5, beta=0.5, gamma=0.0, normalized=True) "
            "do not follow the text derivation rule for r="
        )

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
        assert err == (
            f"warning: {path}: degenerate column prevalence_per_1000: all 2 values equal 5.0; "
            "normalized to 0\n"
        )
        assert "warning" not in out


class TestDataQualityWarnings:
    """A ``DataQualityWarning`` is one stderr line naming the file read, and its column.

    The degenerate-column and negative-correlation lines are also pinned by
    ``TestScore.test_degenerate_columns_warn_on_stderr`` and
    ``TestFiniteExtremes.test_score_with_a_subnormal_prevalence``.
    """

    def test_all_zero_scores_follow_each_degenerate_column(self, capsys, write_file):
        path = write_file(GOOD_HEADER + "\na,5,20,30\nb,5,20,30\n", "zero.csv")
        code, out, err = run_cli(
            capsys, "score", "--input", str(path), "--city", "demo", "--r-override", "0.6"
        )
        assert code == 0 and out
        assert err.splitlines() == [
            *(
                f"warning: {path}: degenerate column {column}: all 2 values equal {value}; "
                "normalized to 0"
                for column, value in zip(CORE_COLUMNS[1:], ("5.0", "20.0", "30.0"))
            ),
            f"warning: {path}: demo: all raw priority scores are zero; scaled scores set to 0",
        ]

    @pytest.mark.parametrize(("k", "expected"), [
        (10, ""),  # k equal to the ranking's length truncates nothing
        (99, "warning: {}: k=99 exceeds the 10 ranked neighborhoods; truncated to 10\n"),
    ])
    def test_k_beyond_the_ranking(self, capsys, demo_ranking, k, expected):
        code, out, err = run_cli(
            capsys, "allocate", "--ranking", str(demo_ranking), "--kits", "1000",
            "--strategy", "top_k_equal", "--k", str(k),
        )
        assert code == 0 and out
        assert err == expected.format(demo_ranking)


class TestAllocate:
    def test_demo_table_matches_golden(self, capsys, golden, demo_ranking):
        code, out, err = run_cli(
            capsys, "allocate", "--ranking", str(demo_ranking), "--kits", "1000"
        )
        assert code == 0
        assert out == golden("allocate_demo.txt")
        assert err == ""

    def test_demo_json_matches_golden(self, capsys, golden, demo_ranking):
        code, out, err = run_cli(
            capsys, "allocate", "--ranking", str(demo_ranking), "--kits", "1000", "--json"
        )
        assert code == 0
        assert out == golden("allocate_demo.json")
        assert err == ""

    @pytest.mark.parametrize(
        ("flags", "expected"),
        [
            # The default --k, so the even split 334/333/333 pins DEFAULT_TOP_K.
            (("--strategy", "top_k_equal"), "allocate_demo_top_k_equal.txt"),
            (("--strategy", "rank_weighted", "--floor", "2", "--json"),
             "allocate_demo_rank_weighted.json"),
        ],
    )
    def test_demo_strategy_matches_golden(self, capsys, golden, demo_ranking, flags, expected):
        code, out, err = run_cli(
            capsys, "allocate", "--ranking", str(demo_ranking), "--kits", "1000", *flags
        )
        assert (code, out, err) == (0, golden(expected), "")

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

    def test_doubled_top_raw_score_exits_2_naming_the_entry(self, capsys, demo_ranking):
        # Every old scaled-score rule holds, but 10 × raw / top raw no longer does.
        doc = json.loads(demo_ranking.read_text(encoding="utf-8"))
        top = doc["entries"][0]
        top["raw_score"] *= 2
        demo_ranking.write_text(json.dumps(doc), encoding="utf-8")
        code, out, err = run_cli(
            capsys, "allocate", "--ranking", str(demo_ranking), "--kits", "1000"
        )
        assert code == 2
        assert out == ""
        name = doc["entries"][1]["neighborhood"]
        prefix = (
            f"error: {demo_ranking}: /entries/1/scaled_score: demo: scaled_score of {name!r} is "
        )
        assert err.startswith(prefix)
        assert err.count("\n") == 1

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
        assert err == f"error: {path}: /entries/1: demo: duplicate neighborhood 'a'\n"


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


class TestFiniteExtremes:
    """Any finite values are scored and correlated: a correlation is never an internal error."""

    def test_score_with_the_largest_prevalences(self, capsys, write_file):
        # fsum overflowed summing the prevalence column: exit 1.
        rows = "\na,1.7e308,10,20\nb,1.7e308,20,30\nc,1,30,10\n"
        path = write_file(GOOD_HEADER + rows)
        code, out, err = run_cli(
            capsys, "score", "--input", str(path), "--city", "demo", "--json"
        )
        assert (code, err) == (0, "")
        r = json.loads(out)["weights"]["source_correlation"]
        assert r == pytest.approx(math.sqrt(3) / 2, abs=1e-15)

    def test_correlate_an_extra_factor_of_largest_magnitude(self, capsys, write_file):
        # pow overflowed squaring a deviation: exit 1.
        rows = "\na,1,10,20,1e308\nb,2,20,30,-1e308\nc,3,30,10,0\n"
        path = write_file(GOOD_HEADER + ",f" + rows)
        code, out, err = run_cli(
            capsys, "correlate", "--input", str(path), "--city", "demo", "--json",
            "--factors", "f",
        )
        assert (code, err) == (0, "")
        assert json.loads(out)["correlations"] == [{"factor": "f", "r": -0.5, "n": 3}]

    def test_score_with_a_subnormal_prevalence(self, capsys, write_file):
        # The squared deviations underflowed, and a varying column read as constant: exit 2.
        rows = "\na,5e-324,10,10\nb,0,20,30\nc,0,30,20\n"
        path = write_file(GOOD_HEADER + rows)
        code, out, err = run_cli(
            capsys, "score", "--input", str(path), "--city", "demo", "--json"
        )
        assert code == 0
        r = json.loads(out)["weights"]["source_correlation"]
        assert err == f"warning: {path}: negative correlation {r} clamped to 0 for weight derivation\n"
        assert r == pytest.approx(-math.sqrt(3) / 2, abs=1e-15)


class TestInputBoundary:
    @pytest.mark.parametrize(
        ("command", "header", "rows", "column"),
        [
            ("correlate", GOOD_HEADER + ",f", "a,1,10,20,5\nb,2,20,30,5\nc,4,30,10,5", "f"),
            ("score", GOOD_HEADER, "a,1,10,40\nb,2,20,40\nc,4,30,40", "public_coverage_pct"),
        ],
    )
    def test_a_constant_column_names_its_pair_and_the_file(
        self, capsys, write_file, command, header, rows, column
    ):
        path = write_file(f"{header}\n{rows}\n", "flat.csv")
        code, out, err = run_cli(capsys, command, "--input", str(path), "--city", "demo")
        message = f"{column} vs prevalence_per_1000: zero variance makes correlation undefined"
        assert (code, out, err) == (2, "", f"error: {path}: {message}\n")

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

    def test_front_matter_before_the_header_is_skipped(self, capsys, golden, demo_csv, tmp_path):
        fronted = tmp_path / "fronted.csv"
        front = b"# note\n\n   \n# unit=percent\n"
        fronted.write_bytes(codecs.BOM_UTF8 + front + demo_csv.read_bytes())
        expected = (0, golden("score_demo.txt"), "")
        assert run_cli(capsys, "score", "--city", "demo", "--input", str(fronted)) == expected

    def test_blank_lines_after_the_header_are_skipped(self, capsys, golden, demo_csv, tmp_path):
        lines = demo_csv.read_bytes().splitlines(keepends=True)
        spaced = tmp_path / "spaced.csv"
        spaced.write_bytes(b"".join([*lines[:3], b"   \n", *lines[3:], b"\t\n"]))
        argv = ("score", "--city", "demo", "--input", str(spaced), "--strict")
        assert run_cli(capsys, *argv) == (0, golden("score_demo.txt"), "")

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
                "row 1: duplicate column(s): untested_pct",
            ),
            (
                [GOOD_HEADER, "Austin,1.0,2.0,3.0", "A,1,2,3,4,5"],
                "row 3: row has 6 fields, header has 4",
            ),
            (
                [GOOD_HEADER, "Austin,1.0,2.0,3.0", "A,1,2," + "3" * 131_073],
                "row 3: unreadable CSV row: field larger than field limit",
            ),
        ],
        ids=["duplicate-column", "over-wide-row", "over-long-field"],
    )
    def test_bad_csv_shape_exits_2_naming_the_row(self, capsys, write_file, rows, message):
        path = write_file("\n".join(rows) + "\n", "bad.csv")
        code, out, err = run_cli(capsys, "score", "--city", "chicago", "--input", str(path))
        assert code == 2
        assert out == ""
        assert f"error: {path}: {message}" in err

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
        assert err == f"error: {path}: row 4: non-numeric value 'x' in column prevalence_per_1000\n"

    @pytest.mark.parametrize("line_end", ["\n", "\r\n", "\r"])
    def test_quoted_name_may_span_lines(self, capsys, tmp_path, line_end):
        path = tmp_path / "city.csv"
        lines = [GOOD_HEADER, '"Hunts Point', 'Mott Haven",1,2,3', "Gamma,4,5,6", "Bad,x,5,6", ""]
        path.write_text(line_end.join(lines), encoding="utf-8", newline="")
        code, out, err = run_cli(capsys, "score", "--city", "nyc", "--input", str(path))
        assert code == 2
        assert f"error: {path}: row 5: non-numeric value 'x'" in err
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
        assert err == (
            f"error: {demo_ranking}: /entries/0/raw_score: must fit in a float, "
            f"got {str(10**400)[:40]}\n"
        )

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
        "section, key, value, line",
        [
            ("entry", "neighborhood", {"x": 1}, "/entries/9/neighborhood: must be a JSON string"),
            ("entry", "neighborhood", 7, "/entries/9/neighborhood: must be a JSON string, got 7"),
            ("document", "city", ["a"], "/city: must be a JSON string, got ['a']"),
            ("weights", "normalized", "false", "/weights/normalized: must be a JSON boolean"),
            ("entry", "raw_score", str, "/entries/9/raw_score: must be a JSON number, got '"),
            ("entry", "scaled_score", True, "/entries/9/scaled_score: must be a JSON number"),
            ("weights", "alpha", str, "/weights/alpha: must be a JSON number"),
            ("document", "entries", {"a": 1}, "/entries: must be a JSON array, got {'a': 1}"),
            ("document", "entries", "abc", "/entries: must be a JSON array, got 'abc'"),
            ("document", "entries", None, "/entries: must be a JSON array, got None"),
            ("document", "entries", 5, "/entries: must be a JSON array, got 5"),
            ("document", "weights", 5, "/weights: must be a JSON object, got 5"),
            ("entries", 9, "x", "/entries/9: must be a JSON object, got 'x'"),
            ("entry", "neighborhood", None, "/entries/9/neighborhood: missing"),
        ],
        ids=["name-object", "name-number", "city-list", "normalized-string", "score-string",
             "score-boolean", "weight-string", "entries-object", "entries-string",
             "entries-null", "entries-number", "weights-number", "entry-string",
             "name-missing"],
    )
    def test_ranking_field_of_wrong_json_type_exits_2(
        self, capsys, demo_ranking, section, key, value, line
    ):
        doc = json.loads(demo_ranking.read_text(encoding="utf-8"))
        assert len(doc["entries"]) == 10
        target = {
            "document": doc, "weights": doc["weights"], "entries": doc["entries"],
            "entry": doc["entries"][-1],
        }[section]
        if value is None and line.endswith("missing"):
            del target[key]
        else:
            target[key] = value(target[key]) if callable(value) else value
        demo_ranking.write_text(json.dumps(doc), encoding="utf-8")
        code, out, err = run_cli(capsys, "allocate", "--ranking", str(demo_ranking), "--kits", "10")
        assert code == 2
        assert out == ""
        assert err.startswith(f"error: {demo_ranking}: {line}")
        assert err.count("\n") == 1

    @pytest.mark.parametrize(
        "reader, doc, line",
        [
            ("--runs", {"runs": [{"model": 5, "mode": "d", "cities": {}}]},
             "/runs/0/model: must be a JSON string, got 5"),
            ("--runs", {"runs": [{"model": "m", "mode": " ", "cities": {}}]},
             "/runs/0/mode: mode must not be blank"),
            ("--runs", {"runs": [{"model": "m", "mode": "d", "cities": []}]},
             "/runs/0/cities: must be a JSON object, got []"),
            ("--runs", {"runs": [{"model": "m", "mode": "d", "cities": {"x": [{"kits": 1}]}}]},
             "/runs/0/cities/x/0/neighborhood: missing"),
            ("--runs", {"runs": [{"model": "m", "mode": "d", "cities": {"x": [["a", 1]]}}]},
             "/runs/0/cities/x/0: must be a JSON object, got ['a', 1]"),
            ("--runs", {"runs": "nope"}, "/runs: must be a JSON array, got 'nope'"),
            ("--runs", [], "must be a JSON object, got []"),
            ("--targets", {"chicago": 5}, "/chicago: must be a JSON array, got 5"),
            ("--targets", {"chicago": ["austin", 42]}, "/chicago/1: must be a JSON string, got 42"),
            ("--targets", ["chicago"], "must be a JSON object, got ['chicago']"),
            ("aliases", {"austin": 5}, "/austin: must be a JSON array, got 5"),
            ("aliases", {"austin": ["a", None]}, "/austin/1: must be a JSON string, got None"),
            ("aliases", ["austin"], "must be a JSON object, got ['austin']"),
        ],
        ids=["runs-model-number", "runs-mode-blank", "runs-cities-array", "runs-name-missing",
             "runs-recommendation-array", "runs-string", "runs-document-array",
             "targets-number", "targets-name-number", "targets-document-array",
             "aliases-number", "aliases-name-null", "aliases-document-array"],
    )
    def test_json_field_of_wrong_type_exits_2_at_its_pointer(
        self, capsys, write_file, monkeypatch, reader, doc, line
    ):
        path = write_file(json.dumps(doc), "input.json")
        if reader == "aliases":
            monkeypatch.setenv(ALIAS_ENV_VAR, str(path))
            command = ["evaluate"]
        else:
            command = ["evaluate", reader, str(path)]
        code, out, err = run_cli(capsys, *command)
        assert (code, out) == (2, "")
        assert err == f"error: {path}: {line}\n"

    @pytest.mark.parametrize(
        "reader, doc, line",
        [
            (
                "--runs",
                {"runs": [{"model": "m", "mode": "d",
                           "cities": {"a/b~c": [{"neighborhood": "Austin", "kits": -1}]}}]},
                "/runs/0/cities/a~1b~0c/0/kits: negative kits for 'austin': -1",
            ),
            ("--targets", {"a/b~c": []}, "/a~1b~0c: target set for 'a/b~c' is empty"),
            ("--targets", {"~1/": ["austin", 5]}, "/~01~1/1: must be a JSON string, got 5"),
        ],
        ids=["runs", "targets", "targets-escape-order"],
    )
    def test_pointer_escapes_tilde_then_slash(self, capsys, write_file, reader, doc, line):
        path = write_file(json.dumps(doc), "input.json")
        code, out, err = run_cli(capsys, "evaluate", reader, str(path))
        assert (code, out) == (2, "")
        assert err == f"error: {path}: {line}\n"

    def test_csv_row_error_names_the_file(self, capsys, write_file):
        path = write_file(GOOD_HEADER + "\nAustin,1.0,2.0,3.0\nA,1,2,3,4,5\n", "wide.csv")
        code, out, err = run_cli(capsys, "score", "--city", "chicago", "--input", str(path))
        assert code == 2
        assert out == ""
        assert err == f"error: {path}: row 3: row has 6 fields, header has 4\n"

    def test_rejected_csv_prints_its_warnings_among_its_errors_in_row_order(
        self, capsys, write_file
    ):
        rows = "\nAustin,1.0,200,3.0\nLoop,2.0,,4.0\nHyde Park,x,5,6\n"
        path = write_file(GOOD_HEADER + rows, "c.csv")
        code, out, err = run_cli(capsys, "score", "--city", "chicago", "--input", str(path))
        assert (code, out) == (2, "")
        assert err.splitlines() == [
            f"error: {path}: row 2: untested_pct out of range [0, 100], got 200.0",
            f"warning: {path}: row 3: row excluded: missing untested_pct",
            f"error: {path}: row 4: non-numeric value 'x' in column prevalence_per_1000",
        ]

    def test_run_error_names_the_file(self, capsys, write_file, bundled_targets):
        runs = write_file('{"runs": [{"mode": "chat", "cities": {}}]}', "runs.json")
        code, out, err = run_cli(
            capsys, "evaluate", "--runs", str(runs), "--targets", str(bundled_targets)
        )
        assert code == 2
        assert out == ""
        assert err == f"error: {runs}: /runs/0/model: missing\n"

    def test_alias_lists_must_hold_names(self, capsys, write_file, monkeypatch):
        path = write_file('{"austin": ["a", 5]}', "aliases.json")
        monkeypatch.setenv(ALIAS_ENV_VAR, str(path))
        code, out, err = run_cli(capsys, "evaluate")
        assert code == 2
        assert out == ""
        assert err == f"error: {path}: /austin/1: must be a JSON string, got 5\n"

    @pytest.mark.parametrize(
        "aliases, line",
        [
            ({"": ["x"]}, "/: name is empty after normalization: ''"),
            ({"a": ["b"], "c": ["b"]}, "/c/0: alias 'b' maps to both 'a' and 'c'"),
            ({"a": ["b", "-"]}, "/a/1: name is empty after normalization: '-'"),
            (
                {"old town": ["new town"], "new town": ["x"]},
                "/new town: canonical names also appear as aliases (chained mapping): ['new town']",
            ),
            (
                {"mill east": ["mill-e"], "mill e": ["x"]},
                "/mill e: canonical names also appear as aliases (chained mapping): ['mill e']",
            ),
        ],
        ids=[
            "empty-name", "alias-of-two-names", "empty-alias", "chained", "chained-once-canonical"
        ],
    )
    def test_rejected_alias_table_names_the_file(
        self, capsys, write_file, monkeypatch, aliases, line
    ):
        path = write_file(json.dumps(aliases), "aliases.json")
        monkeypatch.setenv(ALIAS_ENV_VAR, str(path))
        code, out, err = run_cli(capsys, "evaluate")
        assert code == 2
        assert out == ""
        assert err == f"error: {path}: {line}\n"


def test_score_streams_its_table(tmp_path, monkeypatch):
    # At 20,000 rows, holding every formatted table row at once as a list of
    # string tuples peaks at about 14 MB under tracemalloc. The streamed
    # table holds only the ranking, the dataset and three arrays of the
    # dataset's metrics in rank order, and the peak is about 4.7 MB.
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
    assert peak < 9_000_000


def test_allocate_streams_its_table(monkeypatch):
    # The ranking is built before tracing starts, so the peak is the plan
    # and the table. At 20,000 entries, holding every formatted table row at
    # once as a list of string tuples peaks at about 4.7 MB under tracemalloc.
    # The streamed table holds only the plan's columns and one array of
    # cumulative shares, and the peak is about 0.6 MB.
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


# The names the package imported from its submodules before it loaded them lazily,
# less the three row types since removed.
EAGER_EXPORTS = (
    "allocate", "largest_remainder",
    "DataQualityWarning", "DatasetValidationError", "DomainValidationError", "InvalidNameError",
    "LeadAllocError", "UndefinedCorrelationError", "UnknownCityError",
    "AccuracyReport", "RunAccuracy", "build_report", "city_hits", "format_report_table",
    "report_to_dict", "truncate_display",
    "ValidationIssue", "ValidationReport", "parse_city_dataset", "parse_model_runs",
    "parse_ranking", "parse_targets", "write_ranking",
    "AliasTable", "AllocationPlan", "CityDataset", "CityProfile", "ModelRun", "PriorityRanking",
    "Recommendation", "Strategy", "TargetSet", "UnitKind", "WeightConfig", "WeightVariant",
    "canonicalize_name", "city_profile", "register_city",
    "derive_weights", "score_city", "top_k",
    "CorrelationResult", "correlate_factors", "min_max_normalize", "pearson", "spearman",
)


def loaded_after(statement: str, modules: tuple[str, ...]) -> str:
    """A probe that runs ``statement``, stdout silenced, then prints which ``modules`` it loaded."""
    return (
        "import os, sys, leadalloc.cli\n"
        "with open(os.devnull, 'w') as sys.stdout:\n"
        f"    {statement}\n"
        f"print(*[m for m in {modules!r} if m in sys.modules], file=sys.__stdout__)"
    )


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

    @pytest.mark.parametrize(
        "probe",
        [
            # dataclasses (with inspect, ast, dis and tokenize), fractions (with
            # decimal) and importlib.resources cost about 30 ms of start-up that no
            # command needs to begin; array, about 0.6 ms, is for building columns.
            loaded_after(
                "import leadalloc.cli",
                ("dataclasses", "inspect", "fractions", "decimal", "importlib.resources", "array"),
            ),
            # A command loads only its own modules, and csv only to read a CSV.
            loaded_after(
                "assert leadalloc.cli.main("
                "['allocate', '--ranking', RANKING, '--kits', '1000', '--json']) == 0",
                ("csv", "leadalloc.stats", "leadalloc.scoring", "leadalloc.evaluation"),
            ),
            # A table takes its layout from ingest: it loads neither the audit
            # module nor exact arithmetic.
            loaded_after(
                "assert leadalloc.cli.main(['allocate', '--ranking', RANKING, '--kits', '1000']) == 0",
                ("fractions", "decimal", "leadalloc.evaluation"),
            ),
            loaded_after(
                "assert leadalloc.cli.main(['evaluate']) == 0",
                ("csv", "leadalloc.stats", "leadalloc.scoring", "leadalloc.allocation"),
            ),
            # The package loads each submodule when one of its names is first used.
            "import leadalloc, sys\n"
            "loaded = [m for m in sys.modules if m.startswith('leadalloc.')]\n"
            "print(*[m for m in loaded if m != 'leadalloc.errors'])",
            # ... and still exports every name it did when it imported them all up front,
            # and no submodule by its name.
            "import leadalloc\n"
            "bound = {}\n"
            "exec('from leadalloc import *', bound)\n"
            f"names = {set(EAGER_EXPORTS)!r}\n"
            "bound.pop('__builtins__')\n"
            "print(*sorted((names - set(dir(leadalloc))) | (names ^ bound.keys())))",
        ],
        ids=[
            "import-cli", "allocate-json", "allocate-table", "evaluate", "import-package",
            "public-names",
        ],
    )
    def test_import_loads_no_start_up_heavy_modules(self, tmp_path, capsys, demo_csv, probe):
        ranking = tmp_path / "ranking.json"
        if "RANKING" in probe:
            argv = ["score", "--input", str(demo_csv), "--city", "demo", "--out", str(ranking)]
            assert main(argv) == 0
            capsys.readouterr()
        # The child imports the same leadalloc as this test, installed or not.
        package_root = str(Path(leadalloc.__file__).resolve().parents[1])
        result = subprocess.run(
            [sys.executable, "-S", "-c", f"RANKING = {str(ranking)!r}\n{probe}"],
            capture_output=True,
            text=True,
            timeout=60,
            env={**os.environ, "PYTHONPATH": package_root},
        )
        assert result.returncode == 0, result.stderr
        assert result.stdout.split() == []
