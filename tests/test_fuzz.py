"""Fuzz tests of the input boundary: no file or argv makes a reader or the CLI crash.

Every reader may reject a file only with a ``LeadAllocError`` (or an
``OSError`` from the file system), and ``main()`` answers every file and
every argv with exit code 0 or 2, never 1 ("internal error").
"""

from __future__ import annotations

import codecs
import contextlib
import io
import json
import os
import re
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from leadalloc import resources
from leadalloc.cli import ALIAS_ENV_VAR, main
from leadalloc.errors import LeadAllocError
from leadalloc.ingest import (
    parse_city_dataset,
    parse_model_runs,
    parse_ranking,
    parse_targets,
    write_ranking,
)
from leadalloc.model import CORE_COLUMNS, AliasTable, Strategy
from leadalloc.scoring import score_city

# Small budgets keep the whole suite near its usual run time; the examples
# Hypothesis keeps in its database make later runs search further.
FUZZ = settings(max_examples=40, deadline=None)

CSV_CELLS = st.sampled_from(
    [*CORE_COLUMNS, " untested_pct ", "extra", "# unit=fraction", "#unit=bogus",
     "", "0", "1.5", "-1", "100", "1e999", "nan", "abc", '"', '"a,b"', "20001"]
) | st.text(max_size=4)
CSV_TEXT = st.lists(st.lists(CSV_CELLS, max_size=6), max_size=6).map(
    lambda rows: "\n".join(",".join(row) for row in rows)
)
JSON_KEYS = st.sampled_from(
    ["runs", "model", "mode", "cities", "chicago", "neighborhood", "kits", "city",
     "weights", "entries", "alpha", "beta", "gamma", "variant", "source_correlation",
     "raw_score", "scaled_score"]
) | st.text(max_size=4)
JSON_TEXT = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=6),
    lambda children: st.lists(children, max_size=4)
    | st.dictionaries(JSON_KEYS, children, max_size=5),
    max_leaves=16,
).map(json.dumps)
FILE_BYTES = st.tuples(
    st.sampled_from([b"", codecs.BOM_UTF8]),
    st.binary(max_size=300) | CSV_TEXT.map(str.encode) | JSON_TEXT.map(str.encode),
).map(b"".join)

READERS = [
    lambda path: parse_city_dataset(path, "demo"),
    lambda path: parse_city_dataset(path, "dc", strict=True),
    parse_model_runs,
    parse_targets,
    parse_ranking,
    AliasTable.from_file,
]

# An argument "{path}" stands for the fuzzed file; bare `evaluate` reads it
# as the alias file.
COMMANDS = [
    ["correlate", "--city", "demo", "--input", "{path}"],
    ["score", "--city", "dc", "--input", "{path}"],
    ["allocate", "--kits", "10", "--ranking", "{path}"],
    ["evaluate", "--runs", "{path}"],
    ["evaluate", "--targets", "{path}"],
    ["evaluate"],
]


@pytest.fixture(scope="module")
def input_path(tmp_path_factory):
    return tmp_path_factory.mktemp("fuzz") / "input"


@FUZZ
@given(payload=FILE_BYTES)
def test_readers_reject_only_with_package_errors(input_path, payload):
    input_path.write_bytes(payload)
    for reader in READERS:
        try:
            reader(input_path)
        except (LeadAllocError, OSError):
            pass


@FUZZ
@given(payload=FILE_BYTES)
def test_cli_exits_0_or_2_on_any_file(input_path, payload):
    input_path.write_bytes(payload)
    for command in COMMANDS:
        argv = [str(input_path) if arg == "{path}" else arg for arg in command]
        env = {ALIAS_ENV_VAR: str(input_path)} if argv == ["evaluate"] else {}
        stderr = io.StringIO()
        with mock.patch.dict(os.environ, env), contextlib.redirect_stdout(io.StringIO()), \
                contextlib.redirect_stderr(stderr):
            code = main(argv)
        assert code in (0, 2), f"{argv}: {stderr.getvalue()}"


# Values for the numeric flags: NaN, infinities, signed zeros, huge and
# negative numbers and text that is no number, written as a user could. An
# argv gives at most one of them; its other flags get valid numbers of their
# type, so that a bad value meets the checks past argparse.
BAD_NUMBERS = st.sampled_from(
    ["nan", "NaN", "inf", "-inf", "1e999", "1e308", "0", "-0", "0.0", "-0.0", "-1", "-7",
     "99999999999999999999", "-99999999999999999999", "abc", "", "0x10", " 2 ", "1_000"]
) | st.floats().map(repr)
VALID_NUMBERS = {
    "--alpha": st.floats(0.01, 0.99).map(repr),
    "--r-override": st.floats(-1.0, 1.0).map(repr),
    "--kits": st.integers(100, 10**30).map(str),
    "--k": st.integers(1, 40).map(str),
    "--floor": st.integers(0, 5).map(str),
}


@pytest.fixture(scope="module")
def argv_files(tmp_path_factory):
    """The files an argv may name: the demo dataset, its ranking, and a missing file."""
    directory = tmp_path_factory.mktemp("argv")
    ranking_path = directory / "ranking.json"
    write_ranking(score_city(parse_city_dataset(resources.demo_dataset_path(), "demo")[0]),
                  ranking_path)
    return {"csv": (str(resources.demo_dataset_path()), str(directory / "missing.csv")),
            "ranking": (str(ranking_path), str(directory / "missing.json"))}


def _flags(draw, required, optional=()):
    """The flags ``required`` and some of ``optional``, each as ``--flag=value``.

    ``=`` joins each value to its flag, because a value may start with ``-``.
    """
    flags = [*required, *draw(st.lists(st.sampled_from(optional), unique=True))]
    values = [draw(VALID_NUMBERS[flag]) for flag in flags]
    if flags and draw(st.booleans()):
        values[draw(st.integers(0, len(flags) - 1))] = draw(BAD_NUMBERS)
    return [f"{flag}={value}" for flag, value in zip(flags, values)]


def _file(draw, paths):
    """The existing file three times in four, else the missing one."""
    good, missing = paths
    return draw(st.sampled_from([good, good, good, missing]))


@st.composite
def command_argv(draw, command, files):
    if command == "correlate":
        return ["correlate", "--city", "demo", "--input", _file(draw, files["csv"]),
                *draw(st.sampled_from([[], ["--estimator", "spearman"], ["--json"]]))]
    if command == "score":
        return ["score", "--city", "demo", "--input", _file(draw, files["csv"]),
                *_flags(draw, [], ["--alpha", "--r-override"])]
    if command == "allocate":
        strategy = draw(st.sampled_from([strategy.value for strategy in Strategy]))
        return ["allocate", "--ranking", _file(draw, files["ranking"]), "--strategy", strategy,
                *_flags(draw, ["--kits"], ["--k", "--floor"])]
    return ["evaluate", *_flags(draw, [], ["--k"])]


def assert_answered(argv, files):
    """``main(argv)`` exits 0, or 2 with one ``error:`` line that names a value or a file.

    A value is named as argparse quotes it, or as a word of the line that
    is the value as the flag's type reads it.
    """
    stderr = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(stderr):
        code = main(argv)
    assert code in (0, 2), f"{argv}: {stderr.getvalue()}"
    if code == 0:
        return
    errors = [line for line in stderr.getvalue().splitlines() if "error:" in line]
    assert len(errors) == 1, f"{argv}: {stderr.getvalue()}"
    line = errors[0]
    words = set(re.split(r"[\s,()\[\]]+", line))
    named = any(arg in line for arg in argv if arg in files)
    for _, _, value in (arg.partition("=") for arg in argv if "=" in arg):
        named = named or repr(value) in line
        for kind in (int, float):
            with contextlib.suppress(ValueError, OverflowError):
                named = named or str(kind(value)) in words
    assert named, f"{argv}: {line}"


@FUZZ
@given(data=st.data())
@pytest.mark.parametrize("command", ["correlate", "score", "allocate", "evaluate"])
def test_cli_answers_any_argv_with_0_or_2(argv_files, command, data):
    argv = data.draw(command_argv(command, argv_files), label="argv")
    assert_answered(argv, (*argv_files["csv"], *argv_files["ranking"]))


@pytest.mark.parametrize(
    "flags",
    [["--kits=0"], ["--kits=10", "--floor=-1"], ["--kits=10", "--strategy=top_k_equal", "--k=-1"],
     ["--kits=10", "--floor=2"]],
)
def test_allocate_names_a_bad_number(argv_files, flags):
    ranking = argv_files["ranking"][0]
    assert_answered(["allocate", "--ranking", ranking, *flags], (ranking,))


@pytest.mark.parametrize("flag", ["--alpha=nan", "--alpha=-0.0", "--r-override=inf"])
def test_score_names_a_bad_number(argv_files, flag):
    csv = argv_files["csv"][0]
    assert_answered(["score", "--city", "demo", "--input", csv, flag], (csv,))
