"""Fuzz tests of the input boundary: no file or argv makes a reader or the CLI crash.

Every reader may reject a file only with a ``LeadAllocError`` (or an
``OSError`` from the file system), and ``main()`` answers every file and
every argv with exit code 0 or 2, never 1 ("internal error"). A file broken
at one entry is rejected with one ``error: <file>: <JSON Pointer>: ...``
line naming that entry.
"""

from __future__ import annotations

import codecs
import contextlib
import io
import json
import os
import re
import tempfile
import warnings
from pathlib import Path
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
from leadalloc.model import (
    COL_COVERAGE,
    COL_PREVALENCE,
    COL_UNTESTED,
    CORE_COLUMNS,
    AliasTable,
    PriorityRanking,
    Strategy,
)
from leadalloc.scoring import derive_weights, score_city

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


def run_main(argv):
    """``main(argv)``'s exit code, stdout and stderr."""
    stdout, stderr = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
        code = main(argv)
    return code, stdout.getvalue(), stderr.getvalue()


def assert_error_lines_well_formed(argv, stderr):
    """Each stderr line that mentions an error starts ``error: `` and says "error" once."""
    for line in stderr.splitlines():
        if "error" in line:
            assert line.startswith("error: ") and line.count("error") == 1, f"{argv}: {line}"


def assert_answered(argv, files):
    """``main(argv)`` exits 0, or 2 with one well-formed ``error:`` line naming a value or a file.

    A value is named as argparse quotes it, or as a word of the line that
    is the value as the flag's type reads it.
    """
    code, _, stderr = run_main(argv)
    assert code in (0, 2), f"{argv}: {stderr}"
    if code == 0:
        return
    assert_error_lines_well_formed(argv, stderr)
    errors = [line for line in stderr.splitlines() if "error:" in line]
    assert len(errors) == 1, f"{argv}: {stderr}"
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


# Finite floats, the extremes among them: the largest, the subnormals and their negations.
# A core column draws mostly values within its bounds, so that most rows reach a correlation.
EXTREMES = st.sampled_from([1.7976931348623157e308, 1e308, 1.7e308, 5e-324, 1e-310, 2.2e-308])
FINITE = st.floats(allow_nan=False, allow_infinity=False) | EXTREMES | EXTREMES.map(float.__neg__)
PREVALENCE = st.floats(0, allow_infinity=False) | EXTREMES | FINITE
PERCENTAGE = st.floats(0, 100) | st.sampled_from([0.0, 5e-324, 2.2e-308, 100.0]) | FINITE
# Any int or float, the ones past float range and the non-finite ones among them.
NUMBER = st.integers() | st.floats() | st.sampled_from([10**400, -(10**400), 0.5])


# More examples than FUZZ: on the old code, which overflowed, two of three seeded runs of
# 40 examples passed, and two of eight runs of 100.
@settings(max_examples=100, deadline=None)
@given(
    st.lists(st.tuples(PERCENTAGE, PERCENTAGE, PREVALENCE, FINITE), min_size=2, max_size=5),
    NUMBER | st.text(max_size=3) | st.none() | st.booleans(),
    NUMBER,
    st.booleans(),
)
def test_score_and_correlate_answer_any_finite_values_with_0_or_2(rows, r, alpha, normalize):
    """A correlation of any finite values is an r or a named fault, never an internal error.

    So is a library call of ``derive_weights``: only the package's errors
    escape it, and an ``r`` that is not an int or float (a bool is not one
    here) always raises one.
    """
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        try:
            derive_weights(r, alpha, normalize=normalize)
        except LeadAllocError:
            pass
        else:
            assert isinstance(r, (int, float)) and not isinstance(r, bool), r
    lines = [f"{CORE_COLUMNS[0]},{COL_COVERAGE},{COL_UNTESTED},{COL_PREVALENCE},f"]
    lines += [f"n{i},{h!r},{u!r},{p!r},{f!r}" for i, (h, u, p, f) in enumerate(rows)]
    with tempfile.TemporaryDirectory() as directory:
        path = Path(directory) / "city.csv"
        path.write_text("\n".join(lines) + "\n", encoding="utf-8")
        for command in ("score", "correlate"):
            argv = [command, "--city", "demo", "--input", str(path)]
            code, _, stderr = run_main(argv)
            assert code in (0, 2) and "internal error" not in stderr, f"{argv}: {stderr}"


def assert_one_error_line_at(argv, path, pointer):
    """``main(argv)`` exits 2 with one stderr line, ``error: <path>: <pointer>: ...``."""
    code, out, stderr = run_main(argv)
    assert (code, out) == (2, ""), f"{argv}: {stderr}"
    assert len(stderr.splitlines()) == 1, stderr
    assert stderr.startswith(f"error: {path}: {pointer}: "), stderr
    assert_error_lines_well_formed(argv, stderr.replace(str(path), "<file>"))


# Names and city keys without "error" in them, so only the prefix says it.
ENTRY_NAMES = st.text(alphabet="abc xyz-", max_size=4).map("n".__add__)
WRONG_TYPES = {
    "string": st.sampled_from([5, 1.5, None, True, ["a"], {"a": 1}]),
    "number": st.sampled_from(["0.5", "", None, True, False, [1.0], {"x": 1.0}]),
    "integer": st.sampled_from(["5", 1.5, 2.0, None, True, [5]]),
}


@FUZZ
@given(
    st.lists(
        st.tuples(ENTRY_NAMES, st.floats(0.0, 1e300) | st.sampled_from([0.0, 0.5, 1.0])),
        min_size=1,
        max_size=8,
        unique_by=lambda item: item[0],
    ),
    st.data(),
)
def test_a_ranking_broken_at_one_entry_is_rejected_at_that_entry(scored, data):
    scored.sort(key=lambda item: (-item[1], item[0]))
    ranking = PriorityRanking("demo", derive_weights(0.6), *zip(*scored))
    faults = ["wrong type", "missing", "negative"] + (["out of order"] if len(ranking) > 1 else [])
    fault = data.draw(st.sampled_from(faults), label="fault")
    index = data.draw(st.integers(0, len(ranking) - 1), label="index")
    key, kind = data.draw(
        st.sampled_from([("neighborhood", "string"), ("raw_score", "number"),
                         ("scaled_score", "number")]),
        label="field",
    )
    with tempfile.TemporaryDirectory() as directory:
        path = Path(directory) / "ranking.json"
        write_ranking(ranking, path)
        doc = json.loads(path.read_text(encoding="utf-8"))
        entries = doc["entries"]
        pointer = f"/entries/{index}/{key}"
        if fault == "wrong type":
            entries[index][key] = data.draw(WRONG_TYPES[kind], label="value")
        elif fault == "missing":
            del entries[index][key]
        elif fault == "negative":
            entries[index]["raw_score"] = -1.0
            pointer = f"/entries/{index}"
        else:
            index = min(index, len(entries) - 2)
            entries[index], entries[index + 1] = entries[index + 1], entries[index]
            pointer = f"/entries/{index + 1}"
        path.write_text(json.dumps(doc, indent=2), encoding="utf-8")
        argv = ["allocate", "--kits", "10", "--ranking", str(path)]
        assert_one_error_line_at(argv, path, pointer)


# City keys distinct once trimmed and lowercased; two need RFC 6901 escapes.
CITY_KEYS = ["chicago", "New York", "a/b~c", "~1"]


@st.composite
def runs_documents(draw):
    """A valid runs document of one to three runs, each naming some cities' recommendations."""
    recommendation = st.fixed_dictionaries(
        {"neighborhood": ENTRY_NAMES, "kits": st.integers(0, 10**6)}
    )
    cities = st.dictionaries(
        st.sampled_from(CITY_KEYS), st.lists(recommendation, min_size=1, max_size=3),
        min_size=1,
    )
    runs = st.fixed_dictionaries(
        {"model": st.sampled_from(["m", "ChatGPT 5"]), "mode": st.just("chat"), "cities": cities}
    )
    return {"runs": draw(st.lists(runs, min_size=1, max_size=3))}


@FUZZ
@given(runs_documents(), st.data())
def test_a_runs_file_broken_at_one_recommendation_is_rejected_at_it(doc, data):
    run = data.draw(st.integers(0, len(doc["runs"]) - 1), label="run")
    cities = doc["runs"][run]["cities"]
    city = data.draw(st.sampled_from(sorted(cities)), label="city")
    position = data.draw(st.integers(0, len(cities[city]) - 1), label="position")
    item = cities[city][position]
    fault = data.draw(st.sampled_from(["wrong type", "missing", "negative"]), label="fault")
    key, kind = data.draw(
        st.sampled_from([("neighborhood", "string"), ("kits", "integer")]), label="field"
    )
    if fault == "wrong type":
        item[key] = data.draw(WRONG_TYPES[kind], label="value")
    elif fault == "missing":
        del item[key]
    else:
        key, item["kits"] = "kits", -data.draw(st.integers(1, 10**6), label="kits")
    escaped = city.replace("~", "~0").replace("/", "~1")
    with tempfile.TemporaryDirectory() as directory:
        path = Path(directory) / "runs.json"
        path.write_text(json.dumps(doc), encoding="utf-8")
        pointer = f"/runs/{run}/cities/{escaped}/{position}/{key}"
        assert_one_error_line_at(["evaluate", "--runs", str(path)], path, pointer)
