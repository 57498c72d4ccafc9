"""Fuzz tests of the input boundary: no file makes a reader or the CLI crash.

Every reader may reject a file only with a ``LeadAllocError`` (or an
``OSError`` from the file system), and ``main()`` answers every file with
exit code 0 or 2, never 1 ("internal error").
"""

from __future__ import annotations

import codecs
import contextlib
import io
import json
import os
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from leadalloc.cli import ALIAS_ENV_VAR, main
from leadalloc.errors import LeadAllocError
from leadalloc.ingest import parse_city_dataset, parse_model_runs, parse_ranking, parse_targets
from leadalloc.model import CORE_COLUMNS, AliasTable

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
