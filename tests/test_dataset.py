"""The columnar CityDataset: its checks, its rows, and scoring and correlation over it."""

from __future__ import annotations

import math
import struct
import tempfile
import warnings
from itertools import chain
from pathlib import Path

import pytest
from hypothesis import given
from hypothesis import strategies as st

from helpers import dataset_of_rows, extra_factors, ranking_of_entries, row, rows_of
from leadalloc.errors import (
    DatasetValidationError,
    DomainValidationError,
    LeadAllocError,
    UndefinedCorrelationError,
)
from leadalloc.ingest import parse_city_dataset
from leadalloc.model import (
    METRIC_CAPS,
    AllocationPlan,
    CityDataset,
    PriorityRanking,
    Strategy,
    UnitKind,
    WeightVariant,
    value_fault,
)
from leadalloc.scoring import derive_weights, score_city
from leadalloc.stats import (
    CorrelationResult,
    correlate_factors,
    min_max_normalize,
    pearson,
    spearman,
)


def columns_dataset(names, prevalence, untested, coverage, extras=None, *, unit_kind=None):
    return CityDataset(
        "demo",
        names,
        prevalence,
        untested,
        coverage,
        extras or {},
        bll_threshold_ug_dl=5.0,
        unit_kind=unit_kind or UnitKind.NAMED_AREA,
    )


def rebuilt(dataset):
    return dataset_of_rows(
        dataset.city, rows_of(dataset), dataset.bll_threshold_ug_dl, dataset.unit_kind
    )


# The record-based scoring and correlation that the columnar code replaced,
# kept as references over row dicts: the columns must give the same bits.


def named_pair(corr, xs, ys, factor):
    """``corr(xs, ys)``; an undefined correlation names the factor and prevalence."""
    try:
        return corr(xs, ys)
    except UndefinedCorrelationError as exc:
        raise UndefinedCorrelationError(f"{factor} vs prevalence_per_1000: {exc}") from None


def score_city_by_records(dataset, alpha, variant, r_override, normalize):
    rows = rows_of(dataset)
    prevalence = [row["prevalence_per_1000"] for row in rows]
    untested = [row["untested_pct"] for row in rows]
    coverage = [row["public_coverage_pct"] for row in rows]

    if r_override is None:
        r = named_pair(pearson, coverage, prevalence, "public_coverage_pct")
    else:
        r = r_override
    weights = derive_weights(r, alpha, variant, normalize=normalize)

    raw = [
        weights.alpha * p + weights.beta * u + weights.gamma * h
        for p, u, h in zip(
            min_max_normalize(prevalence), min_max_normalize(untested), min_max_normalize(coverage)
        )
    ]
    names = tuple(row["neighborhood"] for row in rows)
    order = sorted(range(len(raw)), key=names.__getitem__)
    order.sort(key=raw.__getitem__, reverse=True)
    all_zero = not raw[order[0]] > 0
    entries = tuple((names[i], 0.0 if all_zero else raw[i]) for i in order)
    return ranking_of_entries(city=dataset.city, weights=weights, entries=entries)


def correlate_by_records(dataset, factors, estimator):
    corr = {"pearson": pearson, "spearman": spearman}[estimator]
    results = []
    for factor in factors:
        pairs = [
            (value, r["prevalence_per_1000"])
            for r in rows_of(dataset)
            if (value := r.get(factor)) is not None
        ]
        if len(pairs) < 2:
            raise UndefinedCorrelationError(
                f"factor {factor!r} overlaps prevalence on only {len(pairs)} row(s)"
            )
        xs, ys = zip(*pairs)
        results.append(CorrelationResult(factor, named_pair(corr, xs, ys, factor), len(pairs)))
    return results


def outcome(fn):
    """What ``fn()`` returns or raises, with its results' floats as exact hex strings."""
    try:
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            result = fn()
    except LeadAllocError as exc:
        return type(exc), str(exc)
    if isinstance(result, PriorityRanking):
        weights = tuple(v.hex() if isinstance(v, float) else v for v in result.weights._values())
        scores = zip(result.names, result.raw_scores, result.scaled_scores)
        return weights, [(name, raw.hex(), scaled.hex()) for name, raw, scaled in scores]
    return [(res.factor, res.r.hex(), res.n) for res in result]


_value = st.floats(0, 100) | st.sampled_from([0.0, 1.0, 50.0, 100.0])


@st.composite
def datasets(draw):
    """Datasets drawn as columns, with ties, constant columns and blank (NaN) extra cells."""
    n = draw(st.integers(2, 12))
    name = st.text("abcz 0", min_size=1, max_size=4).map(str.strip).filter(bool)
    names = draw(st.lists(name, min_size=n, max_size=n, unique=True))
    prevalence = st.floats(0, 1e4) | st.sampled_from([0.0, 2.5])
    prevalence = draw(st.lists(prevalence, min_size=n, max_size=n))
    untested = draw(st.lists(_value, min_size=n, max_size=n))
    coverage = draw(st.lists(_value, min_size=n, max_size=n))
    extra = st.floats(-1e6, 1e6) | st.sampled_from([math.nan, math.nan, 0.0, -1.5])
    factors = draw(st.lists(st.sampled_from(["f", "g", "h"]), unique=True, max_size=3))
    extras = {factor: draw(st.lists(extra, min_size=n, max_size=n)) for factor in factors}
    return columns_dataset(names, prevalence, untested, coverage, extras)


@given(
    datasets(),
    st.sampled_from([0.1, 0.5, 0.9]),
    st.sampled_from(list(WeightVariant)),
    st.none() | st.floats(-1, 1),
    st.booleans(),
)
def test_score_city_over_columns_matches_the_record_based_code_bit_for_bit(
    dataset, alpha, variant, r_override, normalize
):
    columns = outcome(
        lambda: score_city(dataset, alpha, variant, r_override, normalize_weights=normalize)
    )
    records = outcome(
        lambda: score_city_by_records(dataset, alpha, variant, r_override, normalize)
    )
    assert columns == records


@given(datasets(), st.sampled_from(["pearson", "spearman"]))
def test_correlate_factors_over_columns_matches_the_record_based_code_bit_for_bit(
    dataset, estimator
):
    for factor in dataset.factor_names():
        columns = outcome(lambda: correlate_factors(dataset, [factor], estimator=estimator))
        records = outcome(lambda: correlate_by_records(dataset, [factor], estimator))
        assert columns == records


@given(datasets())
def test_a_dataset_rebuilt_from_its_records_is_equal(dataset):
    again = rebuilt(dataset)
    assert again == dataset and dataset == again
    assert again.factor_names() == dataset.factor_names()
    for factor in dataset.factor_names():
        assert list(map(str, again.column(factor))) == list(map(str, dataset.column(factor)))


class TestColumns:
    def test_blank_extra_cells_are_absent_from_the_records(self):
        dataset = columns_dataset(
            ["a", "b", "c"], [1, 2, 3], [4, 5, 6], [7, 8, 9],
            {"f": [0.5, math.nan, -1.0], "g": [math.nan, 2.0, math.nan]},
        )
        assert [extra_factors(r) for r in rows_of(dataset)] == [
            {"f": 0.5}, {"g": 2.0}, {"f": -1.0}
        ]
        assert rows_of(dataset)[0] == row("a", 1.0, 4.0, 7.0, f=0.5)
        assert rebuilt(dataset) == dataset

    def test_equality_tells_a_blank_cell_from_a_value(self):
        base = columns_dataset(["a", "b"], [1, 2], [3, 4], [5, 6], {"f": [math.nan, 1.0]})
        assert base == columns_dataset(["a", "b"], [1, 2], [3, 4], [5, 6], {"f": [math.nan, 1.0]})
        assert base != columns_dataset(["a", "b"], [1, 2], [3, 4], [5, 6], {"f": [0.0, 1.0]})
        assert base != columns_dataset(["a", "b"], [1, 2], [3, 4], [5, 6], {"f": [math.nan, 2.0]})

    def test_a_factor_no_neighborhood_has_is_dropped(self):
        dataset = columns_dataset(
            ["a", "b"], [1, 2], [3, 4], [5, 6], {"f": [math.nan, math.nan], "g": [1.0, 2.0]}
        )
        assert dataset.factor_names() == ("untested_pct", "public_coverage_pct", "g")
        assert list(dataset.extra_columns) == ["g"]

    def test_columns_are_read_only_copies(self):
        prevalence = [1.0, 2.0]
        dataset = columns_dataset(["a", "b"], prevalence, [3, 4], [5, 6])
        prevalence[0] = -1.0
        assert dataset.prevalence[0] == 1.0
        with pytest.raises(TypeError):
            dataset.prevalence[0] = -1.0
        assert type(dataset.names) is tuple and dataset.names == ("a", "b")

    def test_column_names_core_metrics_and_extras(self):
        dataset = columns_dataset(["a", "b"], [1, 2], [3, 4], [5, 6], {"f": [math.nan, 7.0]})
        assert list(dataset.column("prevalence_per_1000")) == [1.0, 2.0]
        assert list(dataset.column("untested_pct")) == [3.0, 4.0]
        assert list(dataset.column("public_coverage_pct")) == [5.0, 6.0]
        assert str(list(dataset.column("f"))) == "[nan, 7.0]"
        with pytest.raises(KeyError):
            dataset.column("absent")

    @pytest.mark.parametrize(
        ("columns", "message"),
        [
            (([], [], [], []), "no records"),
            ((["a", "b"], [1, 2], [3, 4], [5]), "one value per name"),
            ((["a", "b", "a"], [1, 2, 3], [3, 4, 5], [5, 6, 7]), "duplicate neighborhood 'a'"),
            ((["a", "b"], [1, math.nan], [3, 4], [5, 6]), r"b: prevalence_per_1000 out of range"),
            ((["a", "b"], [-1, 2], [3, 4], [5, 6]), r"a: prevalence_per_1000 out of range"),
            ((["a", "b"], [1, math.inf], [3, 4], [5, 6]), r"range \[0, inf\), got inf"),
            ((["a", "b"], [1, 2], [3, 101], [5, 6]), r"b: untested_pct out of range \[0, 100\]"),
            ((["a", "b"], [1, 2], [3, 4], [math.nan, 6]), "a: public_coverage_pct out of range"),
            ((["a", "b"], [1, 2], [3, 4], [5, -0.5]), "b: public_coverage_pct out of range"),
        ],
    )
    def test_checks_name_the_broken_invariant(self, columns, message):
        with pytest.raises(DomainValidationError, match=message):
            columns_dataset(*columns)

    @pytest.mark.parametrize("bad", [math.inf, -math.inf])
    def test_an_infinite_extra_value_is_rejected(self, bad):
        with pytest.raises(DomainValidationError, match="b: extra factor 'f' must be finite"):
            columns_dataset(["a", "b"], [1, 2], [3, 4], [5, 6], {"f": [1.0, bad]})

    def test_zip_city_names_must_be_zip_codes(self):
        names = ["20011", "2002a"]
        with pytest.raises(DomainValidationError, match="'2002a' is not a 5-digit ZIP"):
            columns_dataset(names, [1, 2], [3, 4], [5, 6], unit_kind=UnitKind.ZIP_CODE)


# NaNs of both signs and of another payload: a blank cell is any of them.
_NANS = (math.nan, -math.nan, struct.unpack("<d", struct.pack("<Q", 0x7FF8_0000_0000_0001))[0])


@st.composite
def small_datasets(draw):
    """Datasets from a space small enough that two draws are often equal; no signed zeros."""
    n = draw(st.integers(1, 3))
    names = draw(st.permutations(["a", "b", "c"]))[:n]
    value = st.sampled_from([0.0, 1.0, 2.5])
    core = [draw(st.lists(value, min_size=n, max_size=n)) for _ in range(3)]
    extra = st.sampled_from([0.0, 1.0, *_NANS])
    factors = draw(st.lists(st.sampled_from(["f", "g"]), unique=True))
    extras = {factor: draw(st.lists(extra, min_size=n, max_size=n)) for factor in factors}
    return CityDataset(
        "demo", names, *core, extras,
        bll_threshold_ug_dl=draw(st.sampled_from([3.5, 5.0])), unit_kind=UnitKind.NAMED_AREA,
    )


def _as_records(dataset):
    return dataset.city, rows_of(dataset), dataset.bll_threshold_ug_dl, dataset.unit_kind


@given(small_datasets(), small_datasets(), st.sampled_from(_NANS))
def test_equality_and_hash_agree_with_the_records(dataset, other, nan):
    """``==`` over the columns' bytes is ``==`` over the records: a blank cell is absent."""
    renamed = CityDataset(
        dataset.city,
        dataset.names,
        dataset.prevalence,
        dataset.untested_pct,
        dataset.public_coverage_pct,
        {
            factor: [nan if math.isnan(value) else value for value in values]
            for factor, values in reversed(dataset.extra_columns.items())
        },
        bll_threshold_ug_dl=dataset.bll_threshold_ug_dl,
        unit_kind=dataset.unit_kind,
    )
    for candidate in (other, renamed):
        equal = _as_records(dataset) == _as_records(candidate)
        assert (dataset == candidate) is (candidate == dataset) is equal
        if equal:
            assert hash(dataset) == hash(candidate)
            assert repr(dataset) == repr(candidate)


def test_equality_hash_and_repr_build_no_record(monkeypatch):
    columns = (["a", "b"], [1, 2], [3, 4], [5, 6], {"f": [math.nan, 7.0]})
    dataset, again = columns_dataset(*columns), columns_dataset(*columns)

    def built(value):
        raise AssertionError("rows were built")

    for cls, rows in ((CityDataset, "records"), (PriorityRanking, "entries"),
                      (AllocationPlan, "allocations")):
        monkeypatch.setattr(cls, rows, property(built))
    assert dataset == again and hash(dataset) == hash(again)
    assert repr(dataset) == (
        "CityDataset(city='demo', names=('a', 'b'), prevalence=[1.0, 2.0], "
        "untested_pct=[3.0, 4.0], public_coverage_pct=[5.0, 6.0], extra_columns={'f': [nan, 7.0]}, "
        "bll_threshold_ug_dl=5.0, unit_kind=<UnitKind.NAMED_AREA: 'named_area'>)"
    )
    ranking = PriorityRanking("demo", derive_weights(0.6), ["b", "a"], [2.0, 1.0])
    plan = AllocationPlan("demo", 3, ranking.names, [2, 1], Strategy.PROPORTIONAL)
    for value in (ranking, plan):
        same = value._replace()
        assert value == same and hash(value) == hash(same) and repr(value) == repr(same)
    for rows in (lambda: dataset.records, lambda: ranking.entries, lambda: plan.allocations):
        with pytest.raises(AssertionError, match="rows were built"):
            rows()


def test_a_signed_zero_makes_the_columns_unequal():
    assert columns_dataset(["a"], [0.0], [1], [2]) != columns_dataset(["a"], [-0.0], [1], [2])


# Values at and past every bound, and any float besides.
_EDGES = st.sampled_from(
    [0.0, -0.0, -5e-324, 5e-324, 1.0, 100.0, 100.00000000000001, 1e308, -1e308,
     math.inf, -math.inf, math.nan]
)


@given(st.tuples(*[st.floats() | _EDGES] * 3), st.floats(allow_nan=False) | _EDGES.filter(
    lambda value: not math.isnan(value)  # NaN in a dataset's extra column is a blank cell
))
def test_a_csv_row_a_record_and_a_dataset_give_one_verdict_per_value(metrics, extra):
    """All three accept the values, or all reject them with the same fault text.

    The record is a row dict, checked through the ``value_fault`` calls a dataset makes.
    """
    verdicts = []
    with tempfile.TemporaryDirectory() as directory:
        path = Path(directory) / "city.csv"
        path.write_text(
            "neighborhood,prevalence_per_1000,untested_pct,public_coverage_pct,f\n"
            + ",".join(["a", *map(repr, (*metrics, extra))]) + "\n",
            encoding="utf-8",
        )
        try:
            parsed, _ = parse_city_dataset(path, "demo")
        except DatasetValidationError as exc:
            verdicts.append(exc.report.errors()[0].message)
        else:
            verdicts.append(None)
    record = row("a", *metrics, f=extra)
    faults = chain(
        (value_fault(column, record[column], cap) for column, cap in METRIC_CAPS.items()),
        (value_fault(factor, value) for factor, value in extra_factors(record).items()),
    )
    verdicts.append(next(filter(None, faults), None))
    try:
        built = columns_dataset(["a"], *([value] for value in metrics), {"f": [extra]})
    except DomainValidationError as exc:
        verdicts.append(str(exc).removeprefix("demo: a: "))
    else:
        verdicts.append(None)
        assert parsed == built
    assert verdicts[0] == verdicts[1] == verdicts[2]
