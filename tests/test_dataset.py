"""The columnar CityDataset: its checks, its records view, and scoring and correlation over it."""

from __future__ import annotations

import math
import struct
import warnings

import pytest
from hypothesis import given
from hypothesis import strategies as st

from helpers import dataset_of_records, metric, ranking_of_entries, record
from leadalloc.errors import DomainValidationError, LeadAllocError, UndefinedCorrelationError
from leadalloc.model import (
    CityDataset,
    NeighborhoodRecord,
    PriorityRanking,
    RankingEntry,
    UnitKind,
    WeightVariant,
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
    return dataset_of_records(
        dataset.city, dataset.records, dataset.bll_threshold_ug_dl, dataset.unit_kind
    )


# The record-based scoring and correlation that the columnar code replaced,
# kept as references: the columns must give the same bits.


def score_city_by_records(dataset, alpha, variant, r_override, normalize):
    prevalence = [record.prevalence for record in dataset.records]
    untested = [record.untested_pct for record in dataset.records]
    coverage = [record.public_coverage_pct for record in dataset.records]

    r = r_override if r_override is not None else pearson(coverage, prevalence)
    weights = derive_weights(r, alpha, variant, normalize=normalize)

    raw = [
        weights.alpha * p + weights.beta * u + weights.gamma * h
        for p, u, h in zip(
            min_max_normalize(prevalence), min_max_normalize(untested), min_max_normalize(coverage)
        )
    ]
    names = tuple(record.name for record in dataset.records)
    order = sorted(range(len(raw)), key=names.__getitem__)
    order.sort(key=raw.__getitem__, reverse=True)
    max_raw = raw[order[0]]
    if max_raw > 0:
        entries = tuple(
            RankingEntry(names[i], raw[i], 10.0 * (raw[i] / max_raw)) for i in order
        )
    else:
        entries = tuple(RankingEntry(names[i], 0.0, 0.0) for i in order)
    return ranking_of_entries(city=dataset.city, weights=weights, entries=entries)


def correlate_by_records(dataset, factors, estimator):
    corr = {"pearson": pearson, "spearman": spearman}[estimator]
    results = []
    for factor in factors:
        pairs = [
            (value, r.prevalence)
            for r in dataset.records
            if (value := metric(r, factor)) is not None
        ]
        if len(pairs) < 2:
            raise UndefinedCorrelationError(
                f"factor {factor!r} overlaps prevalence on only {len(pairs)} row(s)"
            )
        xs, ys = zip(*pairs)
        results.append(CorrelationResult(factor, corr(xs, ys), len(pairs)))
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
        weights = tuple(v.hex() if isinstance(v, float) else v for v in result.weights)
        return weights, [(e.name, e.raw_score.hex(), e.scaled_score.hex()) for e in result.entries]
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
        assert [dict(r.extra_factors) for r in dataset.records] == [
            {"f": 0.5}, {"g": 2.0}, {"f": -1.0}
        ]
        assert dataset.records[0] == record("a", 1.0, 4.0, 7.0, f=0.5)
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
            ((["a", "b"], [1, math.inf], [3, 4], [5, 6]), r"range \[0, inf\], got inf"),
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
    return dataset.city, dataset.records, dataset.bll_threshold_ug_dl, dataset.unit_kind


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

    def built(record):
        raise AssertionError("a NeighborhoodRecord was built")

    monkeypatch.setattr(NeighborhoodRecord, "__post_init__", built)
    assert dataset == again and hash(dataset) == hash(again)
    assert repr(dataset) == (
        "CityDataset(city='demo', names=('a', 'b'), prevalence=[1.0, 2.0], "
        "untested_pct=[3.0, 4.0], public_coverage_pct=[5.0, 6.0], extra_columns={'f': [nan, 7.0]}, "
        "bll_threshold_ug_dl=5.0, unit_kind=<UnitKind.NAMED_AREA: 'named_area'>)"
    )
    with pytest.raises(AssertionError, match="NeighborhoodRecord was built"):
        dataset.records


def test_a_signed_zero_makes_the_columns_unequal():
    assert columns_dataset(["a"], [0.0], [1], [2]) != columns_dataset(["a"], [-0.0], [1], [2])
