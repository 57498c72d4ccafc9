"""Correlation and normalization primitives."""

from __future__ import annotations

import math
from operator import mul

import pytest
from hypothesis import given
from hypothesis import strategies as st

from helpers import dataset
from leadalloc.errors import (
    DataQualityWarning,
    DomainValidationError,
    UndefinedCorrelationError,
)
from leadalloc.ingest import parse_city_dataset
from leadalloc.stats import (
    CorrelationResult,
    _average_ranks,
    correlate_factors,
    min_max_normalize,
    pearson,
    spearman,
)


class TestPearson:
    def test_perfect_positive(self):
        assert pearson([1.0, 2.0, 3.0], [2.0, 4.0, 6.0]) == 1.0

    def test_perfect_negative(self):
        assert pearson([1.0, 2.0, 3.0], [6.0, 4.0, 2.0]) == -1.0

    def test_known_value(self):
        # Deviations (-2,-1,0,1,2) and (-2,0,1,0,1): sxy=6, sxx=10, syy=6.
        assert pearson([1, 2, 3, 4, 5], [2, 4, 5, 4, 5]) == 6 / math.sqrt(60)

    def test_shift_invariance_of_sign(self):
        x = [3.0, 1.0, 4.0, 1.0, 5.0]
        y = [2.0, 7.0, 1.0, 8.0, 2.0]
        r = pearson(x, y)
        assert r < 0
        assert pearson(x, [v + 1000 for v in y]) == pytest.approx(r, abs=1e-12)

    def test_two_points_is_plus_or_minus_one(self):
        assert pearson([1.0, 2.0], [5.0, 9.0]) == 1.0
        assert pearson([1.0, 2.0], [9.0, 5.0]) == -1.0

    def test_result_is_clamped_to_unit_interval(self):
        # Near-collinear data with rounding noise must still land in [-1, 1].
        x = [1e15 + i for i in range(2, 12)]
        y = [3 * v + 1 for v in x]
        assert -1.0 <= pearson(x, y) <= 1.0

    def test_length_mismatch(self):
        with pytest.raises(DomainValidationError, match="length mismatch"):
            pearson([1.0, 2.0], [1.0])

    def test_fewer_than_two_points(self):
        with pytest.raises(UndefinedCorrelationError, match="at least 2"):
            pearson([1.0], [2.0])

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    @pytest.mark.parametrize("estimator", [pearson, spearman])
    def test_non_finite_values_are_rejected(self, bad, estimator):
        # A NaN once gave r = -1.0 and an infinity a bare ValueError from fsum.
        with pytest.raises(DomainValidationError, match="finite"):
            estimator([1.0, bad, 3.0], [1.0, 2.0, 3.0])
        with pytest.raises(DomainValidationError, match="finite"):
            estimator([1.0, 2.0, 3.0], [1.0, 2.0, bad])

    def test_zero_variance_is_undefined_not_defaulted(self):
        with pytest.raises(UndefinedCorrelationError, match="zero variance"):
            pearson([5.0, 5.0, 5.0], [1.0, 2.0, 3.0])
        with pytest.raises(UndefinedCorrelationError, match="zero variance"):
            pearson([1.0, 2.0, 3.0], [7.0, 7.0, 7.0])

    @given(
        st.lists(
            st.tuples(st.integers(-1000, 1000), st.integers(-1000, 1000)),
            min_size=2,
            max_size=30,
        )
    )
    def test_symmetry_bitwise(self, pairs):
        x = [float(a) for a, _ in pairs]
        y = [float(b) for _, b in pairs]
        if len(set(x)) < 2 or len(set(y)) < 2:
            return
        assert pearson(x, y) == pearson(y, x)

    @given(
        st.lists(
            st.tuples(st.integers(-1000, 1000), st.integers(-1000, 1000)),
            min_size=2,
            max_size=30,
        ),
        st.sampled_from([-3.0, -0.5, 0.25, 0.5, 2.0]),
        st.integers(-50, 50),
    )
    def test_affine_sign_property(self, pairs, a, b):
        x = [float(p) for p, _ in pairs]
        y = [float(q) for _, q in pairs]
        if len(set(x)) < 2 or len(set(y)) < 2:
            return
        r = pearson(x, y)
        transformed = pearson([a * v + b for v in x], y)
        assert transformed == pytest.approx(math.copysign(1.0, a) * r, abs=1e-12)


    @pytest.mark.parametrize(
        ("x", "y", "r"),
        [
            # fsum overflowed on the sum of the prevalence column.
            ([20.0, 30.0, 10.0], [1.7e308, 1.7e308, 1.0], math.sqrt(3) / 2),
            # pow overflowed on a squared deviation.
            ([1e308, -1e308, 0.0], [1.0, 2.0, 3.0], -0.5),
            # The squared deviations underflowed to zero variance.
            ([10.0, 30.0, 20.0], [5e-324, 0.0, 0.0], -math.sqrt(3) / 2),
            # sxx * syy overflowed to inf, and r read 0.0.
            ([1e100, 2e100, 4e100], [3e100, 6e100, 12e100], 1.0),
        ],
    )
    def test_finite_extremes_give_r(self, x, y, r):
        assert pearson(x, y) == pytest.approx(r, abs=1e-15)
        assert pearson(y, x) == pytest.approx(r, abs=1e-15)

    @given(st.data(), st.integers(2, 12))
    def test_scaling_keeps_the_unscaled_formulas_bits(self, data, n):
        """Bit for bit the unscaled two-pass formula, on magnitudes that stay normal.

        That formula squared with ``pow``, which C libraries round to within
        about half an ulp but not always correctly; a product is correctly
        rounded, so exact under a power-of-two scale. Against ``pow`` r
        moves by a few ulps at most.
        """
        ordinary = st.just(0.0) | st.floats(1e-30, 1e30) | st.floats(-1e30, -1e-30)
        x, y = (data.draw(st.lists(ordinary, min_size=n, max_size=n)) for _ in "xy")
        try:
            r = pearson(x, y)
        except UndefinedCorrelationError:
            assert len(set(x)) == 1 or len(set(y)) == 1
            return
        assert r == _unscaled_pearson(x, y, lambda d: d * d)
        assert abs(r - _unscaled_pearson(x, y, lambda d: pow(d, 2))) <= 4 * math.ulp(r)


def _unscaled_pearson(x, y, square):
    """The two-pass formula on the values as given, each deviation squared by ``square``."""
    mean_x, mean_y = math.fsum(x) / len(x), math.fsum(y) / len(y)
    dx, dy = [v - mean_x for v in x], [v - mean_y for v in y]
    sxx, syy = math.fsum(map(square, dx)), math.fsum(map(square, dy))
    r = math.fsum(map(mul, dx, dy)) / math.sqrt(sxx * syy)
    return min(1.0, max(-1.0, r))


class TestSpearman:
    def test_monotone_nonlinear_is_one(self):
        assert spearman([1.0, 2.0, 3.0, 4.0], [1.0, 10.0, 100.0, 1000.0]) == 1.0

    def test_reversed_is_minus_one(self):
        assert spearman([1.0, 2.0, 3.0, 4.0], [9.0, 7.0, 4.0, 0.5]) == -1.0

    def test_ties_get_average_ranks(self):
        # x ranks: (1.5, 1.5, 3); a constant x would instead be undefined.
        assert spearman([1.0, 1.0, 2.0], [1.0, 1.0, 2.0]) == 1.0
        with pytest.raises(UndefinedCorrelationError):
            spearman([1.0, 1.0, 1.0], [1.0, 2.0, 3.0])

    def test_tied_ranks_are_the_mean_of_their_positions(self):
        # By hand: 1 and 1 hold positions 1-2, 2 holds 3, and the three 3s hold 4-6.
        assert _average_ranks([3, 1, 1, 2, 3, 3]) == [5.0, 1.5, 1.5, 3.0, 5.0, 5.0]
        # x ranks (1.5, 1.5, 3, 4) and y ranks (3.5, 3.5, 1, 2): -3.5 / 4.5 by hand.
        assert spearman([1, 1, 2, 3], [4, 4, 1, 2]) == pytest.approx(-7 / 9)


class TestCorrelateFactors:
    def test_core_factors_on_demo_like_data(self):
        ds = dataset(
            [
                ("a", 1.0, 10.0, 30.0),
                ("b", 2.0, 20.0, 20.0),
                ("c", 3.0, 30.0, 10.0),
            ]
        )
        results = correlate_factors(ds, ["untested_pct", "public_coverage_pct"])
        assert [res.factor for res in results] == ["untested_pct", "public_coverage_pct"]
        assert results[0].r == 1.0
        assert results[1].r == -1.0
        assert all(res.n == 3 for res in results)

    def test_constructed_factor_hits_target_correlation(self):
        # Build a column with correlation exactly 0.63 against prevalence by
        # combining the centered prevalence direction with an orthogonal one.
        prevalence = [1.0, 2.0, 3.0, 4.0, 5.0, 6.0]
        n = len(prevalence)
        mean_p = sum(prevalence) / n
        u = [v - mean_p for v in prevalence]
        norm_u = math.sqrt(sum(v * v for v in u))
        u = [v / norm_u for v in u]

        w0 = [1.0, -1.0, 1.0, -1.0, 1.0, -1.0]  # mean-free seed direction
        dot = sum(a * b for a, b in zip(w0, u))
        w = [a - dot * b for a, b in zip(w0, u)]
        norm_w = math.sqrt(sum(v * v for v in w))
        w = [v / norm_w for v in w]

        target = 0.63
        column = [
            target * a + math.sqrt(1 - target**2) * b for a, b in zip(u, w)
        ]
        ds = dataset(
            [
                (f"n{i}", prevalence[i], 10.0, 10.0, {"synthetic": column[i]})
                for i in range(n)
            ]
        )
        (result,) = correlate_factors(ds, ["synthetic"])
        assert result.r == pytest.approx(0.63, abs=1e-12)
        assert result.n == n

    def test_sparse_extra_column_uses_overlapping_rows_only(self):
        ds = dataset(
            [
                ("a", 1.0, 1.0, 1.0, {"sparse": 2.0}),
                ("b", 2.0, 1.0, 1.0),
                ("c", 3.0, 1.0, 1.0, {"sparse": 6.0}),
                ("d", 4.0, 1.0, 1.0, {"sparse": 8.0}),
            ]
        )
        (result,) = correlate_factors(ds, ["sparse"])
        assert result.n == 3
        assert result.r == 1.0

    def test_blank_cells_of_a_parsed_column_are_left_out(self, tmp_path):
        path = tmp_path / "city.csv"
        path.write_text(
            "neighborhood,prevalence_per_1000,untested_pct,public_coverage_pct,sparse\n"
            "a,1.0,1,1,2.0\nb,2.0,1,1,\nc,3.0,1,1,6.0\nd,4.0,1,1,8.0\n",
            encoding="utf-8",
        )
        ds, _ = parse_city_dataset(path, "demo")
        assert str(list(ds.column("sparse"))) == "[2.0, nan, 6.0, 8.0]"
        assert correlate_factors(ds, ["sparse"]) == [CorrelationResult("sparse", 1.0, 3)]

    def test_single_overlapping_row_is_undefined(self):
        ds = dataset(
            [
                ("a", 1.0, 1.0, 1.0, {"sparse": 2.0}),
                ("b", 2.0, 1.0, 1.0),
            ]
        )
        with pytest.raises(UndefinedCorrelationError, match="only 1 row"):
            correlate_factors(ds, ["sparse"])

    def test_prevalence_self_correlation_rejected(self):
        ds = dataset([("a", 1.0, 1.0, 1.0), ("b", 2.0, 2.0, 2.0)])
        with pytest.raises(DomainValidationError, match="itself"):
            correlate_factors(ds, ["prevalence_per_1000"])

    def test_unknown_factor_rejected(self):
        ds = dataset([("a", 1.0, 1.0, 1.0), ("b", 2.0, 2.0, 2.0)])
        with pytest.raises(DomainValidationError, match="unknown factor 'bogus'"):
            correlate_factors(ds, ["bogus"])

    def test_spearman_estimator(self):
        ds = dataset(
            [
                ("a", 1.0, 5.0, 30.0),
                ("b", 2.0, 50.0, 20.0),
                ("c", 4.0, 99.0, 10.0),
            ]
        )
        (result,) = correlate_factors(ds, ["untested_pct"], estimator="spearman")
        assert result.r == 1.0

    def test_unknown_estimator_rejected(self):
        ds = dataset([("a", 1.0, 1.0, 1.0), ("b", 2.0, 2.0, 2.0)])
        with pytest.raises(DomainValidationError, match="unknown estimator"):
            correlate_factors(ds, ["untested_pct"], estimator="kendall")


class TestMinMaxNormalize:
    def test_basic(self):
        assert min_max_normalize([0.0, 5.0, 10.0]) == [0.0, 0.5, 1.0]

    def test_unevenly_spaced(self):
        assert min_max_normalize([2.0, 4.0, 8.0]) == [0.0, 1 / 3, 1.0]

    def test_order_of_inputs_is_preserved(self):
        assert min_max_normalize([10.0, 0.0, 5.0]) == [1.0, 0.0, 0.5]

    def test_constant_column_warns_and_zeroes(self):
        with pytest.warns(DataQualityWarning, match="degenerate column"):
            assert min_max_normalize([7.0, 7.0, 7.0]) == [0.0, 0.0, 0.0]

    def test_empty_rejected(self):
        with pytest.raises(DomainValidationError, match="empty"):
            min_max_normalize([])

    @given(st.lists(st.integers(-10_000, 10_000), min_size=1, max_size=40))
    def test_outputs_in_unit_interval(self, values):
        floats = [float(v) for v in values]
        if len(set(floats)) < 2:
            return
        normalized = min_max_normalize(floats)
        assert min(normalized) == 0.0
        assert max(normalized) == 1.0
        assert all(0.0 <= v <= 1.0 for v in normalized)
