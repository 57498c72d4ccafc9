"""Weight derivation and priority-score ranking."""

from __future__ import annotations

import tracemalloc

import pytest

from helpers import dataset
from leadalloc.errors import DataQualityWarning, DomainValidationError
from leadalloc.ingest import parse_city_dataset
from leadalloc.model import WeightVariant
from leadalloc.scoring import derive_weights, score_city, top_k
from leadalloc.stats import pearson


class TestDeriveWeights:
    def test_text_variant_reference_values(self):
        config = derive_weights(0.6, alpha=0.5, variant=WeightVariant.TEXT)
        assert (config.beta, config.gamma) == (0.35, 0.30)

    def test_algorithm_variant_reference_values(self):
        config = derive_weights(0.6, alpha=0.5, variant=WeightVariant.ALGORITHM)
        assert (config.beta, config.gamma) == (0.20, 0.60)

    def test_zero_correlation_collapses_both_variants(self):
        for variant in WeightVariant:
            config = derive_weights(0.0, alpha=0.5, variant=variant)
            assert (config.beta, config.gamma) == (0.5, 0.0)

    def test_variant_accepts_strings(self):
        assert derive_weights(0.6, variant="text").gamma == 0.30
        assert derive_weights(0.6, variant="algorithm").gamma == 0.60

    def test_full_correlation(self):
        config = derive_weights(1.0, alpha=0.5, variant=WeightVariant.TEXT)
        assert (config.beta, config.gamma) == (0.25, 0.5)
        config = derive_weights(1.0, alpha=0.5, variant=WeightVariant.ALGORITHM)
        assert (config.beta, config.gamma) == (0.0, 1.0)

    def test_negative_correlation_clamped_with_warning(self):
        with pytest.warns(DataQualityWarning, match="clamped"):
            config = derive_weights(-0.3, alpha=0.5)
        assert (config.beta, config.gamma) == (0.5, 0.0)
        assert config.source_correlation == -0.3

    # 10**400 is past float range, and "0.5" is no number: both are checked before use.
    @pytest.mark.parametrize("alpha", [0.0, 1.0, -1.0, 2.0, 10**400, "0.5"])
    def test_alpha_must_be_in_open_interval(self, alpha):
        with pytest.raises(DomainValidationError) as caught:
            derive_weights(0.6, alpha=alpha)
        assert str(caught.value) == f"alpha must be in (0, 1), got {alpha}"

    @pytest.mark.parametrize("r", [-1.5, 1.5])
    def test_correlation_must_be_in_unit_interval(self, r):
        with pytest.raises(DomainValidationError, match="correlation"):
            derive_weights(r)

    def test_normalize_rescales_but_keeps_ratios(self):
        plain = derive_weights(0.6)
        unit = derive_weights(0.6, normalize=True)
        assert unit.normalized
        total = plain.alpha + plain.beta + plain.gamma
        assert unit.alpha == pytest.approx(plain.alpha / total, rel=1e-12)
        assert unit.beta / unit.alpha == pytest.approx(plain.beta / plain.alpha, rel=1e-12)


# Hand-derived four-row fixture (alpha=0.5, r=0.6, text variant => weights
# 0.5/0.35/0.30). Normalized columns and raw scores:
#   alder:   P'=1.0, U'=0.0, H'=0.5 -> 0.650
#   birch:   P'=0.8, U'=1.0, H'=0.5 -> 0.900
#   cedar:   P'=0.0, U'=0.4, H'=0.0 -> 0.140
#   dogwood: P'=0.4, U'=0.6, H'=1.0 -> 0.710
LINEAR_FIXTURE = [
    ("alder", 10.0, 0.0, 5.0),
    ("birch", 8.0, 5.0, 5.0),
    ("cedar", 0.0, 2.0, 0.0),
    ("dogwood", 4.0, 3.0, 10.0),
]


class TestScoreCity:
    def test_hand_derived_ranking(self):
        ranking = score_city(dataset(LINEAR_FIXTURE), r_override=0.6)
        assert ranking.names == ("birch", "dogwood", "alder", "cedar")
        raw = list(ranking.raw_scores)
        assert raw == pytest.approx([0.90, 0.71, 0.65, 0.14], abs=1e-12)
        scaled = list(ranking.scaled_scores)
        assert scaled[0] == 10.0
        assert scaled[1] == pytest.approx(10 * 0.71 / 0.90, abs=1e-12)
        assert scaled[3] == pytest.approx(10 * 0.14 / 0.90, abs=1e-12)

    def test_weights_recorded_on_ranking(self):
        ranking = score_city(dataset(LINEAR_FIXTURE), r_override=0.6)
        assert ranking.weights.source_correlation == 0.6
        assert (ranking.weights.beta, ranking.weights.gamma) == (0.35, 0.30)

    def test_correlation_computed_from_data_when_not_overridden(self):
        ds = dataset(LINEAR_FIXTURE)
        ranking = score_city(ds)
        coverage = list(ds.public_coverage_pct)
        prevalence = list(ds.prevalence)
        assert ranking.weights.source_correlation == pearson(coverage, prevalence)

    def test_variants_can_rank_differently(self):
        # Constant prevalence removes P; U and H then pull in different
        # directions under the two gamma rules.
        rows = [
            ("ash", 5.0, 100.0, 0.0),
            ("beech", 5.0, 0.0, 70.0),
            ("cypress", 5.0, 50.0, 100.0),
        ]
        with pytest.warns(DataQualityWarning, match="degenerate column"):
            text = score_city(dataset(rows), r_override=0.6, variant="text")
        with pytest.warns(DataQualityWarning, match="degenerate column"):
            algorithm = score_city(dataset(rows), r_override=0.6, variant="algorithm")
        assert text.names == ("cypress", "ash", "beech")
        assert algorithm.names == ("cypress", "beech", "ash")
        assert list(text.raw_scores) == pytest.approx(
            [0.475, 0.35, 0.21], abs=1e-12
        )
        assert list(algorithm.raw_scores) == pytest.approx(
            [0.70, 0.42, 0.20], abs=1e-12
        )

    def test_ties_break_by_name_ascending(self):
        rows = [
            ("zinnia", 4.0, 40.0, 40.0),
            ("aster", 4.0, 40.0, 40.0),
            ("maple", 8.0, 80.0, 80.0),
        ]
        ranking = score_city(dataset(rows), r_override=0.6)
        assert ranking.names == ("maple", "aster", "zinnia")

    def test_all_degenerate_columns_warn_and_zero(self):
        rows = [("a", 5.0, 40.0, 30.0), ("b", 5.0, 40.0, 30.0)]
        with pytest.warns(DataQualityWarning):
            ranking = score_city(dataset(rows), r_override=0.6)
        assert all(score == 0.0 for score in ranking.raw_scores)
        assert all(score == 0.0 for score in ranking.scaled_scores)

    def test_needs_at_least_two_records(self):
        with pytest.raises(DomainValidationError, match="at least 2"):
            score_city(dataset([("only", 1.0, 2.0, 3.0)]))

    def test_normalized_weights_do_not_change_order_or_scaled_scores(self):
        plain = score_city(dataset(LINEAR_FIXTURE), r_override=0.6)
        unit = score_city(
            dataset(LINEAR_FIXTURE), r_override=0.6, normalize_weights=True
        )
        assert unit.names == plain.names
        for a, b in zip(plain.scaled_scores, unit.scaled_scores):
            assert b == pytest.approx(a, abs=1e-12)

    def test_alpha_changes_emphasis(self):
        # alpha -> 1 leans entirely on prevalence: alder (max P) wins.
        ranking = score_city(dataset(LINEAR_FIXTURE), alpha=0.99, r_override=0.6)
        assert ranking.names[0] == "alder"


class TestTopK:
    def test_first_k_names(self):
        ranking = score_city(dataset(LINEAR_FIXTURE), r_override=0.6)
        assert top_k(ranking, 2) == ["birch", "dogwood"]

    def test_k_beyond_length_truncates(self):
        ranking = score_city(dataset(LINEAR_FIXTURE), r_override=0.6)
        assert top_k(ranking, 99) == ["birch", "dogwood", "alder", "cedar"]

    def test_k_must_be_positive(self):
        ranking = score_city(dataset(LINEAR_FIXTURE), r_override=0.6)
        with pytest.raises(DomainValidationError, match="k must be"):
            top_k(ranking, 0)


def test_score_holds_no_normalized_column(tmp_path):
    # At 20,000 rows with one extra factor, holding the three normalized
    # columns as lists while summing the raw scores peaked 2.61 MB above the
    # 2.01 MB the dataset holds, under tracemalloc here; reading them as the
    # sum is made peaked 1.93 MB above it, and holding the raw scores and the
    # correlation's deviations as float64 columns, not float objects, peaks
    # 1.76 MB above it. The bound is absolute: the dataset's size is too close
    # to that peak to bound it by.
    path = tmp_path / "city.csv"
    rows = (
        f"area {i},{i % 41 / 2},{5 + i % 61},{min(100, i % 41 + i % 7)},{i % 90}\n"
        for i in range(20_000)
    )
    header = "neighborhood,prevalence_per_1000,untested_pct,public_coverage_pct,pipe_age_yr\n"
    path.write_text(header + "".join(rows), encoding="utf-8")
    tracemalloc.start()
    try:
        parsed, _ = parse_city_dataset(path, "chicago")
        held = tracemalloc.get_traced_memory()[0]
        tracemalloc.reset_peak()
        ranking = score_city(parsed)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert len(ranking) == 20_000
    assert peak - held < 2_350_000
