"""Acceptance criteria, one test per criterion.

A summary table (one PASS/FAIL line per criterion) is printed at the end
of the pytest run by the hook in ``conftest.py``.
"""

from __future__ import annotations

import os
import random
import time
import warnings
from fractions import Fraction
from pathlib import Path

import mpmath
import pytest

from helpers import dataset, ranking_from_scores
from leadalloc import resources
from leadalloc.allocation import allocate
from leadalloc.errors import DataQualityWarning
from leadalloc.evaluation import build_report, truncate_display
from leadalloc.ingest import parse_city_dataset, parse_model_runs, parse_targets
from leadalloc.model import Strategy, WeightVariant
from leadalloc.scoring import derive_weights, score_city, top_k
from leadalloc.stats import pearson

REPO_ROOT = Path(__file__).resolve().parent.parent


def test_criterion_1_bundled_runs_reproduce_recorded_accuracy_table():
    start = time.perf_counter()
    runs, _ = parse_model_runs(resources.model_runs_path())
    targets, _ = parse_targets(resources.targets_path())
    report = build_report(runs, targets, k=3)
    elapsed = time.perf_counter() - start

    assert [r.total_hits for r in report.per_run] == [6, 5, 3, 5, 2]
    assert all(r.denominator == 9 for r in report.per_run)
    assert [r.accuracy_exact for r in report.per_run] == [
        Fraction(6, 9),
        Fraction(5, 9),
        Fraction(3, 9),
        Fraction(5, 9),
        Fraction(2, 9),
    ]
    assert [r.accuracy_display for r in report.per_run] == [
        "0.66",
        "0.55",
        "0.33",
        "0.55",
        "0.22",
    ]
    assert (report.pooled_hits, report.pooled_denominator) == (21, 45)
    assert report.overall_mean_exact == Fraction(21, 45)
    assert report.overall_mean_display == "0.46"
    assert elapsed < 1.0


def test_criterion_2_weight_derivation_is_exact_for_both_variants():
    text = derive_weights(0.6, alpha=0.5, variant=WeightVariant.TEXT)
    assert text.beta == 0.35
    assert text.gamma == 0.30

    algorithm = derive_weights(0.6, alpha=0.5, variant=WeightVariant.ALGORITHM)
    assert algorithm.beta == 0.20
    assert algorithm.gamma == 0.60

    for variant in WeightVariant:
        config = derive_weights(0.0, alpha=0.5, variant=variant)
        assert config.beta == 0.5
        assert config.gamma == 0.0


def _exact_pearson(xs, ys):
    """Brute-force oracle: exact rational sums, 60-digit square root."""
    n = len(xs)
    fx = [Fraction(v) for v in xs]
    fy = [Fraction(v) for v in ys]
    mean_x = sum(fx) / n
    mean_y = sum(fy) / n
    sxy = sum((a - mean_x) * (b - mean_y) for a, b in zip(fx, fy))
    sxx = sum((a - mean_x) ** 2 for a in fx)
    syy = sum((b - mean_y) ** 2 for b in fy)
    if sxx == 0 or syy == 0:
        return None
    product = sxx * syy
    with mpmath.workdps(60):
        root = mpmath.sqrt(mpmath.mpf(product.numerator) / mpmath.mpf(product.denominator))
        value = mpmath.mpf(sxy.numerator) / mpmath.mpf(sxy.denominator) / root
        return float(value)


def test_criterion_3_pearson_matches_exact_arithmetic_oracle():
    rng = random.Random(34257)
    trials = 0
    while trials < 500:
        n = rng.randint(2, 50)
        xs = [rng.uniform(-100.0, 100.0) for _ in range(n)]
        ys = [rng.uniform(-100.0, 100.0) for _ in range(n)]
        expected = _exact_pearson(xs, ys)
        if expected is None:
            continue
        trials += 1

        r = pearson(xs, ys)
        assert abs(r - expected) <= 1e-12

        # Symmetry is bitwise.
        assert pearson(ys, xs) == r

        # Affine maps preserve |r| and transfer the scale's sign.
        a = rng.choice([-1.0, 1.0]) * rng.uniform(0.1, 10.0)
        b = rng.uniform(-50.0, 50.0)
        transformed = pearson([a * v + b for v in xs], ys)
        sign = 1.0 if a > 0 else -1.0
        assert abs(transformed - sign * r) <= 1e-12


def _random_city(rng, n):
    rows = []
    for i in range(n):
        rows.append(
            (
                f"area {i:02d}",
                rng.uniform(0.0, 50.0),
                rng.uniform(0.0, 100.0),
                rng.uniform(0.0, 100.0),
            )
        )
    return rows


def _affine_params(rng, column):
    if column == 1:  # prevalence: only non-negativity to preserve
        return rng.uniform(0.5, 4.0), rng.uniform(0.0, 10.0)
    a = rng.uniform(0.2, 0.9)  # percentages must stay within [0, 100]
    return a, rng.uniform(0.0, 100.0 * (1.0 - a))


def test_criterion_4_ranking_invariant_under_affine_column_maps():
    rng = random.Random(48620)
    checked = 0
    while checked < 250:
        rows = _random_city(rng, rng.randint(3, 12))
        coverage = [row[3] for row in rows]
        prevalence = [row[1] for row in rows]
        if abs(pearson(coverage, prevalence)) < 1e-6:
            continue  # keep the correlation sign unambiguous
        checked += 1

        with warnings.catch_warnings():
            warnings.simplefilter("ignore", DataQualityWarning)
            base = score_city(dataset(rows))
            for column in (1, 2, 3):
                a, b = _affine_params(rng, column)
                mapped = [
                    tuple(
                        a * value + b if index == column else value
                        for index, value in enumerate(row)
                    )
                    for row in rows
                ]
                other = score_city(dataset(mapped))
                assert other.names == base.names
                for before, after in zip(base.entries, other.entries):
                    assert abs(after.scaled_score - before.scaled_score) <= 1e-12


def test_criterion_5_allocation_conservation_quota_and_determinism():
    rng = random.Random(91537)
    for strategy in Strategy:
        for _ in range(1000):
            n = rng.randint(1, 15)
            scores = {f"area {i:02d}": rng.uniform(0.01, 10.0) for i in range(n)}
            ranking = ranking_from_scores(scores)
            budget = rng.randint(1, 5000)
            k = rng.randint(1, n)

            plan = allocate(ranking, budget, strategy, k=k)
            assert sum(entry.kits for entry in plan.allocations) == budget
            assert all(entry.kits >= 0 for entry in plan.allocations)
            assert allocate(ranking, budget, strategy, k=k) == plan

            if strategy is Strategy.PROPORTIONAL:
                weights = [Fraction(entry.raw_score) for entry in ranking.entries]
                total_weight = sum(weights)
                for weight, entry in zip(weights, plan.allocations):
                    ideal = Fraction(budget) * weight / total_weight
                    assert abs(Fraction(entry.kits) - ideal) < 1


def test_criterion_6_scaling_anchor_and_order_agreement():
    rng = random.Random(77113)
    rankings = []
    for _ in range(200):
        rows = _random_city(rng, rng.randint(2, 12))
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", DataQualityWarning)
            rankings.append(score_city(dataset(rows)))
    demo, _ = parse_city_dataset(resources.demo_dataset_path(), "demo")
    rankings.append(score_city(demo))

    for ranking in rankings:
        raw = [entry.raw_score for entry in ranking.entries]
        scaled = [entry.scaled_score for entry in ranking.entries]
        assert max(raw) > 0, "generated dataset was unexpectedly degenerate"
        assert scaled[0] == 10.0
        assert raw == sorted(raw, reverse=True)
        assert scaled == sorted(scaled, reverse=True)


def test_criterion_7_data_assembly_guide_is_documented():
    # Real per-neighborhood source tables are not redistributable, so
    # city-scale reference scores cannot be asserted here; the package must
    # instead document how to assemble the inputs. The optional live check
    # below runs only when a user supplies real data.
    readme = (REPO_ROOT / "README.md").read_text(encoding="utf-8")
    assert "## Assembling real city datasets" in readme
    for column in ("prevalence_per_1000", "untested_pct", "public_coverage_pct"):
        assert column in readme


@pytest.mark.skipif(
    "LEADALLOC_REAL_DATA_DIR" not in os.environ,
    reason="optional non-CI check: set LEADALLOC_REAL_DATA_DIR to a directory "
    "containing a real chicago.csv",
)
def test_criterion_7_optional_real_chicago_top3():
    directory = Path(os.environ["LEADALLOC_REAL_DATA_DIR"])
    chicago, _ = parse_city_dataset(directory / "chicago.csv", "chicago")
    ranking = score_city(chicago)
    assert {"englewood", "west englewood", "austin"} <= set(top_k(ranking, 3))


def test_criterion_8_displays_truncate_never_round():
    assert truncate_display(Fraction(6, 9)) == "0.66"
    assert truncate_display(Fraction(5, 9)) == "0.55"
    assert truncate_display(Fraction(21, 45)) == "0.46"
    # A rounding implementation renders these as 0.67 / 0.56 / 0.47.
    assert f"{6 / 9:.2f}" == "0.67" != truncate_display(Fraction(6, 9))
    assert f"{5 / 9:.2f}" == "0.56" != truncate_display(Fraction(5, 9))
    assert f"{21 / 45:.2f}" == "0.47" != truncate_display(Fraction(21, 45))
