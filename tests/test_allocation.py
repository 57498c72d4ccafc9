"""Integer apportionment of kit budgets."""

from __future__ import annotations

import math
import tracemalloc
import warnings
from fractions import Fraction
from itertools import compress

import pytest
from hypothesis import assume, given
from hypothesis import strategies as st

from helpers import ranking_from_scores
from leadalloc import allocation
from leadalloc.allocation import allocate, largest_remainder
from leadalloc.errors import DataQualityWarning, DomainValidationError
from leadalloc.model import Strategy


class TestLargestRemainder:
    def test_exact_shares_pass_through(self):
        assert largest_remainder([5, 3, 2], 10) == [5, 3, 2]

    def test_equal_remainders_resolve_to_earlier_entries(self):
        assert largest_remainder([1, 1, 1], 100) == [34, 33, 33]

    def test_largest_fraction_wins_leftover(self):
        assert largest_remainder([27, 51, 22], 10) == [3, 5, 2]

    def test_weights_need_a_positive_sum(self):
        with pytest.raises(DomainValidationError, match="positive sum"):
            largest_remainder([0, 0], 10)
        with pytest.raises(DomainValidationError, match="non-negative"):
            largest_remainder([3, -1], 10)

    @given(
        st.lists(st.integers(0, 1000), min_size=1, max_size=20).filter(
            lambda weights: sum(weights) > 0
        ),
        st.integers(1, 5000),
    )
    def test_conserves_and_stays_within_quota(self, weights, total):
        kits = largest_remainder(weights, total)
        assert sum(kits) == total
        for kit, weight in zip(kits, weights):
            assert abs(Fraction(kit) - Fraction(total * weight, sum(weights))) < 1


def award_by_sort(kits, remainders, candidates, leftover):
    """The leftover award as a stable reverse sort of candidate indices: the reference.

    ``remainders`` maps each candidate index to its remainder.
    """
    for i in sorted(candidates, key=remainders.__getitem__, reverse=True)[:leftover]:
        kits[i] += 1


def largest_remainder_by_sort(weights, total):
    """Hamilton's method with the sorting award over the nonzero remainders only."""
    weight_sum = sum(weights)
    kits = [total * weight // weight_sum for weight in weights]
    remainders = [total * weight % weight_sum for weight in weights]
    candidates = compress(range(len(weights)), remainders)
    award_by_sort(kits, remainders, candidates, total - sum(kits))
    return kits


# Few distinct values, zeros among them, so most draws hold ties and zero remainders.
TIED_INTS = st.sampled_from([0, 0, 0, 1, 2, 3, 10**20]) | st.integers(0, 10**30)


@given(st.lists(TIED_INTS, max_size=40), st.data())
def test_award_matches_the_sorting_award(remainders, data):
    n = len(remainders)
    leftover = data.draw(st.integers(0, n), label="leftover")
    kits = data.draw(st.lists(st.integers(0, 5), min_size=n, max_size=n))
    expected = list(kits)
    award_by_sort(expected, remainders, range(n), leftover)
    allocation._award_leftover(kits, remainders, leftover)
    assert kits == expected


@given(st.lists(st.integers(0, 63) | TIED_INTS, max_size=40), st.integers(1, 8), st.data())
def test_award_of_truncated_remainders_orders_the_tied_by_the_exact_ones(exact, shift, data):
    # As rank_weighted passes them: truncations screen, and the exact key breaks their ties.
    n = len(exact)
    leftover = data.draw(st.integers(0, n), label="leftover")
    kits = data.draw(st.lists(st.integers(0, 5), min_size=n, max_size=n))
    expected = list(kits)
    award_by_sort(expected, exact, range(n), leftover)
    truncated = [remainder >> shift for remainder in exact]
    allocation._award_leftover(kits, truncated, leftover, exact=exact.__getitem__)
    assert kits == expected


@given(
    st.lists(TIED_INTS, min_size=1, max_size=40),
    st.integers(1, 10**6) | st.sampled_from([1, 2, 7, 60]),
)
def test_largest_remainder_matches_the_sorting_award(weights, total):
    assume(sum(weights) > 0)
    assert largest_remainder(weights, total) == largest_remainder_by_sort(weights, total)


class TestAllocateProportional:
    def test_exact_proportions(self):
        ranking = ranking_from_scores({"a": 0.5, "b": 0.25, "c": 0.25})
        plan = allocate(ranking, 100)
        assert list(plan.kits) == [50, 25, 25]
        assert list(plan.names) == ["a", "b", "c"]

    def test_single_entry_takes_everything(self):
        plan = allocate(ranking_from_scores({"solo": 1.0}), 1000)
        assert list(plan.kits) == [1000]

    def test_plan_metadata(self):
        plan = allocate(ranking_from_scores({"a": 2.0, "b": 1.0}), 9, "proportional")
        assert plan.strategy is Strategy.PROPORTIONAL
        assert plan.apportionment == "largest_remainder"
        assert plan.total_kits == 9
        assert plan.city == "demo"

    def test_zero_scores_cannot_be_apportioned(self):
        ranking = ranking_from_scores({"a": 0.0, "b": 0.0})
        with pytest.raises(DomainValidationError, match="positive raw score"):
            allocate(ranking, 10)

    def test_floor_guarantees_minimum(self):
        ranking = ranking_from_scores({"a": 100.0, "b": 1.0, "c": 1.0})
        plan = allocate(ranking, 102, floor=10)
        kits = list(plan.kits)
        assert sum(kits) == 102
        assert all(k >= 10 for k in kits)

    def test_floor_exceeding_budget_rejected(self):
        ranking = ranking_from_scores({"a": 1.0, "b": 1.0})
        with pytest.raises(DomainValidationError, match="exceeds budget"):
            allocate(ranking, 10, floor=6)

    def test_budget_must_be_positive(self):
        ranking = ranking_from_scores({"a": 1.0})
        with pytest.raises(DomainValidationError, match="total_kits"):
            allocate(ranking, 0)

    def test_negative_floor_rejected(self):
        ranking = ranking_from_scores({"a": 1.0})
        with pytest.raises(DomainValidationError, match="floor"):
            allocate(ranking, 10, floor=-1)

    @pytest.mark.parametrize(
        ("total_kits", "options", "message"),
        [
            (10, dict(floor=0.5), "floor must be a non-negative int, got 0.5"),
            (10, dict(floor=True), "floor must be a non-negative int, got True"),
            (10.5, {}, "total_kits must be an int >= 1, got 10.5"),
            (True, {}, "total_kits must be an int >= 1, got True"),
            (10, dict(strategy="top_k_equal", k=1.5), "k must be an int >= 1, got 1.5"),
        ],
    )
    def test_a_count_that_is_no_int_is_rejected(self, total_kits, options, message):
        # A float floor once gave kits of 6.5 and 3.5; a float budget or k died with TypeError.
        ranking = ranking_from_scores({"a": 2.0, "b": 1.0})
        with pytest.raises(DomainValidationError) as raised:
            allocate(ranking, total_kits, **options)
        assert str(raised.value) == message

    def test_unknown_strategy_rejected(self):
        # As an unknown unit kind or weight variant is: a library caller's fault, not a ValueError.
        ranking = ranking_from_scores({"a": 1.0})
        with pytest.raises(DomainValidationError, match="^unknown strategy 'nope'$"):
            allocate(ranking, 10, "nope")


class TestAllocateTopKEqual:
    def test_remainder_goes_to_leading_entries(self):
        ranking = ranking_from_scores({"a": 5.0, "b": 4.0, "c": 3.0, "d": 2.0, "e": 1.0})
        plan = allocate(ranking, 1000, Strategy.TOP_K_EQUAL, k=3)
        assert list(plan.kits) == [334, 333, 333, 0, 0]
        assert plan.apportionment == "even_split"

    def test_k_one_is_winner_take_all(self):
        ranking = ranking_from_scores({"a": 5.0, "b": 4.0})
        plan = allocate(ranking, 7, Strategy.TOP_K_EQUAL, k=1)
        assert list(plan.kits) == [7, 0]

    def test_k_beyond_ranking_warns_and_truncates(self):
        ranking = ranking_from_scores({"a": 2.0, "b": 1.0})
        with pytest.warns(DataQualityWarning, match="exceeds"):
            plan = allocate(ranking, 10, Strategy.TOP_K_EQUAL, k=5)
        assert list(plan.kits) == [5, 5]

    def test_k_must_be_positive(self):
        ranking = ranking_from_scores({"a": 1.0, "b": 1.0})
        with pytest.raises(DomainValidationError, match="k must be"):
            allocate(ranking, 10, Strategy.TOP_K_EQUAL, k=0)

    def test_floor_composes_with_top_k(self):
        ranking = ranking_from_scores({"a": 3.0, "b": 2.0, "c": 1.0})
        plan = allocate(ranking, 32, Strategy.TOP_K_EQUAL, k=2, floor=4)
        assert list(plan.kits) == [14, 14, 4]


class TestAllocateRankWeighted:
    def test_harmonic_weights(self):
        # Weights 1, 1/2, 1/3 over 11 kits: shares 6, 3, 2 exactly.
        ranking = ranking_from_scores({"a": 9.0, "b": 8.0, "c": 7.0})
        plan = allocate(ranking, 11, Strategy.RANK_WEIGHTED)
        assert list(plan.kits) == [6, 3, 2]

    def test_position_not_score_drives_shares(self):
        close = ranking_from_scores({"a": 9.0, "b": 8.999, "c": 8.998})
        spread = ranking_from_scores({"a": 9.0, "b": 0.2, "c": 0.1})
        kits_close = list(allocate(close, 600, "rank_weighted").kits)
        kits_spread = list(allocate(spread, 600, "rank_weighted").kits)
        assert kits_close == kits_spread


@given(
    st.dictionaries(
        st.sampled_from([f"area {i:02d}" for i in range(12)]),
        st.floats(0.01, 10.0, allow_nan=False),
        min_size=1,
        max_size=12,
    ),
    st.integers(1, 5000),
    st.sampled_from(list(Strategy)),
)
def test_every_strategy_conserves_the_budget(scores, budget, strategy):
    ranking = ranking_from_scores(scores)
    k = max(1, min(3, len(ranking)))
    plan = allocate(ranking, budget, strategy, k=k)
    assert sum(plan.kits) == budget
    assert all(kits >= 0 for kits in plan.kits)
    assert allocate(ranking, budget, strategy, k=k) == plan


def fraction_allocate(ranking, total_kits, strategy, k, floor):
    """Kit counts by exact rational shares: the reference the integer kernel must match."""
    n = len(ranking)
    remaining = total_kits - floor * n
    if strategy is Strategy.TOP_K_EQUAL:
        k = min(k, n)
        base, extra = divmod(remaining, k)
        kits = [base + 1 if i < extra else base if i < k else 0 for i in range(n)]
    else:
        if strategy is Strategy.PROPORTIONAL:
            weights = [Fraction(raw) for raw in ranking.raw_scores]
        else:
            weights = [Fraction(1, position) for position in range(1, n + 1)]
        total_weight = sum(weights)
        ideals = [remaining * w / total_weight for w in weights]
        kits = [int(ideal) for ideal in ideals]
        by_remainder = sorted(range(n), key=lambda i: (kits[i] - ideals[i], i))
        for i in by_remainder[: remaining - sum(kits)]:
            kits[i] += 1
    return [floor + kit for kit in kits]


@given(st.sampled_from(list(Strategy)), st.integers(1, 5000), st.integers(1, 35), st.data())
def test_integer_kernel_matches_fraction_reference(strategy, budget, k, data):
    # rank_weighted screens its remainders, so it is checked on longer rankings.
    size = 300 if strategy is Strategy.RANK_WEIGHTED else 30
    scores = data.draw(
        st.dictionaries(
            st.sampled_from([f"area {i:03d}" for i in range(size)]),
            st.floats(0.0, 10.0),
            min_size=1,
            max_size=size,
        ),
        label="scores",
    )
    ranking = ranking_from_scores(scores)
    n = len(ranking)
    assume(strategy is not Strategy.PROPORTIONAL or any(scores.values()))
    floor = data.draw(st.integers(0, budget // n), label="floor")
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", DataQualityWarning)
        plan = allocate(ranking, budget, strategy, k=k, floor=floor)
    expected = fraction_allocate(ranking, budget, strategy, k, floor)
    assert list(plan.kits) == expected


def lcm_rank_weighted(n, total):
    """rank_weighted as integer weights lcm(1..n) // rank, apportioned by largest remainder."""
    scale = math.lcm(*range(1, n + 1))
    weights = [scale // rank for rank in range(1, n + 1)]
    weight_sum = sum(weights)
    kits = [total * weight // weight_sum for weight in weights]
    remainders = [total * weight % weight_sum for weight in weights]
    by_remainder = sorted(range(n), key=remainders.__getitem__, reverse=True)
    for i in by_remainder[: total - sum(kits)]:
        kits[i] += 1
    return kits


SWEEP_BUDGETS = [*range(1, 51), 360, 2520, 27720, 2**53 + 1, 10**12, 10**30]


def test_rank_weighted_matches_lcm_weights_exhaustively():
    for n in range(1, 151):
        ranking = ranking_from_scores({f"area {i:03d}": float(n - i) for i in range(n)})
        for budget in SWEEP_BUDGETS:
            for floor in {0, budget // n // 2}:
                plan = allocate(ranking, budget, Strategy.RANK_WEIGHTED, floor=floor)
                expected = [floor + kit for kit in lcm_rank_weighted(n, budget - floor * n)]
                assert list(plan.kits) == expected, (n, budget, floor)


@pytest.mark.parametrize("bits", [0, 1, 4])
def test_rank_weighted_is_exact_at_any_screen_width(monkeypatch, bits):
    # A narrow screen ties many remainders, so the exact resolution decides them.
    monkeypatch.setattr(allocation, "_SCREEN_BITS", bits)
    for n in range(1, 61):
        ranking = ranking_from_scores({f"area {i:03d}": float(n - i) for i in range(n)})
        for budget in SWEEP_BUDGETS:
            plan = allocate(ranking, budget, Strategy.RANK_WEIGHTED)
            assert list(plan.kits) == lcm_rank_weighted(n, budget)


def test_rank_weighted_memory_is_linear_in_n():
    n = 20_000
    ranking = ranking_from_scores({f"area {i:05d}": float(n - i) for i in range(n)})
    tracemalloc.start()
    try:
        allocate(ranking, 10**12, Strategy.RANK_WEIGHTED)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    # Weights of lcm(1..n) // rank, about 1.44·n bits each, peaked near 150 MB here.
    assert peak < 16_000_000


@pytest.mark.parametrize("strategy", list(Strategy))
def test_plan_shares_the_names_of_its_ranking(strategy):
    ranking = ranking_from_scores({"a": 3.0, "b": 2.0, "c": 1.0})
    plan = allocate(ranking, 10, strategy, k=2, floor=1)
    assert plan.names is ranking.names
    assert type(plan.kits) is tuple and sum(plan.kits) == 10


def test_top_k_equal_builds_no_object_per_entry():
    # The plan holds the ranking's names and a tuple of kit counts, so its
    # peak is the apportionment's lists of one pointer per entry. Building
    # an entry object per neighborhood, as before plans were held as columns,
    # peaked at 1.65 MB under tracemalloc here; the columns peak at 0.51 MB.
    n = 20_000
    ranking = ranking_from_scores({f"area {i:05d}": 1 - i / n for i in range(n)})
    tracemalloc.start()
    try:
        plan = allocate(ranking, 50_000, Strategy.TOP_K_EQUAL, k=2000)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert plan.kits[:2] == (25, 25) and plan.kits[-1] == 0
    assert peak < 1_000_000


def test_proportional_holds_no_pair_per_entry():
    # The apportionment's peak above what the ranking holds must stay below
    # 2.24 MB. At 20,000 entries, holding each raw score's (numerator,
    # denominator) pair and an index per remainder candidate peaked at
    # 3.43 MB above a ranking of 3.01 MB under tracemalloc on CPython 3.11;
    # without them the peak is 2.18 MB. The bound is what a ranking holding
    # its raw scores as a tuple held, 2.24 MB; as a float64 column it holds
    # 1.78 MB.
    n = 20_000
    tracemalloc.start()
    try:
        ranking = ranking_from_scores({f"area {i} heights": 1 - i / n for i in range(n)})
        held = tracemalloc.get_traced_memory()[0]
        tracemalloc.reset_peak()
        plan = allocate(ranking, 50_000)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert sum(plan.kits) == 50_000
    assert peak - held < 2_240_000
