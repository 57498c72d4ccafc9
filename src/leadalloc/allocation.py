"""Integer apportionment of a kit budget over a priority ranking.

Every strategy is a largest-remainder (Hamilton) apportionment of integer
weights in exact integer arithmetic, so every plan conserves the budget,
stays within one kit of its ideal share, and is bit-identical across
platforms. All three strategies share one leftover award, :func:`_award_leftover`.
``rank_weighted`` apportions the weights ``lcm(1..n) // rank`` without
building them: see :func:`_rank_weighted_kits`.
"""

from __future__ import annotations

import math
import warnings
from itertools import compress, islice, repeat
from operator import add, eq, floordiv, gt, mod, mul
from typing import Callable, Sequence

from .errors import DataQualityWarning, DomainValidationError
from .model import DEFAULT_TOP_K, AllocationPlan, PriorityRanking, Strategy, check_count

# Fraction bits of the rank_weighted screen. Any width gives the exact plan;
# a wider one leaves fewer entries whose remainder must be computed exactly.
_SCREEN_BITS = 64


def largest_remainder(weights: Sequence[int], total: int) -> list[int]:
    """Apportion ``total`` units in proportion to non-negative integer weights.

    Hamilton's method: each entry receives the floor of its exact quota
    ``total * weight / sum(weights)``; leftover units go to the largest
    remainders, earlier entries first on ties. The remainders sum to
    ``sum(weights)`` times the leftover and each is below ``sum(weights)``,
    so more remainders than leftover units are nonzero: the cutoff of
    :func:`_award_leftover` is positive, and a zero remainder never wins a
    unit. Besides the result it holds one list of remainders and one sorted
    copy of it.
    """
    weight_sum = sum(weights)
    if weight_sum <= 0 or min(weights) < 0:
        raise DomainValidationError("weights must be non-negative with a positive sum")
    # Each share total·weight is made twice rather than held: it is wider than either result.
    kits = list(map(floordiv, map(mul, repeat(total), weights), repeat(weight_sum)))
    remainders = list(map(mod, map(mul, repeat(total), weights), repeat(weight_sum)))
    _award_leftover(kits, remainders, total - sum(kits))
    return kits


def _rank_weighted_kits(n: int, total: int) -> list[int]:
    """``largest_remainder([L // rank for rank in 1..n], total)`` with ``L = lcm(1..n)``.

    Those weights are about 1.44·n bits each, so building them costs time and
    memory quadratic in ``n``. Instead, with ``S / L`` the harmonic number
    H_n, entry ``rank`` has the quota ``total·L / (S·rank)``, and one
    fixed-point constant ``scaled = total·L·2^B // S`` gives
    ``scaled // rank == floor(2^B · quota)`` exactly (nested floor division).
    Its high bits are the exact kit floor; its low ``B`` bits are the
    remainder truncated to ``B`` bits, which :func:`_award_leftover` ranks;
    only the entries tied at its cutoff need their exact remainder
    ``total·(L // rank) mod S``.
    """
    harmonic, lcm = _harmonic_sum(1, n + 1)
    scaled = (total * lcm << _SCREEN_BITS) // harmonic
    kits = [scaled // (rank << _SCREEN_BITS) for rank in range(1, n + 1)]
    mask = (1 << _SCREEN_BITS) - 1
    screened = [scaled // rank & mask for rank in range(1, n + 1)]
    _award_leftover(
        kits, screened, total - sum(kits), lambda i: total * (lcm // (i + 1)) % harmonic
    )
    return kits


def _harmonic_sum(lo: int, hi: int) -> tuple[int, int]:
    """``(S, L)`` with ``L = lcm(lo..hi-1)`` and ``S / L`` the sum of ``1/j`` over that range.

    Binary splitting: each half's sum stays over its own lcm, so no operand
    is wider than the lcm of the range it covers.
    """
    if hi - lo == 1:
        return 1, lo
    mid = (lo + hi) // 2
    left_sum, left_lcm = _harmonic_sum(lo, mid)
    right_sum, right_lcm = _harmonic_sum(mid, hi)
    lcm = math.lcm(left_lcm, right_lcm)
    return left_sum * (lcm // left_lcm) + right_sum * (lcm // right_lcm), lcm


def _award_leftover(
    kits: list[int], remainders: Sequence[int], leftover: int, exact: Callable | None = None
) -> None:
    """Give one more unit to each of the ``leftover`` entries with the largest remainders.

    ``remainders[i]`` is the remainder of ``kits[i]``, or a truncation of it
    if ``exact(i)`` gives the exact one. The cutoff is the ``leftover``-th
    largest remainder: every entry above it gets a unit, and the rest go to
    the entries equal to it, by ``exact`` descending if given, earlier
    entries first on ties. Truncation keeps the order of two remainders whose
    truncations differ, so that is the first ``leftover`` entries of a stable
    sort by exact remainder, descending; it holds only the sorted remainders
    and the tied entries, not an index per entry.
    """
    if not leftover:
        return
    cutoff = sorted(remainders, reverse=True)[leftover - 1]
    for i in compress(range(len(kits)), map(gt, remainders, repeat(cutoff))):
        kits[i] += 1
        leftover -= 1
    tied = compress(range(len(kits)), map(eq, remainders, repeat(cutoff)))
    if exact is not None:
        tied = sorted(tied, key=exact, reverse=True)
    for i in islice(tied, leftover):
        kits[i] += 1


def allocate(
    ranking: PriorityRanking,
    total_kits: int,
    strategy: Strategy | str = Strategy.PROPORTIONAL,
    *,
    k: int = DEFAULT_TOP_K,
    floor: int = 0,
) -> AllocationPlan:
    """Apportion ``total_kits`` across the ranking under a strategy.

    ``floor`` guarantees every ranked neighborhood that many kits before
    the strategy divides the remainder; ``k`` only applies to
    ``top_k_equal``.
    """
    strategy = Strategy(strategy)
    check_count("total_kits", total_kits)
    if type(floor) is not int or floor < 0:
        raise DomainValidationError(f"floor must be a non-negative int, got {floor!r}")
    n = len(ranking)
    if floor * n > total_kits:
        raise DomainValidationError(
            f"floor of {floor} kits across {n} neighborhoods exceeds budget {total_kits}"
        )
    remaining = total_kits - floor * n

    if strategy is Strategy.PROPORTIONAL:
        # Raw scores are floats, so each is an exact ratio with a power-of-two
        # denominator; scaling to the largest one makes every weight integral.
        # The ratios are made again rather than held: a pair of ints per entry
        # would outweigh the weights.
        scale = max(score.as_integer_ratio()[1] for score in ranking.raw_scores)
        ratios = (score.as_integer_ratio() for score in ranking.raw_scores)
        weights = [num * (scale // den) for num, den in ratios]
        if not any(weights):
            raise DomainValidationError(
                f"{ranking.city}: proportional allocation needs a positive raw score"
            )
        kits = largest_remainder(weights, remaining)
    elif strategy is Strategy.RANK_WEIGHTED:
        kits = _rank_weighted_kits(n, remaining)
    else:
        check_count("k", k)
        if k > n:
            warnings.warn(
                f"k={k} exceeds the {n} ranked neighborhoods; truncated to {n}",
                DataQualityWarning,
                stacklevel=2,
            )
            k = n
        kits = largest_remainder([1] * k + [0] * (n - k), remaining)

    return AllocationPlan(
        ranking.city,
        total_kits,
        ranking.names,
        map(add, kits, repeat(floor)) if floor else kits,
        strategy,
    )
