"""Integer apportionment of a kit budget over a priority ranking.

Every strategy is a largest-remainder (Hamilton) apportionment of integer
weights in exact integer arithmetic, so every plan conserves the budget,
stays within one kit of its ideal share, and is bit-identical across
platforms. ``rank_weighted`` apportions the weights ``lcm(1..n) // rank``
without building them: see :func:`_rank_weighted_kits`.
"""

from __future__ import annotations

import math
import warnings
from itertools import compress, repeat
from operator import add, floordiv, itemgetter, methodcaller, mod, mul
from typing import Iterable, Mapping, Sequence

from .errors import DataQualityWarning, DomainValidationError
from .model import AllocationPlan, PriorityRanking, Strategy

DEFAULT_TOP_K = 3

# Fraction bits of the rank_weighted screen. Any width gives the exact plan;
# a wider one leaves fewer entries whose remainder must be computed exactly.
_SCREEN_BITS = 64


def largest_remainder(weights: Sequence[int], total: int) -> list[int]:
    """Apportion ``total`` units in proportion to non-negative integer weights.

    Each entry receives the floor of its exact quota
    ``total * weight / sum(weights)``; leftover units go to the largest
    remainders, earlier entries first on ties.
    """
    weight_sum = sum(weights)
    if weight_sum <= 0 or min(weights) < 0:
        raise DomainValidationError("weights must be non-negative with a positive sum")
    # Each share total·weight is made twice rather than held: it is wider than either result.
    kits = list(map(floordiv, map(mul, repeat(total), weights), repeat(weight_sum)))
    remainders = list(map(mod, map(mul, repeat(total), weights), repeat(weight_sum)))
    # The remainders sum to weight_sum·leftover and each is below weight_sum,
    # so more than ``leftover`` are nonzero: only those can win a unit.
    candidates = compress(range(len(weights)), remainders)
    _award_leftover(kits, remainders, candidates, total - sum(kits))
    return kits


def _rank_weighted_kits(n: int, total: int) -> list[int]:
    """``largest_remainder([L // rank for rank in 1..n], total)`` with ``L = lcm(1..n)``.

    Those weights are about 1.44·n bits each, so building them costs time and
    memory quadratic in ``n``. Instead, with ``S / L`` the harmonic number
    H_n, entry ``rank`` has the quota ``total·L / (S·rank)``, and one
    fixed-point constant ``scaled = total·L·2^B // S`` gives
    ``scaled // rank == floor(2^B · quota)`` exactly (nested floor division).
    Its high bits are the exact kit floor; its low ``B`` bits are the
    remainder truncated to ``B`` bits. Truncation keeps the order of any two
    remainders whose truncations differ, so only the entries whose truncated
    remainder equals that of the last entry to receive a leftover kit need
    their exact remainder ``total·(L // rank) mod S``.
    """
    harmonic, lcm = _harmonic_sum(1, n + 1)
    scaled = (total * lcm << _SCREEN_BITS) // harmonic
    kits = [scaled // (rank << _SCREEN_BITS) for rank in range(1, n + 1)]
    mask = (1 << _SCREEN_BITS) - 1
    screened = [scaled // rank & mask for rank in range(1, n + 1)]
    leftover = total - sum(kits)
    if not leftover:
        return kits
    cutoff = sorted(screened, reverse=True)[leftover - 1]
    tied = []
    for i, remainder in enumerate(screened):
        if remainder > cutoff:
            kits[i] += 1
            leftover -= 1
        elif remainder == cutoff:
            tied.append(i)
    exact = {i: total * (lcm // (i + 1)) % harmonic for i in tied}
    _award_leftover(kits, exact, tied, leftover)
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
    kits: list[int],
    remainders: Sequence[int] | Mapping[int, int],
    candidates: Iterable[int],
    leftover: int,
) -> None:
    """Give one more unit to each of the ``leftover`` candidates with the largest remainders.

    Candidates come in index order and a reverse sort is still stable, so
    equal remainders go to earlier entries first.
    """
    for i in sorted(candidates, key=remainders.__getitem__, reverse=True)[:leftover]:
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
    if total_kits < 1:
        raise DomainValidationError(f"total_kits must be >= 1, got {total_kits}")
    if floor < 0:
        raise DomainValidationError(f"floor must be non-negative, got {floor}")
    n = len(ranking)
    if floor * n > total_kits:
        raise DomainValidationError(
            f"floor of {floor} kits across {n} neighborhoods exceeds budget {total_kits}"
        )
    remaining = total_kits - floor * n

    if strategy is Strategy.PROPORTIONAL:
        # Raw scores are floats, so each is an exact ratio with a power-of-two
        # denominator; scaling to the largest one makes every weight integral.
        ratios = list(map(methodcaller("as_integer_ratio"), ranking.raw_scores))
        scale = max(map(itemgetter(1), ratios))
        multipliers = map(floordiv, repeat(scale), map(itemgetter(1), ratios))
        weights = list(map(mul, map(itemgetter(0), ratios), multipliers))
        # n pairs of ints, freed before apportioning builds lists of its own; map
        # stops at its first exhausted input, so ``multipliers`` still holds them.
        del ratios, multipliers
        if not any(weights):
            raise DomainValidationError(
                f"{ranking.city}: proportional allocation needs a positive raw score"
            )
        kits = largest_remainder(weights, remaining)
    elif strategy is Strategy.RANK_WEIGHTED:
        kits = _rank_weighted_kits(n, remaining)
    else:
        if k < 1:
            raise DomainValidationError(f"k must be >= 1, got {k}")
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
