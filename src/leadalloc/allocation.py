"""Integer apportionment of a kit budget over a priority ranking.

Every strategy is expressed as non-negative integer weights and
integerized by one largest-remainder (Hamilton) pass in exact integer
arithmetic, so every plan conserves the budget, stays within one kit of
its ideal share, and is bit-identical across platforms.
"""

from __future__ import annotations

import math
import warnings
from typing import Sequence

from .errors import DataQualityWarning, DomainValidationError
from .model import AllocationEntry, AllocationPlan, PriorityRanking, Strategy

DEFAULT_TOP_K = 3


def largest_remainder(weights: Sequence[int], total: int) -> list[int]:
    """Apportion ``total`` units in proportion to non-negative integer weights.

    Each entry receives the floor of its exact quota
    ``total * weight / sum(weights)``; leftover units go to the largest
    remainders, earlier entries first on ties.
    """
    weight_sum = sum(weights)
    if weight_sum <= 0 or min(weights) < 0:
        raise DomainValidationError("weights must be non-negative with a positive sum")
    kits = [total * weight // weight_sum for weight in weights]
    remainders = [total * weight % weight_sum for weight in weights]
    # A reverse sort is still stable, so equal remainders keep index order.
    by_remainder = sorted(range(len(weights)), key=remainders.__getitem__, reverse=True)
    for i in by_remainder[: total - sum(kits)]:
        kits[i] += 1
    return kits


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
    n = len(ranking.entries)
    if floor * n > total_kits:
        raise DomainValidationError(
            f"floor of {floor} kits across {n} neighborhoods exceeds budget {total_kits}"
        )

    if strategy is Strategy.PROPORTIONAL:
        # Raw scores are floats, so each is an exact ratio with a power-of-two
        # denominator; scaling to the largest one makes every weight integral.
        ratios = [entry.raw_score.as_integer_ratio() for entry in ranking.entries]
        if not any(numerator for numerator, _ in ratios):
            raise DomainValidationError(
                f"{ranking.city}: proportional allocation needs a positive raw score"
            )
        scale = max(denominator for _, denominator in ratios)
        weights = [numerator * (scale // denominator) for numerator, denominator in ratios]
    elif strategy is Strategy.RANK_WEIGHTED:
        scale = math.lcm(*range(1, n + 1))
        weights = [scale // position for position in range(1, n + 1)]
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
        weights = [1] * k + [0] * (n - k)

    kits = largest_remainder(weights, total_kits - floor * n)
    allocations = tuple(
        AllocationEntry(entry.name, floor + kit)
        for entry, kit in zip(ranking.entries, kits)
    )
    apportionment = "even_split" if strategy is Strategy.TOP_K_EQUAL else "largest_remainder"
    return AllocationPlan(
        city=ranking.city,
        total_kits=total_kits,
        allocations=allocations,
        strategy=strategy,
        apportionment=apportionment,
    )
