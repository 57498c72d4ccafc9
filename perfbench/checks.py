"""Output checks for every benchmark call, with the benchmark's own oracles.

Nothing here imports leadalloc. Each ``check_*`` function raises
:class:`CheckFailed` on the first mismatch; the benchmark counts the job as
failed and never retries it.
"""

from __future__ import annotations

import json
import math
from pathlib import Path

from inputs import CityInput


class CheckFailed(Exception):
    pass


def _require(condition: bool, message: str) -> None:
    if not condition:
        raise CheckFailed(message)


# --- apportionment oracle -------------------------------------------------


def hamilton(weights: list[int], total: int) -> list[int]:
    """Largest-remainder apportionment of ``total`` over integer weights.

    Each entry gets the floor of its exact share; the leftover units go to
    the largest remainders, earlier entries first on ties.
    """
    weight_sum = sum(weights)
    quotas, remainders = zip(*(divmod(total * w, weight_sum) for w in weights))
    quotas = list(quotas)
    leftover = total - sum(quotas)
    for i in sorted(range(len(weights)), key=lambda i: (-remainders[i], i))[:leftover]:
        quotas[i] += 1
    return quotas


def proportional_weights(raw_scores: list[float]) -> list[int]:
    """Raw scores as integers over one common power-of-two denominator."""
    ratios = [score.as_integer_ratio() for score in raw_scores]
    denominator = max(den for _, den in ratios)
    return [num * (denominator // den) for num, den in ratios]


def rank_weights(n: int) -> list[int]:
    """Weights proportional to 1/rank: lcm(1..n) // rank."""
    lcm = 1
    for i in range(2, n + 1):
        lcm = lcm * i // math.gcd(lcm, i)
    return [lcm // rank for rank in range(1, n + 1)]


def top_k_weights(n: int, k: int) -> list[int]:
    k = min(k, n)
    return [1] * k + [0] * (n - k)


def check_quotas(kits: list[int], weights: list[int], total_kits: int, floor: int) -> None:
    """Budget conservation, each quota within one kit, and the exact Hamilton plan."""
    _require(sum(kits) == total_kits, f"plan assigns {sum(kits)} kits, budget is {total_kits}")
    remaining = total_kits - floor * len(kits)
    weight_sum = sum(weights)
    for position, (assigned, weight) in enumerate(zip(kits, weights)):
        # |quota - remaining * w / W| < 1, in integers.
        gap = (assigned - floor) * weight_sum - remaining * weight
        _require(abs(gap) < weight_sum, f"quota at position {position + 1} is off its share by a kit or more")
    expected = [floor + quota for quota in hamilton(weights, remaining)]
    mismatches = [i for i, (a, b) in enumerate(zip(kits, expected)) if a != b]
    _require(not mismatches, f"{len(mismatches)} quota(s) differ from the exact largest-remainder plan")


# --- ranking --------------------------------------------------------------


def _pearson(xs: list[float], ys: list[float]) -> float:
    n = len(xs)
    mean_x = math.fsum(xs) / n
    mean_y = math.fsum(ys) / n
    sxx = math.fsum((x - mean_x) ** 2 for x in xs)
    syy = math.fsum((y - mean_y) ** 2 for y in ys)
    sxy = math.fsum((x - mean_x) * (y - mean_y) for x, y in zip(xs, ys))
    return sxy / math.sqrt(sxx * syy)


def _normalized(values: list[float]) -> list[float]:
    lo, hi = min(values), max(values)
    return [(v - lo) / (hi - lo) for v in values]


def check_ranking_entries(names: list[str], raws: list[float], scaled: list[float]) -> int:
    """Sorted by raw score with the name tie-break, top scaled score exactly 10.0.

    Returns the number of adjacent exact ties.
    """
    _require(bool(names), "ranking has no entries")
    keys = [(-raw, name) for raw, name in zip(raws, names)]
    _require(all(a < b for a, b in zip(keys, keys[1:])), "ranking is not sorted by (-raw score, name)")
    _require(scaled[0] == 10.0, f"top scaled score is {scaled[0]!r}, not exactly 10.0")
    top = raws[0]
    _require(
        all(abs(s - 10.0 * (raw / top)) <= 1e-9 for s, raw in zip(scaled, raws)),
        "scaled scores are not 10 * raw / top raw",
    )
    return sum(1 for a, b in zip(raws, raws[1:]) if a == b)


def read_ranking(path: Path) -> dict:
    doc = json.loads(path.read_text(encoding="utf-8"))
    entries = doc["entries"]
    return {
        "doc": doc,
        "names": [e["neighborhood"] for e in entries],
        "raws": [e["raw_score"] for e in entries],
        "scaled": [e["scaled_score"] for e in entries],
    }


def check_score_ranking(path: Path, city: CityInput) -> dict:
    """The ranking ``score --out`` wrote: order, anchor, names, weights and raw scores."""
    ranking = read_ranking(path)
    names, raws = ranking["names"], ranking["raws"]
    ranking["ties"] = check_ranking_entries(names, raws, ranking["scaled"])
    _require(set(names) == set(city.kept) and len(names) == len(city.kept),
             "ranked names differ from the rows that should be kept")
    rows = [city.kept[name] for name in names]
    prevalence = [row.prevalence for row in rows]
    untested = [row.untested for row in rows]
    coverage = [row.coverage for row in rows]
    weights = ranking["doc"]["weights"]
    alpha, beta, gamma = weights["alpha"], weights["beta"], weights["gamma"]
    r = _pearson(coverage, prevalence)
    _require(abs(weights["source_correlation"] - r) <= 1e-9, "source correlation differs from Pearson(H, P)")
    expected_gamma = min(max(r, 0.0), 1.0) * (1 - alpha)
    _require(abs(gamma - expected_gamma) <= 1e-9, "gamma does not follow the text rule")
    _require(abs(beta - (1 - alpha) * (1 - expected_gamma)) <= 1e-9, "beta does not follow the text rule")
    expected = [
        alpha * p + beta * u + gamma * h
        for p, u, h in zip(_normalized(prevalence), _normalized(untested), _normalized(coverage))
    ]
    _require(all(abs(a - b) <= 1e-12 for a, b in zip(raws, expected)), "raw scores differ from the oracle")
    return ranking


# --- CLI stdout -----------------------------------------------------------


def _lines(stdout: bytes) -> list[str]:
    return stdout.decode("utf-8").splitlines()


def check_score_table(stdout: bytes, ranking: dict, city: CityInput) -> None:
    """The score table lists the ranking in order with each row's input values."""
    lines = _lines(stdout)
    _require(len(lines) == 3 + len(ranking["names"]), "score table has the wrong number of rows")
    _require(lines[0].startswith(f"city: {city.city} "), "score table names the wrong city")
    for position, (line, name) in enumerate(zip(lines[3:], ranking["names"]), start=1):
        cells = line.split()
        row = city.kept[name]
        expected = [f"{v:g}" for v in (row.prevalence, row.untested, row.coverage)]
        _require(
            cells[0] == str(position) and " ".join(cells[1:-5]) == name and cells[-3:] == expected,
            f"score table row {position} does not match the ranking and inputs",
        )


def check_correlate_table(stdout: bytes, city: CityInput) -> None:
    """One row per factor, with the pair count and r to two decimals."""
    rows = list(city.kept.values())
    columns = {
        "untested_pct": [(row.untested, row.prevalence) for row in rows],
        "public_coverage_pct": [(row.coverage, row.prevalence) for row in rows],
        city.extra_factor: [(row.extra, row.prevalence) for row in rows if row.extra is not None],
    }
    lines = _lines(stdout)
    _require(len(lines) == 1 + len(columns), "correlate table has the wrong number of rows")
    for line, (factor, pairs) in zip(lines[1:], columns.items()):
        cells = line.split()
        xs, ys = zip(*pairs)
        _require(cells[0] == factor and int(cells[2]) == len(pairs), f"correlate row for {factor} is wrong")
        _require(abs(float(cells[1]) - _pearson(list(xs), list(ys))) <= 0.005 + 1e-9,
                 f"correlation for {factor} is off")


def check_json_plan(stdout: bytes, ranking: dict, spec: dict, weights: list[int]) -> int:
    doc = json.loads(stdout)
    names = [entry["neighborhood"] for entry in doc["allocations"]]
    kits = [entry["kits"] for entry in doc["allocations"]]
    _require(doc["strategy"] == spec["strategy"] and doc["total_kits"] == spec["kits"],
             "plan header does not match the request")
    _require(names == ranking["names"], "plan does not follow the ranking order")
    check_quotas(kits, weights, spec["kits"], spec["floor"])
    return len(kits)


def check_table_plan(stdout: bytes, ranking: dict, spec: dict, weights: list[int]) -> int:
    lines = _lines(stdout)
    _require(lines[-1] == f"total: {spec['kits']}", "plan table total line is wrong")
    rows = [line.split() for line in lines[1:-1]]
    names = [" ".join(cells[:-2]) for cells in rows]
    kits = [int(cells[-2]) for cells in rows]
    _require(names == ranking["names"], "plan does not follow the ranking order")
    check_quotas(kits, weights, spec["kits"], spec["floor"])
    return len(kits)


def plan_weights(spec: dict, ranking: dict) -> list[int]:
    n = len(ranking["names"])
    if spec["strategy"] == "proportional":
        return proportional_weights(ranking["raws"])
    if spec["strategy"] == "rank_weighted":
        return rank_weights(n)
    return top_k_weights(n, spec["k"])


def check_plan(stdout: bytes, ranking: dict, spec: dict, weights: list[int]) -> int:
    """Check an ``allocate`` output; returns the neighborhoods it carries."""
    check = check_json_plan if spec["json"] else check_table_plan
    return check(stdout, ranking, spec, weights)


POOLED_EXACT, POOLED_DISPLAY = "21/45", "0.46"


def check_evaluate_table(stdout: bytes) -> None:
    lines = _lines(stdout)
    pooled = [line.split() for line in lines if line.startswith("overall (pooled)")]
    _require(len(pooled) == 1 and pooled[0][-2:] == [POOLED_EXACT, POOLED_DISPLAY],
             "evaluate table does not report pooled 21/45 = 0.46")


def check_evaluate_json(stdout: bytes) -> None:
    pooled = json.loads(stdout)["overall"]["pooled"]
    _require(pooled["exact"] == POOLED_EXACT and pooled["display"] == POOLED_DISPLAY,
             "evaluate JSON does not report pooled 21/45 = 0.46")
