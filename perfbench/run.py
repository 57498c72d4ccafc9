"""Seeded end-to-end benchmark of the leadalloc command line.

Usage (from the repository root):

    python3 perfbench/run.py --workload big_city --seed 1 --seconds 30 --trace 0

Each workload is a closed loop with one client: this process starts one
``python -m leadalloc ...`` child at a time, with ``src`` on PYTHONPATH, and
waits for it (children are started by ``launcher.py``; see there why). Inputs come from ``--seed`` (see ``inputs.py``); workload sizes
and parameters come from ``design.json``; every call's output is checked
(see ``checks.py``) and a job with any mismatch counts as failed.

``--trace 0`` reports the end-to-end metrics of BENCHMARK.json. ``--trace 1``
alternates untraced rounds with rounds whose calls run under ``tracer.py``
and reports the per-layer metrics: self time and counts per job, from spans
kept in memory and written to ``perfbench/work/trace-*.jsonl`` at the end.
Human-readable details go to stdout first; the last line is the JSON result.
"""

from __future__ import annotations

import argparse
import compileall
import json
import os
import platform
import random
import shutil
import statistics
import subprocess
import sys
import time
from collections import defaultdict
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable

import checks
import inputs

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
WORK = BENCH / "work"
DESIGN = json.loads((BENCH / "design.json").read_text(encoding="utf-8"))
SETUP_PROBES = 7
SETUP_PROBE = (
    "import time\n"
    "start = time.perf_counter()\n"
    "import leadalloc.cli\n"
    "from leadalloc import resources\n"
    "from leadalloc.model import AliasTable\n"
    "AliasTable.from_file(resources.aliases_path())\n"
    "print(time.perf_counter() - start)\n"
)
SMALL_CITY_ALIASES = {
    "chicago": ["Gr. Grand Crossing"],
    "nyc": ["Bed-Stuy", "Hunts Point and Mott Haven"],
    "dc": [],
}


@dataclass
class Call:
    args: list[str]
    # Raises checks.CheckFailed; returns the neighborhoods of a checked plan, else 0.
    check: Callable[[bytes], int]
    correlate_stage: bool = False


@dataclass
class CallResult:
    wall_s: float
    start_ns: int
    end_ns: int
    code: int
    stdout: bytes
    stderr: str
    maxrss_kb: int
    spans: list = field(default_factory=list)


@dataclass
class JobResult:
    wall_s: float
    ok: bool
    neighborhoods: int
    maxrss_kb: int
    traced: bool
    calls: list[CallResult]
    error: str = ""


class Runner:
    """The closed-loop client: starts one child at a time, through ``launcher.py``, and waits for it."""

    def __init__(self, workdir: Path):
        self.workdir = workdir
        env = dict(os.environ)
        env.pop("LEADALLOC_ALIAS_FILE", None)
        src = str(ROOT / "src")
        env["PYTHONPATH"] = src + os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else src
        self.launcher = subprocess.Popen([sys.executable, "-S", str(BENCH / "launcher.py")], stdin=subprocess.PIPE,
                                         stdout=subprocess.PIPE, env=env, cwd=ROOT, text=True)

    def close(self) -> None:
        self.launcher.stdin.close()
        self.launcher.stdout.close()
        self.launcher.wait()

    def spawn(self, argv: list[str]) -> CallResult:
        stdout_path, stderr_path = self.workdir / "stdout.bin", self.workdir / "stderr.txt"
        request = {"argv": argv, "stdout": str(stdout_path), "stderr": str(stderr_path)}
        self.launcher.stdin.write(json.dumps(request) + "\n")
        self.launcher.stdin.flush()
        line = self.launcher.stdout.readline()
        if not line:
            raise RuntimeError("the launcher process ended unexpectedly")
        reply = json.loads(line)
        return CallResult((reply["end_ns"] - reply["start_ns"]) / 1e9, reply["start_ns"], reply["end_ns"],
                          reply["code"], stdout_path.read_bytes(),
                          stderr_path.read_text(encoding="utf-8", errors="replace"), reply["maxrss_kb"])

    def call(self, call: Call, traced: bool) -> CallResult:
        if not traced:
            return self.spawn([sys.executable, "-m", "leadalloc", *call.args])
        spans_path = self.workdir / "spans.json"
        stage = ["--correlate-stage"] if call.correlate_stage else []
        result = self.spawn([sys.executable, str(BENCH / "tracer.py"), str(spans_path), *stage, "--", *call.args])
        result.spans = json.loads(spans_path.read_text(encoding="utf-8")) if spans_path.exists() else []
        spans_path.unlink(missing_ok=True)
        # The correlate stage is traced work outside the CLI call: keep it out of call time.
        result.wall_s -= sum(_dur(span) for span in result.spans if span[2] == "bench.stage")
        return result

    def job(self, calls: list[Call], traced: bool) -> JobResult:
        results, neighborhoods = [], 0
        for call in calls:
            result = self.call(call, traced)
            results.append(result)
            try:
                if result.code != 0:
                    raise checks.CheckFailed(f"exit code {result.code}: {result.stderr.strip()[-200:]}")
                neighborhoods += call.check(result.stdout)
            # Malformed output raises the built-in errors while it is parsed.
            except (checks.CheckFailed, ValueError, KeyError, IndexError, TypeError) as exc:
                return self._finish(results, False, 0, traced, f"{' '.join(call.args[:1])}: {exc}")
        return self._finish(results, True, neighborhoods, traced)

    @staticmethod
    def _finish(results, ok, neighborhoods, traced, error=""):
        return JobResult(sum(r.wall_s for r in results), ok, neighborhoods,
                         max(r.maxrss_kb for r in results), traced, results, error)

    def setup_probe(self) -> float:
        result = self.spawn([sys.executable, "-c", SETUP_PROBE])
        if result.code != 0:
            raise RuntimeError(f"set-up probe failed: {result.stderr.strip()[-500:]}")
        return float(result.stdout)


# --- workloads ------------------------------------------------------------


def _alloc_args(ranking_path: Path, spec: dict) -> list[str]:
    args = ["allocate", "--ranking", str(ranking_path), "--kits", str(spec["kits"]),
            "--strategy", spec["strategy"]]
    if spec["k"] is not None:
        args += ["--k", str(spec["k"])]
    if spec["floor"]:
        args += ["--floor", str(spec["floor"])]
    return args + (["--json"] if spec["json"] else [])


def _city_calls(city: inputs.CityInput, ranking_path: Path, allocations: list[dict],
                *, correlate: bool, correlate_stage: bool) -> list[Call]:
    """Calls for one city: [correlate,] score --out, then each allocation."""
    state: dict = {}

    def check_score(stdout: bytes) -> int:
        state["ranking"] = None
        ranking = checks.check_score_ranking(ranking_path, city)
        checks.check_score_table(stdout, ranking, city)
        state["ranking"] = ranking
        city.ties = ranking["ties"]
        return 0

    def plan_check(spec: dict) -> Callable[[bytes], int]:
        def check(stdout: bytes) -> int:
            ranking = state.get("ranking")
            if ranking is None:
                raise checks.CheckFailed("no checked ranking to allocate from")
            return checks.check_plan(stdout, ranking, spec, checks.plan_weights(spec, ranking))
        return check

    calls = []
    if correlate:
        calls.append(Call(["correlate", "--input", str(city.path), "--city", city.city],
                          lambda stdout: checks.check_correlate_table(stdout, city) or 0))
    calls.append(Call(["score", "--input", str(city.path), "--city", city.city, "--out", str(ranking_path)],
                      check_score, correlate_stage))
    calls += [Call(_alloc_args(ranking_path, spec), plan_check(spec)) for spec in allocations]
    return calls


def _scaled(value: int, scale: float, minimum: int) -> int:
    return max(minimum, round(value * scale))


def big_city(workdir: Path, rng: random.Random, scale: float):
    spec = DESIGN["workloads"]["big_city"]["inputs"]
    n = _scaled(spec["n"], scale, 20)
    names = inputs.city_names(spec["city"], rng, n, inputs.ALIAS_SPELLINGS, numbered=True)
    city = inputs.write_city(
        workdir / "big_city.csv", spec["city"], names, rng, aliases=inputs.ALIAS_SPELLINGS,
        extra_factor=spec["extra_factor"], missing_core_share=spec["missing_core_share"],
        missing_extra_share=spec["missing_extra_share"], variant_share=spec["variant_share"])
    allocations = [dict(a, k=a["k"] and _scaled(a["k"], scale, 1)) for a in spec["allocations"]]
    calls = _city_calls(city, workdir / "big_city_ranking.json", allocations,
                        correlate=False, correlate_stage=True)
    return [calls], [city]


def ranked_alloc(workdir: Path, rng: random.Random, scale: float):
    spec = DESIGN["workloads"]["ranked_alloc"]["inputs"]
    ranking = inputs.write_ranking(workdir / "ranking.json", spec["city"], _scaled(spec["n"], scale, 20), rng)
    view = {"names": ranking.names, "raws": ranking.raw_scores}
    calls = []
    for alloc in spec["allocations"]:
        weights = checks.plan_weights(alloc, view)
        calls.append(Call(_alloc_args(ranking.path, alloc),
                          lambda stdout, alloc=alloc, weights=weights: checks.check_plan(stdout, view, alloc, weights)))
    return [calls], [ranking]


def small_cities(workdir: Path, rng: random.Random, scale: float):
    spec = DESIGN["workloads"]["small_cities"]["inputs"]
    jobs, cities = [], []
    for city_name, n in spec["cities"].items():
        aliases = {s: inputs.ALIAS_SPELLINGS[s] for s in SMALL_CITY_ALIASES[city_name]}
        names = inputs.city_names(city_name, rng, n, aliases)
        city = inputs.write_city(
            workdir / f"{city_name}.csv", city_name, names, rng, aliases=aliases,
            extra_factor=spec["extra_factor"], missing_core_share=spec["missing_core_share"],
            missing_extra_share=0.0, variant_share=0.0 if city_name == "dc" else spec["variant_share"])
        cities.append(city)
        calls = _city_calls(city, workdir / f"{city_name}_ranking.json", spec["allocations"],
                            correlate=True, correlate_stage=False)
        jobs += [[call] for call in calls]
    jobs.append([Call(["evaluate"], lambda stdout: checks.check_evaluate_table(stdout) or 0)])
    jobs.append([Call(["evaluate", "--format", "json"], lambda stdout: checks.check_evaluate_json(stdout) or 0)])
    return jobs, cities


WORKLOADS = {"big_city": big_city, "ranked_alloc": ranked_alloc, "small_cities": small_cities}


# --- metrics --------------------------------------------------------------


def _dur(span) -> float:
    return (span[4] - span[3]) / 1e9


def layer_metrics(jobs: list[JobResult]) -> tuple[dict[str, float], list[dict]]:
    """Per-job self times and counts from the spans of traced jobs, and the span log."""
    totals: dict[str, float] = defaultdict(float)
    log = []
    for job_id, job in enumerate(jobs):
        for call_id, call in enumerate(job.calls):
            prefix = f"{job_id}.{call_id}"
            log.append({"job": job_id, "id": f"{prefix}.call", "parent": None, "name": "cli.call",
                        "start": call.start_ns, "end": call.end_ns, "counts": {}})
            children: dict[int, float] = defaultdict(float)
            for span in call.spans:
                if span[1] is not None:
                    children[span[1]] += _dur(span)
            for span in call.spans:
                local, parent, name, start, end, counts = span
                log.append({"job": job_id, "id": f"{prefix}.{local}",
                            "parent": f"{prefix}.{parent}" if parent is not None else f"{prefix}.call",
                            "name": name, "start": start, "end": end, "counts": counts})
                self_s = _dur(span) - children[local]
                if name == "cli.main":
                    totals["cli.self_s"] += self_s
                    totals["cli.process_overhead_s"] += call.wall_s - _dur(span)
                elif name != "bench.stage":
                    totals[f"{name}_s"] += self_s
                layer = name.split(".")[0]
                for key, value in counts.items():
                    totals[f"{layer}.{key}"] += value
            totals["cli.stdout_bytes"] += len(call.stdout)
    return {name: value / len(jobs) for name, value in totals.items()}, log


def _quantile(values: list[float], q: float) -> float:
    ordered = sorted(values)
    return ordered[min(len(ordered) - 1, int(q * len(ordered)))]


def _git_commit() -> str:
    try:
        out = subprocess.run(["git", "rev-parse", "--short", "HEAD"], cwd=ROOT, capture_output=True,
                             text=True, timeout=10)
    except (OSError, subprocess.SubprocessError):
        return "unknown"
    return out.stdout.strip() if out.returncode == 0 else "unknown"


def _result(names_units: list[dict], values: dict[str, float]) -> dict:
    return {m["name"]: {"value": values.get(m["name"], 0.0), "unit": m["unit"]} for m in names_units}


def run(workload: str, seed: int, seconds: float, trace: bool, scale: float) -> dict:
    benchmark = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    workdir = WORK / f"{workload}-{seed}-{int(trace)}-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        compileall.compile_dir(str(ROOT / "src" / "leadalloc"), quiet=1)
        runner = Runner(workdir)
        try:
            rng = random.Random(f"{workload}:{seed}")
            round_jobs, made = WORKLOADS[workload](workdir, rng, scale)

            warm = [runner.job(calls, False) for calls in round_jobs]
            setup = [runner.setup_probe() for _ in range(SETUP_PROBES)] if not trace else []

            rounds: list[list[JobResult]] = []
            start = time.perf_counter()
            while time.perf_counter() - start < seconds or (trace and len(rounds) < 2):
                traced_round = trace and len(rounds) % 2 == 1
                rounds.append([runner.job(calls, traced_round) for calls in round_jobs])
        finally:
            runner.close()
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    timed = [job for jobs in rounds for job in jobs]
    attempted = len(warm) + len(timed)
    failures = [job for job in warm + timed if not job.ok]
    plain = [job for job in timed if not job.traced]
    walls = [job.wall_s for job in plain]
    print(f"# leadalloc benchmark: workload={workload} seed={seed} seconds={seconds} trace={int(trace)} "
          f"scale={scale}")
    print(f"# python={platform.python_version()} nproc={os.cpu_count()} commit={_git_commit()}")
    for item in made:
        if isinstance(item, inputs.CityInput):
            print(f"# input {item.city}: rows={item.rows_written} kept={len(item.kept)} "
                  f"missing_core={item.rows_missing_core} variants={item.rows_variant} aliases={item.rows_alias} "
                  f"score_ties={item.ties}")
        else:
            print(f"# input ranking: n={len(item.names)} ties={item.ties}")
    print(f"# rounds={len(rounds)} jobs={len(timed)} attempted={attempted} failed={len(failures)} "
          f"failed_frac={len(failures) / attempted:.6f}")
    for job in failures[:5]:
        print(f"# failed job: {job.error}")

    if not trace:
        p90_beyond = len(walls) - int(0.9 * len(walls)) - 1
        print(f"# job_p50_s={statistics.median(walls):.6f} (n={len(walls)}) "
              f"job_p90_s={_quantile(walls, 0.9):.6f} (n={len(walls)}, {p90_beyond} beyond"
              f"{'' if p90_beyond >= 10 else '; too few samples, not a metric here'})")
        values = {
            "setup_s": statistics.median(setup),
            "job_p50_s": statistics.median(walls),
            # Per round, so that small_cities calls that carry no plan are counted with those that do.
            "neighborhoods_per_s": statistics.median(
                sum(job.neighborhoods for job in jobs) / sum(job.wall_s for job in jobs) for jobs in rounds),
            "peak_rss_mb": statistics.median(job.maxrss_kb for job in plain) / 1024,
        }
        metrics = _result(benchmark["end_to_end"], values)
    else:
        traced = [job for job in timed if job.traced]
        values, log = layer_metrics(traced)
        traced_p50 = statistics.median(job.wall_s for job in traced)
        values["trace.overhead_s"] = traced_p50 - statistics.median(walls)
        print(f"# traced job_p50_s={traced_p50:.6f} (n={len(traced)}) untraced job_p50_s="
              f"{statistics.median(walls):.6f} (n={len(walls)})")
        layers: dict[str, float] = defaultdict(float)
        for name, value in sorted(values.items()):
            if name.endswith("_s") and name != "trace.overhead_s":
                layers[name.split(".")[0]] += value
            print(f"#   {name:36s} {value:.6f}")
        print("# self time per layer per job: " + ", ".join(f"{k}={v:.6f}" for k, v in sorted(layers.items())))
        trace_path = WORK / f"trace-{workload}-{seed}.jsonl"
        with open(trace_path, "w", encoding="utf-8") as fh:
            fh.writelines(json.dumps(span) + "\n" for span in log)
        print(f"# spans: {len(log)} written to {trace_path.relative_to(ROOT)}")
        metrics = _result(benchmark["per_layer"], values)

    return {"correct": not failures, "attempted": attempted, "failed": len(failures), "metrics": metrics}


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--scale", type=float, default=1.0,
                        help="input-size multiplier for the benchmark's own tests (default 1)")
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "leadalloc" / "__init__.py").is_file():
        print(f"error: no leadalloc source under {ROOT / 'src'}", file=sys.stderr)
        return 2
    result = run(args.workload, args.seed, args.seconds, bool(args.trace), args.scale)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
