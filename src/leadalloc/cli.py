"""Command-line interface.

Four subcommands mirror the pipeline stages::

    leadalloc correlate --input city.csv --city chicago
    leadalloc score     --input city.csv --city chicago --out ranking.json
    leadalloc allocate  --ranking ranking.json --kits 1000
    leadalloc evaluate  --runs runs.json --targets targets.json

Every command is deterministic for identical inputs and flags: tables are
fixed-width with dot decimal separators, ``--json`` emits stable
machine-readable documents, and all diagnostics go to standard error so
standard output can be byte-compared. Exit codes: 0 success, 2 usage or
validation error, 1 internal error. A reader that closes standard output
early, as ``| head`` does, is not an error: the command stops and exits 0.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import warnings
from itertools import accumulate, repeat
from operator import truediv

from . import __version__, resources
from .errors import DatasetValidationError, LeadAllocError, UndefinedCorrelationError
from .ingest import (
    ValidationIssue,
    ValidationReport,
    dump_plan,
    dump_ranking,
    parse_city_dataset,
    parse_model_runs,
    parse_ranking,
    parse_targets,
    table_lines,
    write_ranking,
)
from .model import DEFAULT_ALPHA, DEFAULT_K, DEFAULT_TOP_K, AliasTable, Strategy, WeightVariant

ALIAS_ENV_VAR = "LEADALLOC_ALIAS_FILE"


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:  # argparse exits 2 on usage errors, 0 on --help
        return int(exc.code or 0)
    # The file the command read: each caught warning and an undefined correlation name it.
    report = ValidationReport(source=getattr(args, "input", getattr(args, "ranking", None)))
    try:
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            try:
                status = args.func(args)
                sys.stdout.flush()
                return status
            except UndefinedCorrelationError as exc:
                raise report.reject(str(exc)) from None
            finally:
                for item in caught:
                    issue = ValidationIssue("warning", None, str(item.message))
                    print(report.describe(issue), file=sys.stderr)
    except BrokenPipeError:
        # The reader closed stdout, as `| head` does: it stopped on purpose. Point
        # stdout at devnull so the flush at exit cannot fail again (the `signal`
        # module docs, "Note on SIGPIPE").
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 0
    except (LeadAllocError, OSError) as exc:
        if not isinstance(exc, DatasetValidationError):  # an argument's fault: no file to name
            exc = ValidationReport().reject(str(exc))
        print(exc, file=sys.stderr)
        return 2
    except Exception as exc:  # never surface a traceback for malformed input
        print(f"internal error: {exc}", file=sys.stderr)
        return 1


class _Parser(argparse.ArgumentParser):
    def error(self, message: str):  # a usage error's line starts "error: ", as every other does
        self.exit(2, f"{self.format_usage()}error: {self.prog}: {message}\n")


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="leadalloc",
        description=(
            "Neighborhood lead-testing priority scores, test-kit apportionment, "
            "and audits of recorded allocation recommendations."
        ),
    )
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    sub = parser.add_subparsers(dest="command", required=True, metavar="command")

    correlate = sub.add_parser(
        "correlate", help="correlate risk-factor columns with lead prevalence"
    )
    correlate.add_argument("--input", required=True, help="city dataset CSV")
    correlate.add_argument("--city", required=True, help="city identifier, e.g. chicago")
    correlate.add_argument(
        "--factors",
        help="comma-separated factor columns (default: every non-prevalence column)",
    )
    correlate.add_argument(
        "--estimator", choices=("pearson", "spearman"), default="pearson"
    )
    correlate.add_argument(
        "--strict", action="store_true", help="treat recoverable row issues as errors"
    )
    correlate.add_argument("--json", action="store_true", help="machine-readable output")
    correlate.set_defaults(func=cmd_correlate)

    score = sub.add_parser("score", help="rank neighborhoods by priority score")
    score.add_argument("--input", required=True, help="city dataset CSV")
    score.add_argument("--city", required=True, help="city identifier, e.g. chicago")
    score.add_argument(
        "--alpha", type=float, default=DEFAULT_ALPHA, help="prevalence weight in (0, 1)"
    )
    score.add_argument(
        "--variant",
        choices=tuple(v.value for v in WeightVariant),
        default=WeightVariant.TEXT.value,
        help="gamma derivation rule",
    )
    score.add_argument(
        "--r-override",
        type=float,
        default=None,
        dest="r_override",
        help="use this coverage-prevalence correlation instead of computing it",
    )
    score.add_argument(
        "--normalize-weights",
        action="store_true",
        dest="normalize_weights",
        help="divide the weights by their sum (ordering is unaffected)",
    )
    score.add_argument(
        "--strict", action="store_true", help="treat recoverable row issues as errors"
    )
    score.add_argument("--out", help="also write the ranking to this JSON file")
    score.add_argument("--json", action="store_true", help="machine-readable output")
    score.set_defaults(func=cmd_score)

    alloc = sub.add_parser("allocate", help="apportion a kit budget over a saved ranking")
    alloc.add_argument(
        "--ranking", required=True, help="ranking JSON produced by `score --out`"
    )
    alloc.add_argument("--kits", type=int, required=True, help="total kits to distribute")
    alloc.add_argument(
        "--strategy",
        choices=tuple(s.value for s in Strategy),
        default=Strategy.PROPORTIONAL.value,
    )
    alloc.add_argument(
        "--k", type=int, default=DEFAULT_TOP_K, help="group size for top_k_equal"
    )
    alloc.add_argument(
        "--floor", type=int, default=0, help="guaranteed kits per neighborhood"
    )
    alloc.add_argument("--json", action="store_true", help="machine-readable output")
    alloc.set_defaults(func=cmd_allocate)

    evaluate = sub.add_parser(
        "evaluate", help="score recorded model runs against target sets"
    )
    evaluate.add_argument(
        "--runs", help="model-run JSON (default: bundled recorded runs)"
    )
    evaluate.add_argument(
        "--targets", help="target-set JSON (default: bundled target sets)"
    )
    evaluate.add_argument(
        "--k", type=int, default=DEFAULT_K, help="top-k cutoff per city"
    )
    evaluate.add_argument("--format", choices=("table", "json"), default="table")
    evaluate.set_defaults(func=cmd_evaluate)
    return parser


def cmd_correlate(args: argparse.Namespace) -> int:
    from .stats import correlate_factors  # deferred: each command loads only its own modules

    dataset, report = parse_city_dataset(
        args.input, args.city, aliases=_alias_table(), strict=args.strict
    )
    _emit_report(report)
    factors = _split_factors(args.factors) if args.factors else list(dataset.factor_names())
    results = correlate_factors(dataset, factors, estimator=args.estimator)
    if args.json:
        doc = {
            "city": dataset.city,
            "estimator": args.estimator,
            "correlations": [
                {"factor": res.factor, "r": res.r, "n": res.n} for res in results
            ],
        }
        print(json.dumps(doc, indent=2))
        return 0

    columns = [[getattr(res, field) for res in results] for field in ("factor", "r", "n")]
    sys.stdout.writelines(table_lines(("factor", "r", "n"), columns, ("", ".2f", "d"), left={0}))
    return 0


def cmd_score(args: argparse.Namespace) -> int:
    from .scoring import score_city  # deferred: each command loads only its own modules

    dataset, report = parse_city_dataset(
        args.input, args.city, aliases=_alias_table(), strict=args.strict
    )
    _emit_report(report)
    ranking = score_city(dataset, args.alpha, args.variant, args.r_override,
                         normalize_weights=args.normalize_weights)
    if args.out:
        write_ranking(ranking, args.out)
    if args.json:
        dump_ranking(ranking, sys.stdout)
        return 0
    w = ranking.weights
    print(f"city: {ranking.city}  variant: {w.variant.value}  r: {w.source_correlation:g}")
    print(f"weights: alpha={w.alpha:g} beta={w.beta:g} gamma={w.gamma:g}")
    from array import array

    names = ranking.names
    position = dict(zip(dataset.names, range(len(dataset))))
    order = list(map(position.__getitem__, names))
    del position
    metrics = (dataset.prevalence, dataset.untested_pct, dataset.public_coverage_pct)
    picked = [array("d", map(values.__getitem__, order)) for values in metrics]
    del order
    headers = ("rank", "neighborhood", "raw_ps", "scaled_ps", "P", "U", "H")
    columns = (range(1, len(names) + 1), names, ranking.raw_scores, ranking.scaled_scores, *picked)
    formats = ("d", "", ".6f", ".2f", "g", "g", "g")
    sys.stdout.writelines(table_lines(headers, columns, formats, left={1}))
    return 0


def cmd_allocate(args: argparse.Namespace) -> int:
    from .allocation import allocate  # deferred: each command loads only its own modules

    ranking = parse_ranking(args.ranking)
    plan = allocate(ranking, args.kits, args.strategy, k=args.k, floor=args.floor)
    if args.json:
        dump_plan(plan, sys.stdout)
        return 0
    from array import array

    kits = plan.kits
    shares = array("d", map(truediv, accumulate(kits), repeat(plan.total_kits)))
    columns = (plan.names, kits, shares)
    headers = ("neighborhood", "kits", "cumulative_share")
    sys.stdout.writelines(table_lines(headers, columns, ("", "d", ".4f"), left={0}))
    print(f"total: {plan.total_kits}")
    return 0


def cmd_evaluate(args: argparse.Namespace) -> int:
    from . import evaluation  # deferred: each command loads only its own modules

    aliases = _alias_table()
    runs_path = args.runs if args.runs else resources.model_runs_path()
    targets_path = args.targets if args.targets else resources.targets_path()
    runs, runs_report = parse_model_runs(runs_path, aliases=aliases)
    _emit_report(runs_report)
    targets, targets_report = parse_targets(targets_path, aliases=aliases)
    _emit_report(targets_report)
    report = evaluation.build_report(runs, targets, k=args.k)
    if args.format == "json":
        print(json.dumps(evaluation.report_to_dict(report), indent=2))
    else:
        sys.stdout.write(evaluation.format_report_table(report))
    return 0


def _alias_table() -> AliasTable:
    override = os.environ.get(ALIAS_ENV_VAR)
    if override:
        return AliasTable.from_file(override)
    return AliasTable.from_file(resources.aliases_path())


def _split_factors(raw: str) -> list[str]:
    factors = [part.strip() for part in raw.split(",") if part.strip()]
    if not factors:
        raise LeadAllocError("--factors given but names no columns")
    return factors


def _emit_report(report: ValidationReport) -> None:
    for issue in report.warnings():
        print(report.describe(issue), file=sys.stderr)


if __name__ == "__main__":  # pragma: no cover
    raise SystemExit(main())
