"""Run one leadalloc CLI call with spans around each layer's public functions.

Usage: python perfbench/tracer.py SPANS_OUT [--correlate-stage] -- ARG...

The call is ``leadalloc.cli.main(ARG...)``, so stdout is exactly what
``python -m leadalloc ARG...`` prints. Spans are kept in memory and written
to SPANS_OUT as JSON when the call ends. Each span is ``[id, parent, name,
start_ns, end_ns, counts]`` on the ``time.perf_counter_ns`` clock, which on
Linux is CLOCK_MONOTONIC and so comparable with the parent's clock.

With ``--correlate-stage``, after ``main`` returns, the tracer also runs
``stats.correlate_factors`` over every factor of the dataset the call
parsed, under a ``bench.stage`` span outside ``cli.main``.
"""

import sys
import time

_now = time.perf_counter_ns


class Tracer:
    def __init__(self):
        self.spans = []
        self._stack = [None]
        self.dataset = None

    def begin(self, name):
        span = [len(self.spans), self._stack[-1], name, _now(), None, {}]
        self.spans.append(span)
        self._stack.append(span[0])
        return span

    def end(self, span):
        span[4] = _now()
        self._stack.pop()

    def wrap(self, fn, name, count=None):
        """``fn`` timed under ``name``; ``name`` may be a callable of the call's arguments."""
        tracer = self

        def traced(*args, **kwargs):
            span = tracer.begin(name(*args, **kwargs) if callable(name) else name)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer.end(span)
            if count is not None:
                count(span[5], result, *args, **kwargs)
            return result

        return traced

    def patch(self, owner, attr, name, count=None):
        """Replace ``owner.attr`` with a traced version; skip names the package lacks."""
        fn = getattr(owner, attr, None)
        if fn is None:
            return
        setattr(owner, attr, self.wrap(fn, name, count))

    def install(self, cli):
        """Trace each layer's public functions, both where defined and where the CLI imported them."""
        import importlib
        import os

        def parsed_city(counts, result, *args, **kwargs):
            dataset, report = result
            self.dataset = dataset
            excluded = len(getattr(report, "issues", ()))
            counts.update(rows_read=len(dataset.records) + excluded,
                          rows_kept=len(dataset.records), rows_excluded=excluded)

        def file_bytes(counts, result, *args, **kwargs):
            counts["ranking_bytes"] = os.path.getsize(args[-1])

        def plan(counts, result, *args, **kwargs):
            counts.update(entries=len(result.allocations), kits=result.total_kits)

        def strategy(ranking, total_kits, strategy="proportional", *args, **kwargs):
            return f"allocation.{getattr(strategy, 'value', strategy)}"

        traced = [
            ("ingest", "parse_city_dataset", "ingest.parse_city_dataset", parsed_city),
            ("ingest", "write_ranking", "ingest.write_ranking", file_bytes),
            ("ingest", "parse_ranking", "ingest.parse_ranking", file_bytes),
            ("ingest", "parse_model_runs", "ingest.parse_model_runs", None),
            ("ingest", "parse_targets", "ingest.parse_targets", None),
            ("stats", "correlate_factors", "stats.correlate_factors",
             lambda counts, result, *a, **k: counts.update(factors=len(result))),
            ("scoring", "score_city", "scoring.score_city",
             lambda counts, result, *a, **k: counts.update(entries=len(result.entries))),
            ("allocation", "allocate", strategy, plan),
            ("evaluation", "build_report", "evaluation.build_report",
             lambda counts, result, *a, **k: counts.update(runs=len(result.per_run))),
            ("evaluation", "format_report_table", "evaluation.format_report_table", None),
        ]
        for module_name, attr, name, count in traced:
            for owner in (importlib.import_module(f"leadalloc.{module_name}"), cli):
                self.patch(owner, attr, name, count)
        model = importlib.import_module("leadalloc.model")
        alias_from_file = getattr(model.AliasTable, "from_file", None)
        if alias_from_file is not None:
            model.AliasTable.from_file = classmethod(
                self.wrap(alias_from_file.__func__, "ingest.load_aliases")
            )
        self.patch(model.PriorityRanking, "__post_init__", "model.ranking_validate")


def main(argv):
    out_path, rest = argv[0], argv[1:]
    correlate_stage = rest[0] == "--correlate-stage"
    cli_args = rest[rest.index("--") + 1:]
    tracer = Tracer()
    span = tracer.begin("cli.import")
    from leadalloc import cli

    tracer.end(span)
    tracer.install(cli)
    span = tracer.begin("cli.main")
    code = cli.main(cli_args)
    sys.stdout.flush()
    tracer.end(span)
    if correlate_stage and code == 0 and tracer.dataset is not None:
        from leadalloc import stats

        span = tracer.begin("bench.stage")
        stats.correlate_factors(tracer.dataset, list(tracer.dataset.factor_names()))
        tracer.end(span)

    import json

    with open(out_path, "w", encoding="utf-8") as fh:
        json.dump(tracer.spans, fh)
    return code


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
