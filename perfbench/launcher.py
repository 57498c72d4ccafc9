"""Start benchmark children on request and report each one's exit code, wall time and peak RSS.

Protocol: one JSON object per line on stdin, ``{"argv": [...], "stdout":
PATH, "stderr": PATH}``, where ``argv[0]`` is an absolute path; one JSON
reply per line on stdout, ``{"code", "maxrss_kb", "start_ns", "end_ns"}``.
Exits when stdin closes.

A child's ru_maxrss on Linux includes the resident set of the process that
spawned it. So the children are started from this process, run with
``python -S`` and importing little (about 9 MB), rather than from the
benchmark, whose inputs and checks hold far more memory.
"""

import json
import os
import sys
import time

_CREATE = os.O_WRONLY | os.O_CREAT | os.O_TRUNC


def main() -> int:
    for line in sys.stdin:
        request = json.loads(line)
        argv = request["argv"]
        redirects = [
            (os.POSIX_SPAWN_OPEN, 1, request["stdout"], _CREATE, 0o644),
            (os.POSIX_SPAWN_OPEN, 2, request["stderr"], _CREATE, 0o644),
        ]
        start = time.perf_counter_ns()
        pid = os.posix_spawn(argv[0], argv, os.environ, file_actions=redirects)
        _, status, usage = os.wait4(pid, 0)
        end = time.perf_counter_ns()
        reply = {"code": os.waitstatus_to_exitcode(status), "maxrss_kb": usage.ru_maxrss,
                 "start_ns": start, "end_ns": end}
        sys.stdout.write(json.dumps(reply) + "\n")
        sys.stdout.flush()
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
