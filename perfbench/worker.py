"""Benchmark worker: runs overlap-lab CLI jobs in-process, one at a time.

Reads one JSON request per line on stdin and answers each with one JSON
line on stdout:

  {"argv": [...]}  time the host reference loop (hostref.py), then run
                   overlap_lab.cli.main(argv) with stdout and stderr
                   captured; reply {"code", "wall", "ref", "out", "err"}, plus
                   "trace" (span totals, see spans.Tracer.fold) once
                   tracing is on
  {"trace": true}  install the span wrappers; reply {}
  {"rss": true}    reply {"maxrss_kib": this process's peak RSS so far}

Only the call to main is timed.  Start it with src/ on PYTHONPATH.
"""

from __future__ import annotations

import io
import json
import resource
import sys
import time
import traceback
from contextlib import redirect_stderr, redirect_stdout

from overlap_lab import cli

import hostref
import spans


def run_job(main, argv: list[str]) -> dict:
    ref = hostref.ref_s()
    stdout, stderr = io.StringIO(), io.StringIO()
    with redirect_stdout(stdout), redirect_stderr(stderr):
        start = time.perf_counter()
        try:
            code = main(argv)
        except Exception:  # a crash is a failed job, not a failed benchmark
            code = None
            traceback.print_exc()
        wall = time.perf_counter() - start
    return {"code": code, "wall": wall, "ref": ref, "out": stdout.getvalue(), "err": stderr.getvalue()}


def serve() -> None:
    main, tracer = cli.main, None
    reply_to = sys.stdout
    for line in sys.stdin:
        request = json.loads(line)
        if "argv" in request:
            reply = run_job(main, request["argv"])
            if tracer is not None:
                reply["trace"] = tracer.fold()
        elif request.get("trace"):
            tracer = spans.Tracer()
            main = spans.install(tracer)
            reply = {}
        else:
            reply = {"maxrss_kib": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss}
        reply_to.write(json.dumps(reply) + "\n")
        reply_to.flush()


if __name__ == "__main__":
    serve()
