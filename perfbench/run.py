"""overlap-lab benchmark: one workload, one fresh worker, one closed loop.

Run from the repository root:

  python3 perfbench/run.py --workload count_tables --seed 1 --seconds 25 --trace 0

The job list (one pass) comes from workloads.py and the seed.  A fresh
worker process (worker.py) runs each job through overlap_lab.cli.main
in-process; the next job is sent only when the previous one has returned
and its output has been checked (checks.py) outside the timed region.
Passes repeat until the jobs' timed wall time reaches --seconds and at
least MIN_JOBS jobs have run.

Every gated time is host-scaled (hostref.py): the worker times a fixed
reference loop before each job, and the run's job times are multiplied
by REF_S over the median of those reference times.

--trace 0 prints the end-to-end metrics.  --trace 1 runs the same loop
untraced for half the time, then the same passes again with span
wrappers installed (spans.py), and prints the per-layer metrics.  The
last line of stdout is one JSON object: correct, attempted, failed and
metrics.  Unscaled figures and host diagnostics go to stderr.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import selectors
import statistics
import subprocess
import sys
import time
from pathlib import Path

import checks
import hostref
import spans
from workloads import WORKLOADS, job_list

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"

MIN_JOBS = 100
SETUP_REPEATS = 15
DEADLINE_S = 170.0
SETUP_CODE = """
import statistics, time, hostref
ref = statistics.median(hostref.ref_s() for _ in range(3))
start = time.perf_counter()
from overlap_lab import cli
cli._build_parser()
print(time.perf_counter() - start, ref)
"""


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), str(HERE), env.get("PYTHONPATH")]))
    return env


def setup_s() -> tuple[float, float]:
    """Median host-scaled and raw time for a fresh interpreter to import
    the CLI and build its parser."""
    scaled, raw = [], []
    for _ in range(SETUP_REPEATS + 1):
        done = subprocess.run(
            [sys.executable, "-c", SETUP_CODE],
            cwd=ROOT, env=child_env(), capture_output=True, text=True, timeout=60, check=True,
        )
        seconds, ref = map(float, done.stdout.split())
        scaled.append(seconds * hostref.REF_S / ref)
        raw.append(seconds)
    # the first run may write bytecode caches
    return statistics.median(scaled[1:]), statistics.median(raw[1:])


def host_ref(samples: int = 25) -> float:
    return statistics.median(hostref.ref_s() for _ in range(samples))


class Worker:
    """A worker.py subprocess, spoken to one JSON line at a time."""

    def __init__(self, deadline: float):
        self.deadline = deadline
        self.proc = subprocess.Popen(
            [sys.executable, str(HERE / "worker.py")],
            cwd=ROOT, env=child_env(), stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True,
        )
        self.selector = selectors.DefaultSelector()
        self.selector.register(self.proc.stdout, selectors.EVENT_READ)

    def request(self, message: dict) -> dict:
        self.proc.stdin.write(json.dumps(message) + "\n")
        self.proc.stdin.flush()
        if not self.selector.select(max(0.0, self.deadline - time.monotonic())):
            raise TimeoutError("the run passed its deadline")
        line = self.proc.stdout.readline()
        if not line:
            raise RuntimeError(f"worker exited with code {self.proc.wait()}")
        return json.loads(line)

    def close(self) -> None:
        self.selector.close()
        if self.proc.poll() is None:
            self.proc.stdin.close()
            try:
                self.proc.wait(timeout=10)
            except subprocess.TimeoutExpired:
                self.proc.kill()
                self.proc.wait()
        self.proc.stdout.close()


class TraceTotals:
    """Span totals summed over the jobs of the traced passes."""

    def __init__(self) -> None:
        self.spans: dict[str, list] = {}
        self.max_bits = 0
        self.rows: dict[int, list[float]] = {}
        self.limits = [0, 0, 0.0, 0]

    def add(self, fold: dict) -> None:
        for name, values in fold["spans"].items():
            entry = self.spans.setdefault(name, [0, 0.0, 0.0, 0])
            for slot, value in enumerate(values):
                entry[slot] += value
        self.max_bits = max(self.max_bits, fold["max_bits"])
        for n, duration in fold["rows"].items():
            self.rows.setdefault(int(n), []).append(duration)
        for slot, value in enumerate(fold["limits"]):
            self.limits[slot] += value

    def get(self, name: str) -> list:
        return self.spans.get(name, [0, 0.0, 0.0, 0])

    def row_growth_exponent(self, smallest: int = 20) -> float:
        """Least-squares slope of log(row fill time) on log(n), k = 2."""
        points = [
            (math.log(n), math.log(statistics.median(times)))
            for n, times in self.rows.items()
            if n >= smallest
        ]
        if len(points) < 3:
            return 0.0
        mean_x = statistics.fmean(x for x, _ in points)
        mean_y = statistics.fmean(y for _, y in points)
        num = sum((x - mean_x) * (y - mean_y) for x, y in points)
        den = sum((x - mean_x) ** 2 for x, _ in points)
        return num / den


class Phase:
    """Outcome of running whole passes of the job list."""

    def __init__(self, size: int) -> None:
        self.size = size
        self.times: list[float] = []  # wall seconds, pass after pass in job-list order
        self.refs: list[float] = []  # reference-loop seconds just before each job
        self.passes = 0
        self.failures: list[str] = []
        self.out_bytes = 0
        self.trace = TraceTotals()

    def scale(self) -> float:
        """Host-speed factor: REF_S over the phase's median reference time."""
        return hostref.REF_S / statistics.median(self.refs)

    def scaled_times(self) -> list[float]:
        scale = self.scale()
        return [t * scale for t in self.times]

    def jobs_per_s(self, times: list[float]) -> float:
        """Jobs per second of a pass that takes each job's median time.

        A job's median over passes shrugs off host slowdowns that cover
        fewer than half of its runs.
        """
        size = self.size
        return size / sum(statistics.median(times[j::size]) for j in range(size))


def _label(argv: list[str]) -> str:
    return " ".join(a if len(a) <= 24 else f"<{len(a)} chars>" for a in argv)


def run_passes(worker: Worker, jobs, check, *, seconds: float = 0.0, passes: int = 0) -> Phase:
    """Closed loop over whole passes: until `passes`, else until `seconds` and MIN_JOBS."""
    phase = Phase(len(jobs))
    while True:
        for job in jobs:
            reply = worker.request({"argv": job.argv})
            phase.times.append(reply["wall"])
            phase.refs.append(reply["ref"])
            phase.out_bytes += len(reply["out"])
            if "trace" in reply:
                phase.trace.add(reply["trace"])
            try:
                reason = check(job, reply["code"], reply["out"])
            except Exception as exc:  # unreadable output is a wrong output
                reason = f"output not readable: {exc!r}"
            if reason is not None:
                phase.failures.append(f"{_label(job.argv)}: {reason}; stderr {reply['err'][-300:]!r}")
        phase.passes += 1
        if passes:
            if phase.passes >= passes:
                return phase
        elif sum(phase.times) >= seconds and len(phase.times) >= MIN_JOBS:
            return phase


def verify_once(check):
    """Check each job's output in full once; a repeat must print the same."""
    verified: dict[int, tuple] = {}

    def checked(job, code, out) -> str | None:
        if verified.get(id(job)) == (code, out):
            return None
        reason = check(job, code, out)
        if reason is None:
            verified[id(job)] = (code, out)
        return reason

    return checked


def make_check(workload: str):
    if workload == "count_tables":
        return checks.check_count
    if workload == "limits_digits":
        return checks.LimitsChecker().check
    if workload == "analyze_long":
        return checks.check_analyze
    sys.path.insert(0, str(SRC))
    from overlap_lab.counting import CountCache

    caches: dict[int, CountCache] = {}

    def diagonal(k: int, n: int) -> tuple[int, int, int]:
        cache = caches.setdefault(k, CountCache(k))
        return cache.mutually_bordered(n), cache.right_bordered(n), cache.mutually_unbordered(n)

    return checks.OracleChecker(diagonal).check


def timing(phase: Phase, times: list[float]) -> tuple[float, float, float]:
    """jobs_per_s, job_p50_s and job_p90_s of one list of job times."""
    return phase.jobs_per_s(times), statistics.median(times), statistics.quantiles(times, n=10)[8]


def per_layer(plain: Phase, traced: Phase, ref: float) -> dict:
    totals, passes = traced.trace, traced.passes
    scale = traced.scale()  # host-scales the per-layer times too

    def busy(name: str) -> float:
        return scale * totals.get(name)[1] / passes

    def self_time(name: str) -> float:
        return scale * totals.get(name)[2] / passes

    def calls(name: str) -> float:
        return totals.get(name)[0] / passes

    def ratio(num: float, den: float) -> float:
        return num / den if den else 0.0

    oracle = [totals.get(f"oracle.{name}") for name in spans.ORACLE_ENUMERATORS]
    pairs = sum(entry[3] for entry in oracle)
    digits, terms, width_log10, reports = totals.limits
    report_s = scale * totals.get("asymptotics.limit_report")[1]
    profile = totals.get("wordcore.overlap_profile")
    metrics = {
        "counting.pairs.busy_s": (busy("counting.pairs"), "s"),
        "counting.pairs.calls": (calls("counting.pairs"), "count"),
        "counting.row_growth_exponent": (totals.row_growth_exponent(), "1"),
        "counting.max_bits": (totals.max_bits, "bits"),
        "counting.unbordered.busy_s": (busy("counting.unbordered"), "s"),
        "counting.unbordered.calls": (calls("counting.unbordered"), "count"),
        "asymptotics.limit_report.self_s": (self_time("asymptotics.limit_report"), "s"),
        "asymptotics.us_per_digit": (ratio(1e6 * report_s, digits), "us"),
        "asymptotics.terms": (terms / passes, "count"),
        "asymptotics.width_log10": (ratio(width_log10, reports), "digits"),
        "oracle.pairs": (pairs / passes, "count"),
        "oracle.pairs_per_s": (ratio(pairs, scale * sum(entry[1] for entry in oracle)), "1/s"),
    }
    for name in spans.ORACLE_ENUMERATORS:
        metrics[f"oracle.{name}.busy_s"] = (busy(f"oracle.{name}"), "s")
    metrics.update({
        "wordcore.overlap_profile.calls": (calls("wordcore.overlap_profile"), "count"),
        "wordcore.overlap_profile.ns_per_symbol": (ratio(1e9 * scale * profile[1], profile[3]), "ns"),
        "wordcore.word_init.busy_s": (busy("wordcore.word_init"), "s"),
        "cli.self_s": (self_time("cli.main") + self_time("cli.parse_word"), "s"),
        "cli.parse_word.busy_s": (busy("cli.parse_word"), "s"),
        "cli.out_bytes": (traced.out_bytes / passes, "bytes"),
        "trace.overhead_ratio": (
            traced.jobs_per_s(traced.scaled_times()) / plain.jobs_per_s(plain.scaled_times()), "1"
        ),
        "host.ref_s": (ref, "s"),
    })
    return metrics


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "overlap_lab" / "cli.py").is_file():
        print(f"perfbench: no overlap_lab sources under {SRC}", file=sys.stderr)
        return 2
    if hasattr(sys, "set_int_max_str_digits"):
        sys.set_int_max_str_digits(0)  # the checks parse exact brackets

    deadline = time.monotonic() + DEADLINE_S
    ref_start = host_ref()
    jobs = job_list(args.workload, args.seed)
    check = verify_once(make_check(args.workload))
    if not args.trace:
        setup, setup_raw = setup_s()
    worker = Worker(deadline)
    try:
        if args.trace:
            plain = run_passes(worker, jobs, check, seconds=args.seconds / 2)
            worker.request({"trace": True})
            traced = run_passes(worker, jobs, check, passes=plain.passes)
            phases = [plain, traced]
        else:
            plain = run_passes(worker, jobs, check, seconds=args.seconds)
            rss_kib = worker.request({"rss": True})["maxrss_kib"]
            phases = [plain]
    except (TimeoutError, RuntimeError) as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1
    finally:
        worker.close()
    ref_end = host_ref()
    ref = statistics.median(r for phase in phases for r in phase.refs)

    failures = [f for phase in phases for f in phase.failures]
    attempted = sum(len(phase.times) for phase in phases)
    for failure in failures[:5]:
        print(f"perfbench: FAILED {failure}", file=sys.stderr)
    print(
        f"perfbench: {args.workload} seed={args.seed} trace={args.trace} "
        f"passes={plain.passes}x{len(jobs)} jobs={attempted} failed={len(failures)} "
        f"host.ref_s start={ref_start:.6f} median={ref:.6f} end={ref_end:.6f}",
        file=sys.stderr,
    )
    if args.trace:
        metrics = per_layer(plain, traced, ref)
    else:
        rate, p50, p90 = timing(plain, plain.scaled_times())
        raw_rate, raw_p50, raw_p90 = timing(plain, plain.times)
        print(
            f"perfbench: unscaled setup_s={setup_raw:.6f} jobs_per_s={raw_rate:.4f} "
            f"job_p50_s={raw_p50:.6f} job_p90_s={raw_p90:.6f}",
            file=sys.stderr,
        )
        metrics = {
            "setup_s": (setup, "s"),
            "jobs_per_s": (rate, "1/s"),
            "job_p50_s": (p50, "s"),
            "job_p90_s": (p90, "s"),
            "peak_rss_mib": (rss_kib / 1024, "MiB"),
        }
    print(json.dumps({
        "correct": not failures,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
