"""Golden outputs: the exact stdout and exit code of each CLI command in
every format, the stderr of the refusals that main reports, and the
violation reports of oracle runs with a fault injected.

The expected bytes live in cli_golden.json next to this file.  After a
deliberate output change, rewrite it with

    PYTHONPATH=src python tests/test_cli_golden.py

and review the diff of the JSON file like any other change.
"""

import contextlib
import hashlib
import io
import json
import pathlib

import pytest

from overlap_lab import cli, oracle
from overlap_lab.cli import EXIT_VIOLATIONS, main

GOLDEN = pathlib.Path(__file__).with_name("cli_golden.json")

COMMANDS = [
    ("analyze", "0110001", "1000101", "--k", "2"),
    ("analyze", "10,3,11", "3,11,10,3", "--k", "12"),
    ("analyze", "overlap", "lapse", "--letters"),
    ("analyze", "0", "1", "--k", "2"),
    ("count", "--k", "3", "--n", "18", "--quantities", "M,R,U,u"),
    ("oracle", "--k", "2", "--n", "3", "--checks", "census,lemmas,fourthirds,lso-histogram"),
    ("oracle", "--k", "3", "--m", "3", "--n", "2"),
    ("oracle", "--k", "3", "--m", "3", "--n", "2", "--checks", "lso-histogram,census,fourthirds,lemmas"),
    ("limits", "--k", "2", "--terms", "40"),
    ("limits", "--k", "3", "--terms", "40", "--precision", "8"),
]

# large count tables in one format each: every row of the pair-table fill
LARGE_COUNTS = [
    ("count", "--k", "2", "--n", "130", "--quantities", "M,R,U,u", "--format", "csv"),
    ("count", "--k", "10", "--n", "80", "--format", "json"),
]

# refusals that main maps to an exit code and an error line on stderr
REFUSALS = [
    ("analyze", "012", "101", "--k", "2"),
    ("oracle", "--k", "2", "--n", "31"),
    ("limits", "--k", "2", "--terms", "2", "--precision", "8"),
]

_honest_unbordered_checker = oracle._unbordered_checker


def bordered_at_three():
    """A border test that calls every length-3 word bordered."""
    honest = _honest_unbordered_checker()
    return lambda w: len(w) != 3 and honest(w)


def shifted_histogram(k, n, *, budget=None):
    """The real lso histogram with one pair too many at lso 0."""
    histogram = oracle.census_by_lso(k, n, budget=budget)
    histogram[0] += 1
    return histogram


# each fault makes one oracle check fail, so its run must exit 1
FAULTS = {
    "lying border test": (oracle, "_unbordered_checker", bordered_at_three),
    "overlap sum past the bound": (
        cli,
        "max_overlap_sum",
        lambda k, n, *, budget=None: 4 * n // 3 + 1,
    ),
    "lso histogram off by one": (cli, "census_by_lso", shifted_histogram),
}

FAULT_COMMANDS = {
    "lying border test": ("oracle", "--k", "2", "--n", "4", "--checks", "lemmas"),
    "overlap sum past the bound": ("oracle", "--k", "2", "--n", "3", "--checks", "fourthirds"),
    "lso histogram off by one": ("oracle", "--k", "2", "--n", "3", "--checks", "lso-histogram"),
}

FORMATS = ("plain", "csv", "json")

# limits at benchmark size, far past the golden file's 40 terms: exit code
# and sha256 of stdout, recorded when the certificate still compared and
# rounded Fractions
LARGE_LIMITS = {
    "limits --k 3 --terms 8392 --precision 4000":
        (0, "ced3b4330d0899d6a94a46103f795f19bc3d0b7a153d34139095a50ecdb6bdd2"),
    "limits --k 5 --terms 1431 --precision 997 --format csv":
        (0, "f2de52ed71fd3e7632e140b6212e7b0e474236314e34d07ff8908afa19282707"),
    "limits --k 4 --terms 997 --precision 597 --format json":
        (0, "4afd64b6f042bfbdd168a9993e276fc196d259d6a42435af6378a35b570d2724"),
    "limits --k 100 --terms 1248 --precision 2493":
        (0, "1ec383d59cd9dc0fa4436e41bbd1636f2136045fbf20c095004128ed57370f63"),
    "limits --k 2 --terms 8293 --precision 2492":
        (0, "76ce446582d81442bfdf826d719a19aed61efe1c84adc815b360eaead2d73870"),
}

# count tables far past the golden file's: k = 2 recorded when the fill
# still kept one S_p list per seed length for the whole fill, k = 3 and
# k = 10 when the close sums still squared u(z) - 1 in a loop of their own
LARGE_COUNTS_DIGEST = {
    "count --k 2 --n 1600 --format csv":
        (0, "7c50c4bd8843813d736cdd1fefbea1a74d0f71458e981da77af9c4382cf56dba"),
    "count --k 3 --n 1600 --format csv":
        (0, "c2ddf59248c0b1a3317f9c108e16024037c88cdef51022676e527f348af71d95"),
    "count --k 10 --n 400 --format json":
        (0, "529f287bd6e1b7621873e189aa2160436806148206e236f766e6f9340b672c64"),
}

CASES = (
    [(None, (*argv, "--format", fmt)) for argv in COMMANDS for fmt in FORMATS]
    + [(None, argv) for argv in LARGE_COUNTS]
    + [(None, argv) for argv in REFUSALS]
    + [
        (fault, (*argv, "--format", fmt))
        for fault, argv in FAULT_COMMANDS.items()
        for fmt in FORMATS
    ]
)


def case_id(fault: str | None, argv: tuple[str, ...]) -> str:
    return " ".join(argv) if fault is None else f"[{fault}] {' '.join(argv)}"


def capture(fault: str | None, argv: tuple[str, ...]) -> dict:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.ExitStack() as stack:
        if fault is not None:
            stack.enter_context(pytest.MonkeyPatch.context()).setattr(*FAULTS[fault])
        stack.enter_context(contextlib.redirect_stdout(out))
        stack.enter_context(contextlib.redirect_stderr(err))
        code = main(list(argv))
    record = {"exit": code, "stdout": out.getvalue()}
    if code > 1:
        record["stderr"] = err.getvalue()
    return record


@pytest.fixture(scope="module")
def golden() -> dict:
    return json.loads(GOLDEN.read_text(encoding="utf-8"))


@pytest.mark.parametrize("fault,argv", CASES, ids=[case_id(*case) for case in CASES])
def test_output_matches_golden(golden, fault, argv):
    got = capture(fault, argv)
    if fault is not None:
        assert got["exit"] == EXIT_VIOLATIONS
    assert got == golden[case_id(fault, argv)]


@pytest.mark.parametrize("command", LARGE_LIMITS)
def test_large_limits_match_digest(command):
    got = capture(None, tuple(command.split()))
    digest = hashlib.sha256(got["stdout"].encode()).hexdigest()
    assert (got["exit"], digest) == LARGE_LIMITS[command]


@pytest.mark.parametrize("command", LARGE_COUNTS_DIGEST)
def test_large_count_matches_digest(command):
    got = capture(None, tuple(command.split()))
    digest = hashlib.sha256(got["stdout"].encode()).hexdigest()
    assert (got["exit"], digest) == LARGE_COUNTS_DIGEST[command]


def test_golden_file_has_no_stale_cases(golden):
    assert sorted(golden) == sorted(case_id(*case) for case in CASES)


if __name__ == "__main__":
    records = {case_id(*case): capture(*case) for case in CASES}
    GOLDEN.write_text(json.dumps(records, indent=1) + "\n", encoding="utf-8")
