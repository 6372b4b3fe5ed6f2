"""Seeded job lists for the four benchmark workloads.

A workload's job list is one pass.  Its job shapes (the sizes that set a
job's cost) and output formats are fixed, so passes cost nearly the same
for every seed; the seed chooses the inputs within each shape and the
order the jobs run in.  Every job is
a CLI argv plus the facts its output check needs.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass, field

FORMATS = ("plain", "csv", "json")


@dataclass(frozen=True)
class Job:
    argv: list[str]
    meta: dict = field(default_factory=dict)


# Every pass has 20 jobs.  Listed cheapest first, ranks 9-12 and 17-20
# are each four runs of one shape, so a run's median and 90th-percentile
# job times fall in the middle of a group of like jobs and do not jump
# between shapes of different cost.  Formats follow the list position,
# so a pass costs the same for every seed.

# count_tables: (k, largest length); a pass fills the pair tables 20 times
COUNT_SHAPES = (
    (2, 10), (2, 25), (3, 15), (3, 30), (4, 15), (4, 30), (10, 12), (10, 25),
    (2, 70), (2, 70), (2, 70), (2, 70),
    (3, 80), (4, 80), (10, 80), (2, 100),
    (2, 130), (2, 130), (2, 130), (2, 130),
)

# limits_digits: (k, precision before seed jitter), on the alphabet sizes
# with published three-decimal limits.  json and csv print the exact
# brackets, whose integers pass Python's 4300-digit str() limit above
# about 1000 digits, so larger precisions print plain.
LIMIT_SHAPES = (
    (2, 3), (3, 3), (4, 3), (5, 3), (10, 3), (100, 3), (3, 300), (4, 600),
    (5, 1000), (5, 1000), (5, 1000), (5, 1000),
    (2, 1000), (10, 2000), (100, 2500), (2, 2500),
    (3, 4000), (3, 4000), (3, 4000), (3, 4000),
)
JSON_PRECISION_LIMIT = 1000

# oracle_checks: (k, m, n, checks); every check runs with m = n
ALL = ("census", "lemmas", "fourthirds", "lso-histogram")
CENSUS = ("census",)
ORACLE_SHAPES = (
    (2, 3, 3, ALL), (2, 4, 4, ALL), (2, 5, 5, ALL), (3, 2, 2, ALL),
    (3, 3, 3, ALL), (4, 2, 2, ALL), (4, 3, 3, ALL), (3, 4, 4, CENSUS),
    (2, 6, 6, CENSUS), (2, 6, 6, CENSUS), (2, 6, 6, CENSUS), (2, 6, 6, CENSUS),
    (3, 4, 4, ALL), (2, 6, 7, CENSUS), (2, 6, 6, ALL), (2, 7, 7, CENSUS),
    (2, 7, 7, ALL), (2, 7, 7, ALL), (2, 7, 7, ALL), (2, 7, 7, ALL),
)

# analyze_long: (kind, alphabet, length); periodic kinds name the root length
ALPHABETS = {"k2": 2, "k4": 4, "k12": 12, "letters": 26}
ANALYZE_SHAPES = (
    ("random", "k2", 1_000), ("random", "k12", 3_000), ("periodic3", "letters", 1_000),
    ("periodic2", "k2", 3_000), ("rotation", "letters", 3_000), ("periodic5", "k12", 10_000),
    ("periodic3", "k4", 10_000), ("random", "letters", 10_000),
    ("rotation", "k4", 30_000), ("rotation", "k4", 30_000), ("rotation", "k4", 30_000), ("rotation", "k4", 30_000),
    ("random", "letters", 100_000), ("rotation", "letters", 100_000), ("random", "k12", 100_000), ("random", "k4", 100_000),
    ("periodic2", "k2", 100_000), ("periodic2", "k2", 100_000), ("periodic2", "k2", 100_000), ("periodic2", "k2", 100_000),
)


def _formats(allowed: list[tuple[str, ...]]) -> list[str]:
    """Formats by list position, cycling through those each shape allows."""
    return [formats[index % len(formats)] for index, formats in enumerate(allowed)]


def smallest_terms(k: int, precision: int) -> int:
    """Fewest series terms that certify `precision` places for every limit.

    The widest bracket is the expected shortest overlap's, whose tail
    bound is ((k-1)t + k) / ((k-1)^2 k^t); certification needs it below
    1 / (2 * 10^precision).
    """
    def certifies(t: int) -> bool:
        return 2 * 10**precision * ((k - 1) * t + k) < (k - 1) ** 2 * k**t

    t = max(1, int(precision * math.log(10) / math.log(k)))
    while t > 1 and certifies(t - 1):
        t -= 1
    while not certifies(t):
        t += 1
    return t


def count_tables(rng: random.Random) -> list[Job]:
    jobs = []
    for (k, n), fmt in zip(COUNT_SHAPES, _formats([FORMATS] * len(COUNT_SHAPES))):
        quantities = rng.choice(("M,R,U", "M,R,U,u"))
        argv = ["count", "--k", str(k), "--n", str(n), "--quantities", quantities, "--format", fmt]
        jobs.append(Job(argv, {"k": k, "n": n, "quantities": quantities.split(","), "format": fmt}))
    return jobs


def limits_digits(rng: random.Random) -> list[Job]:
    precisions = [base - (rng.randrange(10) if base > 3 else 0) for _, base in LIMIT_SHAPES]
    allowed = [FORMATS if p <= JSON_PRECISION_LIMIT else ("plain",) for p in precisions]
    jobs = []
    for (k, _), precision, fmt in zip(LIMIT_SHAPES, precisions, _formats(allowed)):
        terms = smallest_terms(k, precision)
        argv = ["limits", "--k", str(k), "--terms", str(terms), "--precision", str(precision), "--format", fmt]
        jobs.append(Job(argv, {"k": k, "precision": precision, "terms": terms, "format": fmt}))
    return jobs


def oracle_checks(rng: random.Random) -> list[Job]:
    # plain census omits the left-bordered matrix, which a square census
    # recovers as the transpose of the right-bordered one
    allowed = [FORMATS if m == n else ("csv", "json") for _, m, n, _ in ORACLE_SHAPES]
    jobs = []
    for (k, m, n, checks), fmt in zip(ORACLE_SHAPES, _formats(allowed)):
        if checks == CENSUS:
            argv = ["oracle", "--k", str(k), "--m", str(m), "--n", str(n), "--format", fmt]
        else:
            order = rng.sample(checks, len(checks))
            argv = ["oracle", "--k", str(k), "--n", str(n), "--checks", ",".join(order), "--format", fmt]
        jobs.append(Job(argv, {"k": k, "m": m, "n": n, "checks": checks, "format": fmt}))
    return jobs


def _word_text(symbols: list[int], alphabet: str) -> str:
    if alphabet == "letters":
        return "".join(chr(97 + s) for s in symbols)
    if ALPHABETS[alphabet] <= 10:
        return "".join(map(str, symbols))
    return ",".join(map(str, symbols))


def _word_pair(rng: random.Random, kind: str, k: int, n: int) -> tuple[list[int], list[int]]:
    if kind == "random":
        return rng.choices(range(k), k=n), rng.choices(range(k), k=n)
    if kind == "rotation":
        u = rng.choices(range(k), k=n)
        shift = rng.randrange(1, n)
        return u, u[shift:] + u[:shift]
    # periodic: a primitive root of prime length repeated, v a shifted copy,
    # so both border chains hold about n / root symbols
    size = int(kind.removeprefix("periodic"))
    root = rng.choices(range(k), k=size)
    while len(set(root)) == 1:
        root = rng.choices(range(k), k=size)
    shift = rng.randrange(size)
    u = [root[i % size] for i in range(n)]
    v = [root[(i + shift) % size] for i in range(n - rng.randrange(size))]
    return u, v


def analyze_long(rng: random.Random) -> list[Job]:
    jobs = []
    for (kind, alphabet, n), fmt in zip(ANALYZE_SHAPES, _formats([FORMATS] * len(ANALYZE_SHAPES))):
        k = ALPHABETS[alphabet]
        u, v = _word_pair(rng, kind, k, n)
        words = [_word_text(u, alphabet), _word_text(v, alphabet)]
        flags = ["--letters"] if alphabet == "letters" else ["--k", str(k)]
        argv = ["analyze", *words, *flags, "--format", fmt]
        jobs.append(Job(argv, {"u": u, "v": v, "alphabet": alphabet, "format": fmt}))
    return jobs


WORKLOADS = {
    "count_tables": count_tables,
    "limits_digits": limits_digits,
    "oracle_checks": oracle_checks,
    "analyze_long": analyze_long,
}


def job_list(workload: str, seed: int) -> list[Job]:
    """One pass of `workload` for `seed`, shuffled into the order it runs."""
    rng = random.Random(f"{workload}:{seed}")
    jobs = WORKLOADS[workload](rng)
    rng.shuffle(jobs)
    return jobs
