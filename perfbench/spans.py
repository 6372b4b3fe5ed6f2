"""Span tracing installed from outside overlap_lab, at its layer boundaries.

install() replaces the public names that overlap_lab.cli imports and
calls, the public CountCache methods, cli.parse_word and Word
construction with wrappers that record one span per call: name, parent
span, start, end and an optional work figure.  Spans stay in memory
until the job's timed region has ended; fold() then turns them into
per-name totals and the caller starts the next job with an empty list.
"""

from __future__ import annotations

import functools
import math
import time

ORACLE_ENUMERATORS = (
    "enumerate_pair_census",
    "verify_shortest_unbordered",
    "verify_decomposition",
    "max_overlap_sum",
    "census_by_lso",
)


def _pairs(name: str, args: tuple) -> int:
    """Ordered pairs an oracle enumerator visits, from its arguments."""
    if name == "enumerate_pair_census":
        k, m, n = args[:3]
        return k ** (m + n)
    k, n = args[:2]
    if name == "max_overlap_sum":
        words = k**n
        return words * (words + 1) // 2
    return k ** (2 * n)


class Tracer:
    def __init__(self) -> None:
        # [name, parent index or -1, start, end, info]
        self.records: list[list] = []
        self._stack: list[int] = []

    def wrap(self, name: str, fn, info=None):
        records, stack, clock = self.records, self._stack, time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            record = [name, stack[-1] if stack else -1, clock(), 0.0, None]
            stack.append(len(records))
            records.append(record)
            try:
                result = fn(*args, **kwargs)
            finally:
                record[3] = clock()
                stack.pop()
            if info is not None:
                record[4] = info(args, result)
            return result

        return traced

    def fold(self) -> dict:
        """Per-name totals of this job's spans; clears the span list.

        Returns {"spans": {name: [calls, busy_s, self_s, work]},
        "max_bits", "rows": {n: row fill seconds for k = 2},
        "limits": [digits, terms, width_log10 sum, reports]}.  Self time
        is a span's duration minus that of its direct children, which
        nest strictly because one thread makes every call.
        """
        records = self.records
        child = [0.0] * len(records)
        for _, parent, start, end, _ in records:
            if parent >= 0:
                child[parent] += end - start
        totals: dict[str, list] = {}
        max_bits = 0
        rows: dict[int, float] = {}
        limits = [0, 0, 0.0, 0]
        for index, (name, _, start, end, info) in enumerate(records):
            duration = end - start
            entry = totals.setdefault(name, [0, 0.0, 0.0, 0])
            entry[0] += 1
            entry[1] += duration
            entry[2] += duration - child[index]
            if info is None:
                continue
            if name == "counting.pairs":
                k, n, bits = info
                max_bits = max(max_bits, bits)
                if k == 2:
                    # the first call at n fills row n; later ones look it up
                    rows[n] = max(rows.get(n, 0.0), duration)
            elif name in ("counting.unbordered", "counting.g"):
                max_bits = max(max_bits, info)
            elif name == "asymptotics.limit_report":
                for slot, value in enumerate((*info, 1)):
                    limits[slot] += value
            else:
                entry[3] += info
        records.clear()
        return {"spans": totals, "max_bits": max_bits, "rows": rows, "limits": limits}


def install(tracer: Tracer):
    """Wrap overlap_lab's layer boundaries; returns the traced cli.main."""
    from overlap_lab import cli, counting
    from overlap_lab.counting import CountCache
    from overlap_lab.wordcore import Word

    def bits(args, result):
        return result.bit_length()

    def pair_info(args, result):
        return args[0].k, args[1], result.bit_length()

    def pairs_of(name):
        return lambda args, result: _pairs(name, args)

    def limit_info(args, result):
        width = result.interval.width
        return result.precision, result.terms, math.log10(width.denominator) - math.log10(width.numerator)

    cli.limit_report = tracer.wrap("asymptotics.limit_report", cli.limit_report, limit_info)
    for name in ORACLE_ENUMERATORS:
        setattr(cli, name, tracer.wrap(f"oracle.{name}", getattr(cli, name), pairs_of(name)))
    cli.ensure_within_budget = tracer.wrap("oracle.ensure_within_budget", cli.ensure_within_budget)
    cli.overlap_profile = tracer.wrap(
        "wordcore.overlap_profile", cli.overlap_profile, lambda args, result: len(args[0]) + len(args[1])
    )
    cli.parse_word = tracer.wrap("cli.parse_word", cli.parse_word)
    for name in (
        "mutually_bordered_count",
        "right_bordered_count",
        "mutually_unbordered_count",
        "unbordered_count",
        "s_count",
    ):
        setattr(counting, name, tracer.wrap(f"counting.{name}", getattr(counting, name)))
    CountCache.unbordered = tracer.wrap("counting.unbordered", CountCache.unbordered, bits)
    CountCache.g = tracer.wrap("counting.g", CountCache.g, bits)
    for name in ("mutually_bordered", "right_bordered", "mutually_unbordered"):
        setattr(CountCache, name, tracer.wrap("counting.pairs", getattr(CountCache, name), pair_info))
    Word.__init__ = tracer.wrap("wordcore.word_init", Word.__init__)
    return tracer.wrap("cli.main", cli.main)
