"""Command-line interface: analyze pairs, count, verify, print limits.

Subcommands:

* analyze: borders and overlaps of one pair of words
* count:   exact pair counts from the recurrences, one row per length
* oracle:  exhaustive enumerations and structural checks
* limits:  certified limiting constants

Word text comes in three shapes: a digit string for alphabets up to 10
symbols, comma-separated decimal symbols above that, and lowercase a-z
(mapped to 0..25) behind --letters.

Each cmd_* function computes its answer once and returns a Result: its
typed (header, rows) tables, the other fields of its JSON document, and
a plain-text renderer for the human layout.  main renders only the
format that was asked for, and each format is written in one place:

* csv prints the tables in order, with a blank line between blocks.  A
  None cell is empty, a bool is true/false and a tuple is space-joined.
* json prints one document with sorted keys: schema_version, command
  and the result's fields, where a table becomes a list of records
  dict(zip(header, row)).  Every integer past 2^53, where double-based
  parsers lose precision, is written as a decimal string, wherever it
  occurs.  In both formats a fraction is written "numerator/denominator".
* plain calls the result's renderer.

Exit codes: 0 success, 1 an oracle check found violations, 2 usage or
parse errors, 3 enumeration budget exceeded, 4 requested precision not
certifiable with the given number of series terms.  main is the one
place that maps errors to exit codes.  The pair budget defaults to 2^34
and can be overridden through OVERLAP_LAB_BUDGET.
"""

from __future__ import annotations

import argparse
import csv
import json
import os
import re
import sys
from collections.abc import Callable
from fractions import Fraction
from typing import NamedTuple

from . import counting
from .asymptotics import QUANTITIES, limit_report
from .counting import CountCache
from .errors import BudgetExceededError, InvalidInputError
from .oracle import (
    census_by_lso,
    ensure_within_budget,
    enumerate_pair_census,
    max_overlap_sum,
    verify_decomposition,
    verify_shortest_unbordered,
)
from .wordcore import Alphabet, Word, overlap_profile

EXIT_OK = 0
EXIT_VIOLATIONS = 1
EXIT_USAGE = 2
EXIT_BUDGET = 3
EXIT_PRECISION = 4

SCHEMA_VERSION = 1
BUDGET_ENV_VAR = "OVERLAP_LAB_BUDGET"

# JSON numbers above this lose integer precision in double-based parsers,
# so bigger integers are emitted as decimal strings
_JSON_INT_LIMIT = 1 << 53

_QUANTITY_ORDER = ("M", "R", "U", "u")
_CHECK_ORDER = ("census", "lemmas", "fourthirds", "lso-histogram")


# the characters of digit and letter words, and bytes.translate tables
# from characters to symbol values and back
_DIGITS = b"0123456789"
_LETTERS = b"abcdefghijklmnopqrstuvwxyz"
_SYMBOL_OF = bytes.maketrans(_DIGITS + _LETTERS, bytes(range(10)) + bytes(range(26)))
_DIGIT_OF = bytes.maketrans(bytes(range(10)), _DIGITS)
_LETTER_OF = bytes.maketrans(bytes(range(26)), _LETTERS)


def parse_word(text: str, k: int, *, letters: bool = False) -> Word:
    """Parse CLI word text, naming the first offending position on failure.

    Valid text is checked and converted by bytes.translate, split and
    map(int, ...); only a failed check looks for the offender.
    """
    alphabet = Alphabet(k)
    if not text:
        raise InvalidInputError("empty word")
    if letters or k <= 10:
        chars = _LETTERS if letters else _DIGITS[:k]
        if not text.isascii() or text.encode().translate(None, chars):
            raise _character_error(text, chars.decode(), k, letters)
        symbols = tuple(text.encode().translate(_SYMBOL_OF))
    else:
        symbols = _comma_symbols(text, k)
    return Word(symbols, alphabet)


def render_word(word: Word, *, letters: bool = False) -> str:
    """Inverse of parse_word for the same alphabet settings."""
    if letters:
        return bytes(word.symbols).translate(_LETTER_OF).decode()
    if word.alphabet.k <= 10:
        return bytes(word.symbols).translate(_DIGIT_OF).decode()
    # an int's repr is its decimal text, and map calls repr faster than str
    return ",".join(map(repr, word.symbols))


def _character_error(text: str, chars: str, k: int, letters: bool) -> InvalidInputError:
    """The error for the first character of text outside chars."""
    pos = re.search(f"[^{chars}]", text).start()
    ch = text[pos]
    if not letters and "0" <= ch <= "9":
        return InvalidInputError(
            f"symbol {ch} at position {pos} is outside the alphabet 0..{k - 1}"
        )
    kind = "lowercase letter" if letters else "digit"
    return InvalidInputError(f"character {ch!r} at position {pos} is not a {kind}")


def _comma_symbols(text: str, k: int) -> tuple[int, ...]:
    # int() also reads underscores, spaces, signs and non-ASCII digits,
    # none of which render_word would give back, so only ASCII digits and
    # commas reach it
    if text.isascii() and not text.encode().translate(None, _DIGITS + b","):
        try:
            symbols = tuple(map(int, text.split(",")))
        except ValueError:  # an empty entry, or one past int's digit limit
            pass
        else:
            if max(symbols) < k:
                return symbols
    raise _entry_error(text.split(","), k)


def _entry_error(parts: list[str], k: int) -> InvalidInputError:
    """The error for the first entry that is not a decimal symbol below k."""
    # int() refuses more digits than the interpreter's limit, if one is
    # set, counting leading zeros but not the sign
    limit = getattr(sys, "get_int_max_str_digits", lambda: 0)()
    for pos, part in enumerate(parts):
        digits = part.removeprefix("-")
        if not (digits.isascii() and digits.isdigit()) or 0 < limit < len(digits):
            return InvalidInputError(f"entry {part!r} at position {pos} is not an integer")
        if digits != part or int(part) >= k:
            # -0 is named as typed, since int() drops its sign
            return InvalidInputError(
                f"symbol {int(part) or part} at position {pos} is outside the alphabet 0..{k - 1}"
            )


class Table(NamedTuple):
    """One block of CSV rows; in JSON, a list of dict(zip(header, row))."""

    header: tuple[str, ...]
    rows: list[tuple]


class Result(NamedTuple):
    """A command's answer, computed once and rendered in any format."""

    tables: list[Table]
    fields: dict
    plain: Callable[[], None]
    violated: bool = False


class UncertifiedPrecisionError(Exception):
    """The series terms are too few to certify the requested precision."""


def _frac_text(value: Fraction) -> str:
    return f"{value.numerator}/{value.denominator}"


def _csv_cell(value):
    if value is None:
        return ""
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, tuple):
        return " ".join(map(str, value))
    if isinstance(value, Fraction):
        return _frac_text(value)
    return value


def _json_value(value):
    limit = _JSON_INT_LIMIT
    if type(value) is int:
        return value if -limit <= value <= limit else str(value)
    if isinstance(value, Table):
        return [dict(zip(value.header, map(_json_value, row))) for row in value.rows]
    if isinstance(value, dict):
        return {str(key): _json_value(item) for key, item in value.items()}
    if isinstance(value, (list, tuple)):
        # a periodic word has about 5*10^4 border lengths: test them in bulk
        ints = set(map(type, value)) == {int}
        if ints and -limit <= min(value) and max(value) <= limit:
            return list(value)
        return list(map(_json_value, value))
    if isinstance(value, Fraction):
        return _frac_text(value)
    return value


def _emit(result: Result, fmt: str, command: str) -> None:
    if fmt == "json":
        doc = {"schema_version": SCHEMA_VERSION, "command": command, **result.fields}
        print(json.dumps(_json_value(doc), sort_keys=True))
    elif fmt == "csv":
        writer = csv.writer(sys.stdout, lineterminator="\n")
        for index, (header, rows) in enumerate(result.tables):
            if index:
                print()
            writer.writerow(header)
            writer.writerows(map(_csv_cell, row) for row in rows)
    else:
        result.plain()


def _print_table(header, rows) -> None:
    cells = [list(map(str, header))] + [list(map(str, row)) for row in rows]
    widths = [max(len(row[c]) for row in cells) for c in range(len(header))]
    for row in cells:
        print("  ".join(text.rjust(width) for text, width in zip(row, widths)).rstrip())


def _subset(name: str, order: tuple[str, ...]) -> Callable[[str], tuple[str, ...]]:
    """An argparse type: a comma-separated subset of order, in that order."""

    def parse(text: str) -> tuple[str, ...]:
        items = [part.strip() for part in text.split(",") if part.strip()]
        if not items or any(item not in order for item in items):
            raise argparse.ArgumentTypeError(
                f"{name} must be a non-empty subset of {','.join(order)}"
            )
        return tuple(item for item in order if item in items)

    return parse


def _budget_from_env() -> int | None:
    raw = os.environ.get(BUDGET_ENV_VAR)
    if raw is None:
        return None
    try:
        value = int(raw)
    except ValueError:
        raise InvalidInputError(
            f"{BUDGET_ENV_VAR} must be an integer, got {raw!r}"
        ) from None
    if value < 1:
        raise InvalidInputError(f"{BUDGET_ENV_VAR} must be positive, got {value}")
    return value


_ANALYZE_HEADER = (
    "u", "v", "pair_class", "right_border_lengths", "left_border_lengths",
    "so_uv", "lso_uv", "so_vu", "lso_vu",
)


def cmd_analyze(args: argparse.Namespace) -> Result:
    letters = args.letters
    k = 26 if letters else args.k
    u = parse_word(args.u, k, letters=letters)
    v = parse_word(args.v, k, letters=letters)
    profile = overlap_profile(u, v)

    def text(word: Word | None) -> str | None:
        return None if word is None else render_word(word, letters=letters)

    row = (
        text(u),
        text(v),
        profile.pair_class.value,
        profile.right_border_lengths,
        profile.left_border_lengths,
        text(profile.so_uv),
        profile.lso_uv,
        text(profile.so_vu),
        profile.lso_vu,
    )

    def plain() -> None:
        def lengths_text(lengths: tuple[int, ...]) -> str:
            return " ".join(map(str, lengths)) if lengths else "none"

        u_text, v_text, pair_class, right, left, so_uv, lso_uv, so_vu, lso_vu = row
        print(f"u: {u_text}")
        print(f"v: {v_text}")
        print(f"class: {pair_class}")
        print(f"right-border lengths: {lengths_text(right)}")
        print(f"left-border lengths: {lengths_text(left)}")
        print(f"so(u,v): {so_uv or 'none'}  lso(u,v): {lso_uv}")
        print(f"so(v,u): {so_vu or 'none'}  lso(v,u): {lso_vu}")

    fields = {"k": k, "letters": letters, **dict(zip(_ANALYZE_HEADER, row))}
    return Result([Table(_ANALYZE_HEADER, [row])], fields, plain)


def cmd_count(args: argparse.Namespace) -> Result:
    if args.n_max < 1:
        raise InvalidInputError(f"--n must be at least 1, got {args.n_max}")
    k, quantities = args.k, args.quantities
    cache = CountCache(k)
    if quantities != ("u",):  # one pair fill to n, not one per row
        cache.mutually_bordered(args.n_max)
    counts = {
        "M": counting.mutually_bordered_count,
        "R": counting.right_bordered_count,
        "U": counting.mutually_unbordered_count,
        "u": counting.unbordered_count,
    }
    table = Table(
        ("n", *quantities),
        [
            (n, *(counts[q](k, n, cache=cache) for q in quantities))
            for n in range(1, args.n_max + 1)
        ],
    )
    fields = {"k": k, "n_max": args.n_max, "quantities": quantities, "rows": table}
    return Result([table], fields, lambda: _print_table(*table))


_CENSUS_FIELDS = (
    "mutually_bordered", "right_bordered", "left_bordered", "mutually_unbordered"
)
_CENSUS_TITLES = (
    ("mutually_bordered", "mutually bordered pairs"),
    ("right_bordered", "right-bordered pairs"),
    ("mutually_unbordered", "mutually unbordered pairs"),
)


def cmd_oracle(args: argparse.Namespace) -> Result:
    m_max = args.n_max if args.m_max is None else args.m_max
    for flag, value in (("--k", args.k), ("--n", args.n_max), ("--m", m_max)):
        if value < 1:
            raise InvalidInputError(f"{flag} must be at least 1, got {value}")
    k, checks, n_range = args.k, args.checks, range(1, args.n_max + 1)
    budget = _budget_from_env()

    # refuse deterministically before any output if the largest requested
    # sub-enumeration would blow the budget
    largest = 0
    if "census" in checks:
        largest = max(largest, k ** (m_max + args.n_max))
    if any(c in checks for c in ("lemmas", "fourthirds", "lso-histogram")):
        largest = max(largest, k ** (2 * args.n_max))
    ensure_within_budget(largest, budget)

    tables: list[Table] = []
    results: dict[str, Table] = {}
    censuses, lemmas, fourthirds, histograms = [], [], [], []
    if "census" in checks:
        censuses = [
            enumerate_pair_census(k, m, n, budget=budget)
            for m in range(1, m_max + 1)
            for n in n_range
        ]
        results["census"] = Table(
            ("m", "n", *_CENSUS_FIELDS),
            [(c.m, c.n, *(getattr(c, f) for f in _CENSUS_FIELDS)) for c in censuses],
        )
        tables.append(results["census"])
    if "lemmas" in checks:
        for n in n_range:
            for label, verify in (
                ("shortest-overlap-unbordered", verify_shortest_unbordered),
                ("decomposition", verify_decomposition),
            ):
                report = verify(k, n, budget=budget)
                violations = [
                    (render_word(u), render_word(v), why)
                    for u, v, why in report.violations
                ]
                row = (label, n, report.checked, len(violations))
                lemmas.append((*row, Table(("u", "v", "reason"), violations)))
        results["lemmas"] = Table(
            ("check", "n", "checked", "violation_count", "violations"), lemmas
        )
        tables.append(
            Table(("check", "n", "checked", "violations"), [r[:4] for r in lemmas])
        )
    if "fourthirds" in checks:
        for n in n_range:
            observed, bound = max_overlap_sum(k, n, budget=budget), 4 * n // 3
            fourthirds.append((n, observed, bound, observed <= bound))
        results["fourthirds"] = Table(
            ("n", "max_overlap_sum", "bound", "ok"), fourthirds
        )
        tables.append(results["fourthirds"])
    if "lso-histogram" in checks:
        cache = CountCache(k)
        for n in n_range:
            histogram = census_by_lso(k, n, budget=budget)
            expected = {i: counting.s_count(k, i, n, cache=cache) for i in range(1, n)}
            expected[0] = k ** (2 * n) - sum(expected.values())
            mismatches = sorted(i for i in histogram if histogram[i] != expected[i])
            histograms.append((n, histogram, expected, mismatches))
        results["lso-histogram"] = Table(
            ("n", "histogram", "expected", "ok"),
            [(n, hist, want, not bad) for n, hist, want, bad in histograms],
        )
        tables.append(
            Table(
                ("n", "lso", "pairs", "expected", "ok"),
                [
                    (n, i, hist[i], want[i], hist[i] == want[i])
                    for n, hist, want, _ in histograms
                    for i in sorted(hist)
                ],
            )
        )

    def plain() -> None:
        by_mn = {(c.m, c.n): c for c in censuses}
        for field, title in _CENSUS_TITLES if censuses else ():
            print(f"{title}, rows m, columns n:")
            _print_table(
                ["", *(f"n={n}" for n in n_range)],
                [
                    [f"m={m}", *(getattr(by_mn[m, n], field) for n in n_range)]
                    for m in range(1, m_max + 1)
                ],
            )
            print()
        for label, n, checked, count, violations in lemmas:
            print(f"n={n} {label}: checked={checked} violations={count}")
            for u, v, reason in violations.rows:
                print(f"  u={u} v={v}: {reason}")
        for n, observed, bound, ok in fourthirds:
            verdict = "ok" if ok else "VIOLATION"
            print(f"n={n} max overlap sum {observed} bound {bound}: {verdict}")
        for n, histogram, _, mismatches in histograms:
            body = " ".join(f"{i}:{histogram[i]}" for i in sorted(histogram))
            verdict = f"MISMATCH at {mismatches}" if mismatches else "ok"
            print(f"n={n} lso histogram {body} recurrence {verdict}")

    violated = (
        any(count for _, _, _, count, _ in lemmas)
        or not all(ok for *_, ok in fourthirds)
        or any(mismatches for *_, mismatches in histograms)
    )
    fields = {"k": k, "checks": checks, "results": results}
    return Result(tables, fields, plain, violated)


def cmd_limits(args: argparse.Namespace) -> Result:
    if args.terms < 1:
        raise InvalidInputError(f"--terms must be at least 1, got {args.terms}")
    if args.precision < 0:
        raise InvalidInputError(f"--precision must be non-negative, got {args.precision}")
    cache = CountCache(args.k) if args.k >= 1 else None
    reports = [
        limit_report(q, args.k, args.terms, args.precision, cache=cache)
        for q in QUANTITIES
    ]
    uncertified = [r.quantity for r in reports if not r.certified]
    if uncertified:
        raise UncertifiedPrecisionError(
            f"{args.terms} terms cannot certify {args.precision} decimal "
            f"places for {', '.join(uncertified)}; rerun with a larger --terms"
        )
    table = Table(
        ("quantity", "decimal", "lo", "hi"),
        [(r.quantity, r.decimal, r.interval.lo, r.interval.hi) for r in reports],
    )

    def plain() -> None:
        print(f"k={args.k} terms={args.terms} precision={args.precision}")
        width = max(len(q) for q in QUANTITIES)
        for r in reports:
            print(f"{r.quantity.ljust(width)}  {r.decimal}")

    fields = dict(k=args.k, terms=args.terms, precision=args.precision, reports=table)
    return Result([table], fields, plain)


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="overlap-lab",
        description="borders, overlaps, and exact pair counts for words",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    pa = sub.add_parser("analyze", help="borders and overlaps of one pair of words")
    pa.add_argument("u", help="first word")
    pa.add_argument("v", help="second word")
    alpha = pa.add_mutually_exclusive_group(required=True)
    alpha.add_argument(
        "--k",
        type=int,
        help="alphabet size; words are digit strings for k <= 10, comma-separated above",
    )
    alpha.add_argument(
        "--letters",
        action="store_true",
        help="read words as lowercase a-z over the 26-letter alphabet",
    )
    pa.set_defaults(func=cmd_analyze)

    pc = sub.add_parser("count", help="exact pair counts from the recurrences")
    pc.add_argument("--k", type=int, required=True, help="alphabet size")
    pc.add_argument(
        "--n", type=int, required=True, dest="n_max", help="largest length; rows run 1..N"
    )
    pc.add_argument(
        "--quantities",
        type=_subset("quantities", _QUANTITY_ORDER),
        default=("M", "R", "U"),
        help="comma-separated subset of M,R,U,u (default M,R,U)",
    )
    pc.set_defaults(func=cmd_count)

    po = sub.add_parser("oracle", help="exhaustive enumeration and structural checks")
    po.add_argument("--k", type=int, required=True, help="alphabet size")
    po.add_argument(
        "--m",
        type=int,
        default=None,
        dest="m_max",
        help="largest |u| for the census (defaults to --n)",
    )
    po.add_argument(
        "--n", type=int, required=True, dest="n_max", help="largest |v| / pair length"
    )
    po.add_argument(
        "--checks",
        type=_subset("checks", _CHECK_ORDER),
        default=("census",),
        help="comma-separated subset of census,lemmas,fourthirds,lso-histogram",
    )
    po.set_defaults(func=cmd_oracle)

    pl = sub.add_parser("limits", help="certified limiting constants")
    pl.add_argument("--k", type=int, required=True, help="alphabet size, at least 2")
    pl.add_argument("--terms", type=int, default=60, help="series terms (default 60)")
    pl.add_argument(
        "--precision", type=int, default=3, help="decimal places to certify (default 3)"
    )
    pl.set_defaults(func=cmd_limits)
    for command in (pa, pc, po, pl):
        command.add_argument(
            "--format",
            choices=("plain", "csv", "json"),
            default="plain",
            help="output format (default plain)",
        )
    return parser


_ERROR_EXITS = {
    InvalidInputError: EXIT_USAGE,
    BudgetExceededError: EXIT_BUDGET,
    UncertifiedPrecisionError: EXIT_PRECISION,
}


def main(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else EXIT_USAGE
    # exact counts and bracket ends print in full, past the 4300-digit cap
    # that Python 3.10.7 and later put on int-to-str conversion
    old_cap = getattr(sys, "get_int_max_str_digits", lambda: None)()
    if old_cap is not None:
        sys.set_int_max_str_digits(0)
    try:
        result = args.func(args)
        _emit(result, args.format, args.command)
        return EXIT_VIOLATIONS if result.violated else EXIT_OK
    except tuple(_ERROR_EXITS) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return _ERROR_EXITS[type(exc)]
    finally:
        if old_cap is not None:
            sys.set_int_max_str_digits(old_cap)


if __name__ == "__main__":
    raise SystemExit(main())
