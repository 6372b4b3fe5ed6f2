"""Command-line interface: analyze pairs, count, verify, print limits.

Subcommands:

* analyze: borders and overlaps of one pair of words
* count:   exact pair counts from the recurrences, one row per length
* oracle:  exhaustive enumerations and structural checks
* limits:  certified limiting constants

Word text comes in three shapes: a digit string for alphabets up to 10
symbols, comma-separated decimal symbols above that, and lowercase a-z
(mapped to 0..25) behind --letters.

Exit codes: 0 success, 1 an oracle check found violations, 2 usage or
parse errors, 3 enumeration budget exceeded, 4 requested precision not
certifiable with the given number of series terms.  The pair budget
defaults to 2^34 and can be overridden through OVERLAP_LAB_BUDGET.
"""

from __future__ import annotations

import argparse
import csv
import json
import os
import sys
from fractions import Fraction

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
# so bigger counts are emitted as decimal strings
_JSON_INT_LIMIT = 1 << 53

_QUANTITY_ORDER = ("M", "R", "U", "u")
_CHECK_ORDER = ("census", "lemmas", "fourthirds", "lso-histogram")


def parse_word(text: str, k: int, *, letters: bool = False) -> Word:
    """Parse CLI word text, naming the offending position on failure."""
    alphabet = Alphabet(k)
    symbols: list[int] = []
    if letters:
        for pos, ch in enumerate(text):
            if not "a" <= ch <= "z":
                raise InvalidInputError(
                    f"character {ch!r} at position {pos} is not a lowercase letter"
                )
            symbols.append(ord(ch) - ord("a"))
    elif k <= 10:
        for pos, ch in enumerate(text):
            if not "0" <= ch <= "9":
                raise InvalidInputError(
                    f"character {ch!r} at position {pos} is not a digit"
                )
            sym = int(ch)
            if sym >= k:
                raise InvalidInputError(
                    f"symbol {sym} at position {pos} is outside the alphabet 0..{k - 1}"
                )
            symbols.append(sym)
    else:
        for pos, part in enumerate(text.split(",")):
            try:
                sym = int(part)
            except ValueError:
                raise InvalidInputError(
                    f"entry {part!r} at position {pos} is not an integer"
                ) from None
            if not 0 <= sym < k:
                raise InvalidInputError(
                    f"symbol {sym} at position {pos} is outside the alphabet 0..{k - 1}"
                )
            symbols.append(sym)
    if not symbols:
        raise InvalidInputError("empty word")
    return Word(tuple(symbols), alphabet)


def render_word(word: Word, *, letters: bool = False) -> str:
    """Inverse of parse_word for the same alphabet settings."""
    if letters:
        return "".join(chr(ord("a") + sym) for sym in word.symbols)
    if word.alphabet.k <= 10:
        return "".join(str(sym) for sym in word.symbols)
    return ",".join(str(sym) for sym in word.symbols)


def _json_count(value: int):
    return value if -_JSON_INT_LIMIT <= value <= _JSON_INT_LIMIT else str(value)


def _frac_text(value: Fraction) -> str:
    return f"{value.numerator}/{value.denominator}"


def _emit_json(doc: dict) -> None:
    print(json.dumps(doc, sort_keys=True))


def _emit_csv(header: list[str], rows: list[list]) -> None:
    writer = csv.writer(sys.stdout, lineterminator="\n")
    writer.writerow(header)
    writer.writerows(rows)


def _print_table(header: list[str], rows: list[list]) -> None:
    cells = [list(map(str, header))] + [list(map(str, row)) for row in rows]
    widths = [max(len(row[c]) for row in cells) for c in range(len(header))]
    for row in cells:
        print("  ".join(text.rjust(width) for text, width in zip(row, widths)).rstrip())


def _parse_quantities(text: str) -> tuple[str, ...]:
    items = [part.strip() for part in text.split(",") if part.strip()]
    if not items or any(item not in _QUANTITY_ORDER for item in items):
        raise argparse.ArgumentTypeError(
            "quantities must be a non-empty subset of M,R,U,u"
        )
    return tuple(q for q in _QUANTITY_ORDER if q in items)


def _parse_checks(text: str) -> tuple[str, ...]:
    items = [part.strip() for part in text.split(",") if part.strip()]
    if not items or any(item not in _CHECK_ORDER for item in items):
        raise argparse.ArgumentTypeError(
            "checks must be a non-empty subset of census,lemmas,fourthirds,lso-histogram"
        )
    return tuple(c for c in _CHECK_ORDER if c in items)


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


def cmd_analyze(args: argparse.Namespace) -> int:
    letters = args.letters
    k = 26 if letters else args.k
    u = parse_word(args.u, k, letters=letters)
    v = parse_word(args.v, k, letters=letters)
    profile = overlap_profile(u, v)

    def text(word: Word | None) -> str | None:
        return None if word is None else render_word(word, letters=letters)

    if args.format == "json":
        _emit_json(
            {
                "schema_version": SCHEMA_VERSION,
                "command": "analyze",
                "k": k,
                "letters": letters,
                "u": render_word(u, letters=letters),
                "v": render_word(v, letters=letters),
                "pair_class": profile.pair_class.value,
                "right_border_lengths": list(profile.right_border_lengths),
                "left_border_lengths": list(profile.left_border_lengths),
                "so_uv": text(profile.so_uv),
                "lso_uv": profile.lso_uv,
                "so_vu": text(profile.so_vu),
                "lso_vu": profile.lso_vu,
            }
        )
    elif args.format == "csv":
        _emit_csv(
            [
                "u",
                "v",
                "pair_class",
                "right_border_lengths",
                "left_border_lengths",
                "so_uv",
                "lso_uv",
                "so_vu",
                "lso_vu",
            ],
            [
                [
                    render_word(u, letters=letters),
                    render_word(v, letters=letters),
                    profile.pair_class.value,
                    " ".join(map(str, profile.right_border_lengths)),
                    " ".join(map(str, profile.left_border_lengths)),
                    text(profile.so_uv) or "",
                    profile.lso_uv,
                    text(profile.so_vu) or "",
                    profile.lso_vu,
                ]
            ],
        )
    else:
        def lengths_text(lengths: tuple[int, ...]) -> str:
            return " ".join(map(str, lengths)) if lengths else "none"

        print(f"u: {render_word(u, letters=letters)}")
        print(f"v: {render_word(v, letters=letters)}")
        print(f"class: {profile.pair_class.value}")
        print(f"right-border lengths: {lengths_text(profile.right_border_lengths)}")
        print(f"left-border lengths: {lengths_text(profile.left_border_lengths)}")
        print(f"so(u,v): {text(profile.so_uv) or 'none'}  lso(u,v): {profile.lso_uv}")
        print(f"so(v,u): {text(profile.so_vu) or 'none'}  lso(v,u): {profile.lso_vu}")
    return EXIT_OK


def cmd_count(args: argparse.Namespace) -> int:
    if args.n_max < 1:
        raise InvalidInputError(f"--n must be at least 1, got {args.n_max}")
    k = args.k
    cache = CountCache(k)
    getters = {
        "M": lambda n: counting.mutually_bordered_count(k, n, cache=cache),
        "R": lambda n: counting.right_bordered_count(k, n, cache=cache),
        "U": lambda n: counting.mutually_unbordered_count(k, n, cache=cache),
        "u": lambda n: counting.unbordered_count(k, n, cache=cache),
    }
    quantities = args.quantities
    rows = [
        [n] + [getters[q](n) for q in quantities] for n in range(1, args.n_max + 1)
    ]
    if args.format == "json":
        _emit_json(
            {
                "schema_version": SCHEMA_VERSION,
                "command": "count",
                "k": k,
                "n_max": args.n_max,
                "quantities": list(quantities),
                "rows": [
                    {
                        "n": row[0],
                        **{q: _json_count(val) for q, val in zip(quantities, row[1:])},
                    }
                    for row in rows
                ],
            }
        )
    elif args.format == "csv":
        _emit_csv(["n", *quantities], rows)
    else:
        _print_table(["n", *quantities], rows)
    return EXIT_OK


_CENSUS_FIELDS = (
    "mutually_bordered",
    "right_bordered",
    "left_bordered",
    "mutually_unbordered",
)


def _run_oracle_checks(
    k: int, m_max: int, n_range: range, checks: tuple[str, ...], budget: int | None
) -> tuple[dict, bool]:
    results: dict = {}
    violated = False
    if "census" in checks:
        results["census"] = [
            enumerate_pair_census(k, m, n, budget=budget)
            for m in range(1, m_max + 1)
            for n in n_range
        ]
    if "lemmas" in checks:
        entries = []
        for n in n_range:
            short = verify_shortest_unbordered(k, n, budget=budget)
            decomp = verify_decomposition(k, n, budget=budget)
            violated = violated or not short.ok or not decomp.ok
            entries.append((n, short, decomp))
        results["lemmas"] = entries
    if "fourthirds" in checks:
        entries = []
        for n in n_range:
            observed = max_overlap_sum(k, n, budget=budget)
            bound = 4 * n // 3
            violated = violated or observed > bound
            entries.append((n, observed, bound))
        results["fourthirds"] = entries
    if "lso-histogram" in checks:
        cache = CountCache(k)
        entries = []
        for n in n_range:
            histogram = census_by_lso(k, n, budget=budget)
            expected = {i: counting.s_count(k, i, n, cache=cache) for i in range(1, n)}
            expected[0] = k ** (2 * n) - sum(expected.values())
            mismatches = sorted(i for i in histogram if histogram[i] != expected[i])
            violated = violated or bool(mismatches)
            entries.append((n, histogram, expected, mismatches))
        results["lso-histogram"] = entries
    return results, violated


def _print_oracle_plain(results: dict) -> None:
    if "census" in results:
        censuses = results["census"]
        m_values = sorted({c.m for c in censuses})
        n_values = sorted({c.n for c in censuses})
        by_mn = {(c.m, c.n): c for c in censuses}
        titles = (
            ("mutually_bordered", "mutually bordered pairs"),
            ("right_bordered", "right-bordered pairs"),
            ("mutually_unbordered", "mutually unbordered pairs"),
        )
        for field, title in titles:
            print(f"{title}, rows m, columns n:")
            header = [""] + [f"n={n}" for n in n_values]
            rows = [
                [f"m={m}"] + [getattr(by_mn[(m, n)], field) for n in n_values]
                for m in m_values
            ]
            _print_table(header, rows)
            print()
    if "lemmas" in results:
        for n, short, decomp in results["lemmas"]:
            for label, report in (
                ("shortest-overlap-unbordered", short),
                ("decomposition", decomp),
            ):
                print(
                    f"n={n} {label}: checked={report.checked} "
                    f"violations={len(report.violations)}"
                )
                for u, v, reason in report.violations:
                    print(f"  u={render_word(u)} v={render_word(v)}: {reason}")
    if "fourthirds" in results:
        for n, observed, bound in results["fourthirds"]:
            verdict = "ok" if observed <= bound else "VIOLATION"
            print(f"n={n} max overlap sum {observed} bound {bound}: {verdict}")
    if "lso-histogram" in results:
        for n, histogram, _expected, mismatches in results["lso-histogram"]:
            body = " ".join(f"{i}:{histogram[i]}" for i in sorted(histogram))
            verdict = "ok" if not mismatches else f"MISMATCH at {mismatches}"
            print(f"n={n} lso histogram {body} recurrence {verdict}")


def _print_oracle_csv(results: dict) -> None:
    blocks: list[tuple[list[str], list[list]]] = []
    if "census" in results:
        blocks.append(
            (
                ["m", "n", *_CENSUS_FIELDS],
                [
                    [c.m, c.n] + [getattr(c, f) for f in _CENSUS_FIELDS]
                    for c in results["census"]
                ],
            )
        )
    if "lemmas" in results:
        rows = []
        for n, short, decomp in results["lemmas"]:
            rows.append(
                ["shortest-overlap-unbordered", n, short.checked, len(short.violations)]
            )
            rows.append(["decomposition", n, decomp.checked, len(decomp.violations)])
        blocks.append((["check", "n", "checked", "violations"], rows))
    if "fourthirds" in results:
        blocks.append(
            (
                ["n", "max_overlap_sum", "bound", "ok"],
                [
                    [n, observed, bound, str(observed <= bound).lower()]
                    for n, observed, bound in results["fourthirds"]
                ],
            )
        )
    if "lso-histogram" in results:
        rows = []
        for n, histogram, expected, _mismatches in results["lso-histogram"]:
            for i in sorted(histogram):
                rows.append(
                    [
                        n,
                        i,
                        histogram[i],
                        expected[i],
                        str(histogram[i] == expected[i]).lower(),
                    ]
                )
        blocks.append((["n", "lso", "pairs", "expected", "ok"], rows))
    for index, (header, rows) in enumerate(blocks):
        if index:
            print()
        _emit_csv(header, rows)


def _oracle_json_doc(k: int, checks: tuple[str, ...], results: dict) -> dict:
    payload: dict = {}
    if "census" in results:
        payload["census"] = [
            {
                "m": c.m,
                "n": c.n,
                **{f: _json_count(getattr(c, f)) for f in _CENSUS_FIELDS},
            }
            for c in results["census"]
        ]
    if "lemmas" in results:
        entries = []
        for n, short, decomp in results["lemmas"]:
            for label, report in (
                ("shortest-overlap-unbordered", short),
                ("decomposition", decomp),
            ):
                entries.append(
                    {
                        "check": label,
                        "n": n,
                        "checked": _json_count(report.checked),
                        "violation_count": len(report.violations),
                        "violations": [
                            {"u": render_word(u), "v": render_word(v), "reason": reason}
                            for u, v, reason in report.violations
                        ],
                    }
                )
        payload["lemmas"] = entries
    if "fourthirds" in results:
        payload["fourthirds"] = [
            {
                "n": n,
                "max_overlap_sum": observed,
                "bound": bound,
                "ok": observed <= bound,
            }
            for n, observed, bound in results["fourthirds"]
        ]
    if "lso-histogram" in results:
        payload["lso-histogram"] = [
            {
                "n": n,
                "histogram": {str(i): _json_count(histogram[i]) for i in histogram},
                "expected": {str(i): _json_count(expected[i]) for i in expected},
                "ok": not mismatches,
            }
            for n, histogram, expected, mismatches in results["lso-histogram"]
        ]
    return {
        "schema_version": SCHEMA_VERSION,
        "command": "oracle",
        "k": k,
        "checks": list(checks),
        "results": payload,
    }


def cmd_oracle(args: argparse.Namespace) -> int:
    if args.k < 1:
        raise InvalidInputError(f"--k must be at least 1, got {args.k}")
    if args.n_max < 1:
        raise InvalidInputError(f"--n must be at least 1, got {args.n_max}")
    m_max = args.m_max if args.m_max is not None else args.n_max
    if m_max < 1:
        raise InvalidInputError(f"--m must be at least 1, got {m_max}")
    k = args.k
    checks = args.checks
    budget = _budget_from_env()

    # refuse deterministically before any output if the largest requested
    # sub-enumeration would blow the budget
    largest = 0
    if "census" in checks:
        largest = max(largest, k ** (m_max + args.n_max))
    if any(c in checks for c in ("lemmas", "fourthirds", "lso-histogram")):
        largest = max(largest, k ** (2 * args.n_max))
    ensure_within_budget(largest, budget)

    results, violated = _run_oracle_checks(
        k, m_max, range(1, args.n_max + 1), checks, budget
    )
    if args.format == "json":
        _emit_json(_oracle_json_doc(k, checks, results))
    elif args.format == "csv":
        _print_oracle_csv(results)
    else:
        _print_oracle_plain(results)
    return EXIT_VIOLATIONS if violated else EXIT_OK


def cmd_limits(args: argparse.Namespace) -> int:
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
        print(
            f"error: {args.terms} terms cannot certify {args.precision} decimal "
            f"places for {', '.join(uncertified)}; rerun with a larger --terms",
            file=sys.stderr,
        )
        return EXIT_PRECISION
    if args.format == "json":
        _emit_json(
            {
                "schema_version": SCHEMA_VERSION,
                "command": "limits",
                "k": args.k,
                "terms": args.terms,
                "precision": args.precision,
                "reports": [
                    {
                        "quantity": r.quantity,
                        "decimal": r.decimal,
                        "lo": _frac_text(r.interval.lo),
                        "hi": _frac_text(r.interval.hi),
                    }
                    for r in reports
                ],
            }
        )
    elif args.format == "csv":
        _emit_csv(
            ["quantity", "decimal", "lo", "hi"],
            [
                [r.quantity, r.decimal, _frac_text(r.interval.lo), _frac_text(r.interval.hi)]
                for r in reports
            ],
        )
    else:
        print(f"k={args.k} terms={args.terms} precision={args.precision}")
        width = max(len(q) for q in QUANTITIES)
        for r in reports:
            print(f"{r.quantity.ljust(width)}  {r.decimal}")
    return EXIT_OK


def _add_format(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--format",
        choices=("plain", "csv", "json"),
        default="plain",
        help="output format (default plain)",
    )


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
    _add_format(pa)
    pa.set_defaults(func=cmd_analyze)

    pc = sub.add_parser("count", help="exact pair counts from the recurrences")
    pc.add_argument("--k", type=int, required=True, help="alphabet size")
    pc.add_argument(
        "--n", type=int, required=True, dest="n_max", help="largest length; rows run 1..N"
    )
    pc.add_argument(
        "--quantities",
        type=_parse_quantities,
        default=("M", "R", "U"),
        help="comma-separated subset of M,R,U,u (default M,R,U)",
    )
    _add_format(pc)
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
        type=_parse_checks,
        default=("census",),
        help="comma-separated subset of census,lemmas,fourthirds,lso-histogram",
    )
    _add_format(po)
    po.set_defaults(func=cmd_oracle)

    pl = sub.add_parser("limits", help="certified limiting constants")
    pl.add_argument("--k", type=int, required=True, help="alphabet size, at least 2")
    pl.add_argument("--terms", type=int, default=60, help="series terms (default 60)")
    pl.add_argument(
        "--precision", type=int, default=3, help="decimal places to certify (default 3)"
    )
    _add_format(pl)
    pl.set_defaults(func=cmd_limits)
    return parser


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
        return args.func(args)
    except InvalidInputError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except BudgetExceededError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_BUDGET
    finally:
        if old_cap is not None:
            sys.set_int_max_str_digits(old_cap)


if __name__ == "__main__":
    raise SystemExit(main())
