"""Output checks for the benchmark's jobs, run outside the timed region.

Each checker takes a job, the exit code and the captured stdout, and
returns None when the output is right or a one-line reason when it is
not.  The references are independent of the code under test: published
tables, identities every count must satisfy, a Z-function border finder,
and brackets that must agree across precisions.
"""

from __future__ import annotations

import csv
import io
import json
import sys
from fractions import Fraction

from workloads import ALPHABETS, Job

# analyze prints border-length lists far longer than csv's default field limit
csv.field_size_limit(sys.maxsize)

# published exact pair counts for k = 2, n = 1..15: (M, R, U)
PUBLISHED_DIAGONAL = (
    (0, 0, 4),
    (4, 4, 4),
    (26, 14, 10),
    (124, 52, 28),
    (524, 204, 92),
    (2154, 806, 330),
    (8706, 3214, 1250),
    (34996, 12844, 4852),
    (140290, 51366, 19122),
    (561724, 205492, 75868),
    (2247892, 822108, 302196),
    (8993414, 3288858, 1206086),
    (35976928, 13156624, 4818688),
    (143913546, 52629590, 19262730),
    (575664422, 210525818, 77025766),
)

# published three-decimal limits, good to 0.001: k -> M, R, U and expected lso
PUBLISHED_LIMITS = {
    2: ("0.536", "0.196", "0.072", "1.156"),
    3: ("0.196", "0.247", "0.310", "0.605"),
    4: ("0.098", "0.215", "0.473", "0.395"),
    5: ("0.058", "0.182", "0.578", "0.290"),
    10: ("0.012", "0.098", "0.792", "0.121"),
    100: ("0.000", "0.010", "0.980", "0.010"),
}
LIMIT_QUANTITIES = ("M_limit", "R_limit", "U_limit", "expected_lso", "unbordered_density")


def unbordered_counts(k: int, n: int) -> list[int]:
    """u_0..u_n by Nielsen's recurrence, written out here on its own."""
    u = [1]
    for m in range(1, n + 1):
        u.append(k * u[-1] - (u[m // 2] if m % 2 == 0 else 0))
    return u


def _csv_blocks(text: str) -> list[list[list[str]]]:
    return [list(csv.reader(io.StringIO(block))) for block in text.split("\n\n") if block.strip()]


def _plain_table(lines: list[str]) -> list[list[str]]:
    return [line.split() for line in lines if line.strip()]


# count ------------------------------------------------------------------


def _count_rows(fmt: str, out: str, quantities: list[str]) -> list[dict]:
    if fmt == "json":
        doc = json.loads(out)
        return [{key: int(value) for key, value in row.items()} for row in doc["rows"]]
    table = list(csv.reader(io.StringIO(out))) if fmt == "csv" else _plain_table(out.splitlines())
    if table[0] != ["n", *quantities]:
        raise ValueError(f"header {table[0]}")
    return [dict(zip(table[0], map(int, row))) for row in table[1:]]


def check_count(job: Job, code: int, out: str) -> str | None:
    k, n_max, quantities = job.meta["k"], job.meta["n"], job.meta["quantities"]
    if code != 0:
        return f"exit code {code}"
    rows = _count_rows(job.meta["format"], out, quantities)
    if [row["n"] for row in rows] != list(range(1, n_max + 1)):
        return "rows are not n = 1..N"
    u = unbordered_counts(k, n_max)
    for row in rows:
        n = row["n"]
        if row["M"] + 2 * row["R"] + row["U"] != k ** (2 * n):
            return f"M + 2R + U != k^(2n) at n={n}"
        if k == 2 and n <= len(PUBLISHED_DIAGONAL) and (row["M"], row["R"], row["U"]) != PUBLISHED_DIAGONAL[n - 1]:
            return f"differs from the published table at n={n}"
        if "u" in row and row["u"] != u[n]:
            return f"u_{n} differs from Nielsen's recurrence"
    return None


# limits -----------------------------------------------------------------


class LimitsChecker:
    """Limits output: certified digits that agree with every other bracket.

    Keeps, per (k, quantity), the intersection of every bracket seen so
    far.  A plain decimal d at precision p certifies the value lies
    within 10^-p of d, so it contributes [d - 10^-p, d + 10^-p].
    """

    def __init__(self) -> None:
        self.brackets: dict[tuple[int, str], tuple[Fraction, Fraction]] = {}

    def _reports(self, fmt: str, out: str) -> list[tuple[str, str, Fraction | None, Fraction | None]]:
        if fmt == "json":
            return [
                (r["quantity"], r["decimal"], Fraction(r["lo"]), Fraction(r["hi"]))
                for r in json.loads(out)["reports"]
            ]
        if fmt == "csv":
            table = list(csv.reader(io.StringIO(out)))
            if table[0] != ["quantity", "decimal", "lo", "hi"]:
                raise ValueError(f"header {table[0]}")
            return [(q, d, Fraction(lo), Fraction(hi)) for q, d, lo, hi in table[1:]]
        return [(q, d, None, None) for q, d in _plain_table(out.splitlines()[1:])]

    def check(self, job: Job, code: int, out: str) -> str | None:
        k, precision = job.meta["k"], job.meta["precision"]
        if code != 0:
            return f"exit code {code}"
        if job.meta["format"] == "plain":
            header = f"k={k} terms={job.meta['terms']} precision={precision}"
            if out.splitlines()[0] != header:
                return "plain header differs"
        reports = self._reports(job.meta["format"], out)
        if [r[0] for r in reports] != list(LIMIT_QUANTITIES):
            return "quantities differ"
        ulp = Fraction(1, 10**precision)
        for quantity, decimal, lo, hi in reports:
            whole, _, places = decimal.partition(".")
            if len(places) != precision or not (whole + places).isdigit():
                return f"{quantity}: {precision} places expected"
            value = Fraction(decimal)
            if lo is not None:
                if not (hi - lo < ulp / 2 and abs((lo + hi) / 2 - value) <= ulp / 2):
                    return f"{quantity}: bracket does not certify its decimal"
            else:
                lo, hi = value - ulp, value + ulp
            old_lo, old_hi = self.brackets.get((k, quantity), (lo, hi))
            lo, hi = max(lo, old_lo), min(hi, old_hi)
            if lo > hi:
                return f"{quantity}: bracket at precision {precision} misses an earlier one for k={k}"
            self.brackets[(k, quantity)] = (lo, hi)
        if precision == 3 and any(
            abs(Fraction(r[1]) - Fraction(want)) > Fraction(1, 1000)
            for r, want in zip(reports, PUBLISHED_LIMITS[k])
        ):
            return "three-decimal values are more than 0.001 from the published limits"
        return None


# oracle -----------------------------------------------------------------

_CENSUS_FIELDS = ("mutually_bordered", "right_bordered", "left_bordered", "mutually_unbordered")


def _oracle_plain(out: str) -> dict:
    census_titles = {
        "mutually bordered pairs, rows m, columns n:": 0,
        "right-bordered pairs, rows m, columns n:": 1,
        "mutually unbordered pairs, rows m, columns n:": 3,
    }
    matrices: dict[int, dict[tuple[int, int], int]] = {}
    found: dict = {"lemmas": [], "fourthirds": [], "lso-histogram": {}}
    lines = out.splitlines()
    index = 0
    while index < len(lines):
        line = lines[index]
        if line in census_titles:
            header = lines[index + 1].split()
            cells = {}
            index += 2
            while index < len(lines) and lines[index]:
                row = lines[index].split()
                m = int(row[0].removeprefix("m="))
                for col, value in zip(header, row[1:]):
                    cells[(m, int(col.removeprefix("n=")))] = int(value)
                index += 1
            matrices[census_titles[line]] = cells
        elif " checked=" in line:
            n, rest = line.split(" ", 1)
            checked, violations = (int(part.split("=")[1]) for part in rest.split(": ")[1].split())
            found["lemmas"].append((int(n[2:]), checked, violations))
        elif " max overlap sum " in line:
            words = line.split()
            found["fourthirds"].append((int(words[0][2:]), int(words[4]), int(words[6].rstrip(":"))))
        elif " lso histogram " in line:
            words = line.split()
            found["lso-histogram"][int(words[0][2:])] = {
                int(key): int(value) for key, value in (w.split(":") for w in words[3:-2])
            }
        index += 1
    if matrices:
        found["census"] = {
            (m, n): (value, matrices[1][(m, n)], matrices[1].get((n, m)), matrices[3][(m, n)])
            for (m, n), value in matrices[0].items()
        }
    return found


def _oracle_csv(out: str) -> dict:
    found: dict = {"lemmas": [], "fourthirds": [], "lso-histogram": {}}
    for block in _csv_blocks(out):
        header, rows = block[0], block[1:]
        if header[:2] == ["m", "n"]:
            found["census"] = {(int(r[0]), int(r[1])): tuple(map(int, r[2:])) for r in rows}
        elif header[0] == "check":
            found["lemmas"] += [(int(r[1]), int(r[2]), int(r[3])) for r in rows]
        elif header[1] == "max_overlap_sum":
            found["fourthirds"] += [(int(r[0]), int(r[1]), int(r[2])) for r in rows]
        else:
            for r in rows:
                found["lso-histogram"].setdefault(int(r[0]), {})[int(r[1])] = int(r[2])
    return found


def _oracle_json(out: str) -> dict:
    results = json.loads(out)["results"]
    found: dict = {
        "lemmas": [(e["n"], int(e["checked"]), e["violation_count"]) for e in results.get("lemmas", [])],
        "fourthirds": [(e["n"], e["max_overlap_sum"], e["bound"]) for e in results.get("fourthirds", [])],
        "lso-histogram": {
            e["n"]: {int(i): int(c) for i, c in e["histogram"].items()} for e in results.get("lso-histogram", [])
        },
    }
    if "census" in results:
        found["census"] = {
            (e["m"], e["n"]): tuple(int(e[f]) for f in _CENSUS_FIELDS) for e in results["census"]
        }
    return found


class OracleChecker:
    """Oracle output against identities and the recurrence's count rows.

    `diagonal(k, n)` gives the (M, R, U) row that `count` prints; the
    census diagonal, found by enumeration, must equal it.
    """

    def __init__(self, diagonal) -> None:
        self.diagonal = diagonal

    def check(self, job: Job, code: int, out: str) -> str | None:
        k, m_max, n_max, checks = job.meta["k"], job.meta["m"], job.meta["n"], job.meta["checks"]
        if code != 0:
            return f"exit code {code}"
        parse = {"plain": _oracle_plain, "csv": _oracle_csv, "json": _oracle_json}[job.meta["format"]]
        found = parse(out)
        census = found.get("census", {})
        if sorted(census) != [(m, n) for m in range(1, m_max + 1) for n in range(1, n_max + 1)]:
            return "census does not cover every (m, n)"
        for (m, n), (mutual, right, left, neither) in census.items():
            if mutual + right + left + neither != k ** (m + n):
                return f"census total at m={m} n={n} is not k^(m+n)"
            if m == n and (mutual, right, neither) != self.diagonal(k, n):
                return f"census diagonal at n={n} differs from the count row"
        n_values = list(range(1, n_max + 1)) if "lemmas" in checks else []
        if sorted((n, c) for n, c, _ in found["lemmas"]) != sorted(
            (n, k ** (2 * n)) for n in n_values for _ in range(2)
        ) or any(v for _, _, v in found["lemmas"]):
            return "lemma checks incomplete or violated"
        if [n for n, _, _ in found["fourthirds"]] != n_values or any(
            observed > bound or bound != 4 * n // 3 for n, observed, bound in found["fourthirds"]
        ):
            return "four-thirds bound incomplete or violated"
        u = unbordered_counts(k, n_max)
        histograms = found["lso-histogram"]
        if sorted(histograms) != n_values:
            return "lso histograms incomplete"
        for n, histogram in histograms.items():
            expected = {i: u[i] * k ** (2 * (n - i)) for i in range(1, n)}
            expected[0] = k ** (2 * n) - sum(expected.values())
            if histogram != expected:
                return f"lso histogram at n={n} differs from u_i * k^(2(n-i))"
        return None


# analyze ----------------------------------------------------------------


def z_function(s: str) -> list[int]:
    """z[i] = length of the longest common prefix of s and s[i:]."""
    n = len(s)
    z = [0] * n
    left = right = 0
    for i in range(1, n):
        length = min(right - i, z[i - left]) if i < right else 0
        while i + length < n and s[length] == s[i + length]:
            length += 1
        z[i] = length
        if i + length > right:
            left, right = i, i + length
    return z


def right_borders(u: str, v: str) -> list[int]:
    """Lengths l, 1 <= l < min(|u|, |v|), with u's l-suffix equal to v's l-prefix."""
    z = z_function(v + "\0" + u)
    end = len(v) + 1 + len(u)
    return [l for l in range(1, min(len(u), len(v))) if z[end - l] == l]


def _analyze_fields(fmt: str, out: str) -> dict:
    if fmt == "json":
        doc = json.loads(out)
        doc["so_uv"] = doc["so_uv"] or ""
        doc["so_vu"] = doc["so_vu"] or ""
        return doc
    if fmt == "csv":
        header, row = list(csv.reader(io.StringIO(out)))
        doc = dict(zip(header, row))
        for key in ("right_border_lengths", "left_border_lengths"):
            doc[key] = [int(x) for x in doc[key].split()]
        for key in ("lso_uv", "lso_vu"):
            doc[key] = int(doc[key])
        return doc
    lines = out.splitlines()

    def after(prefix: str, line: str) -> str:
        if not line.startswith(prefix):
            raise ValueError(f"expected {prefix!r}")
        return line[len(prefix):]

    def lengths(text: str) -> list[int]:
        return [] if text == "none" else [int(x) for x in text.split()]

    doc = {
        "u": after("u: ", lines[0]),
        "v": after("v: ", lines[1]),
        "pair_class": after("class: ", lines[2]),
        "right_border_lengths": lengths(after("right-border lengths: ", lines[3])),
        "left_border_lengths": lengths(after("left-border lengths: ", lines[4])),
    }
    for line, a, b in ((lines[5], "uv", "u,v"), (lines[6], "vu", "v,u")):
        so, lso = after(f"so({b}): ", line).split(f"  lso({b}): ")
        doc[f"so_{a}"] = "" if so == "none" else so
        doc[f"lso_{a}"] = int(lso)
    return doc


def check_analyze(job: Job, code: int, out: str) -> str | None:
    if code != 0:
        return f"exit code {code}"
    doc = _analyze_fields(job.meta["format"], out)
    u_text, v_text = job.argv[1], job.argv[2]
    if doc["u"] != u_text or doc["v"] != v_text:
        return "words are not echoed back unchanged"
    # one character per symbol, so borders can be found on plain strings
    u = "".join(chr(48 + s) for s in job.meta["u"])
    v = "".join(chr(48 + s) for s in job.meta["v"])
    right, left = right_borders(u, v), right_borders(v, u)
    if doc["right_border_lengths"] != right or doc["left_border_lengths"] != left:
        return "border lengths differ from the Z-function"
    sep = "," if job.meta["alphabet"] != "letters" and ALPHABETS[job.meta["alphabet"]] > 10 else ""
    for key, lengths, source in (("uv", right, job.argv[2]), ("vu", left, job.argv[1])):
        lso = lengths[0] if lengths else 0
        so = sep.join(source.split(sep)[:lso]) if sep else source[:lso]
        if doc[f"lso_{key}"] != lso or doc[f"so_{key}"] != so:
            return f"so({key}) or lso({key}) differs"
    expected_class = {
        (True, True): "mutually-bordered",
        (True, False): "right-bordered",
        (False, True): "left-bordered",
        (False, False): "mutually-unbordered",
    }[(bool(right), bool(left))]
    if doc["pair_class"] != expected_class:
        return "pair class differs"
    return None
