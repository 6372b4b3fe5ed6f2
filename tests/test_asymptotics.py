"""Certified interval brackets for the limiting constants.

Every bracket is exact rational arithmetic, so the checks compare
Fractions rather than floats; the frozen three-place decimals come from
the finished, certified reports themselves.
"""

import gc
import sys
from fractions import Fraction
from math import gcd

import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from overlap_lab import asymptotics, cli
from overlap_lab import (
    CountCache,
    InvalidInputError,
    QUANTITIES,
    RatInterval,
    expected_lso_finite,
    expected_lso_limit,
    format_decimal,
    limit_M,
    limit_R,
    limit_U,
    limit_report,
    mutually_bordered_count,
    unbordered_count,
    unbordered_density_limit,
)

# frozen three-place limits: k -> (M, R, U)
LIMIT_TABLE = {
    2: ("0.536", "0.196", "0.072"),
    3: ("0.196", "0.247", "0.310"),
    4: ("0.098", "0.215", "0.473"),
    5: ("0.058", "0.182", "0.578"),
    10: ("0.012", "0.098", "0.792"),
    100: ("0.000", "0.010", "0.980"),
}

# frozen three-place limits of the expected shortest-overlap length
EXPECTED_LSO_TABLE = {
    2: "1.156",
    3: "0.605",
    4: "0.395",
    5: "0.290",
    10: "0.121",
    100: "0.010",
}


def as_fraction(decimal: str) -> Fraction:
    return Fraction(decimal)


@pytest.mark.parametrize("k", sorted(LIMIT_TABLE))
def test_limit_table(k):
    cache = CountCache(k)
    m_want, r_want, u_want = (as_fraction(s) for s in LIMIT_TABLE[k])
    tolerance = Fraction(1, 1000)
    for fn, want in ((limit_M, m_want), (limit_R, r_want), (limit_U, u_want)):
        interval = fn(k, 60, cache=cache)
        assert abs(interval.midpoint - want) <= tolerance
        assert interval.width < tolerance


@pytest.mark.parametrize("k", sorted(EXPECTED_LSO_TABLE))
def test_expected_lso_table(k):
    interval = expected_lso_limit(k, 60)
    want = as_fraction(EXPECTED_LSO_TABLE[k])
    assert abs(interval.midpoint - want) <= Fraction(1, 1000)


def test_limits_partition_probability():
    # classes partition all pairs, so M + 2R + U must bracket 1
    for k in (2, 3, 5, 10):
        cache = CountCache(k)
        m = limit_M(k, 50, cache=cache)
        r = limit_R(k, 50, cache=cache)
        u = limit_U(k, 50, cache=cache)
        lo = m.lo + 2 * r.lo + u.lo
        hi = m.hi + 2 * r.hi + u.hi
        assert lo <= 1 <= hi


def test_brackets_nest_as_terms_grow():
    for k in (2, 3, 7):
        for fn in (limit_M, limit_R, limit_U, expected_lso_limit, unbordered_density_limit):
            coarse = fn(k, 10)
            fine = fn(k, 25)
            finest = fn(k, 45)
            assert coarse.lo <= fine.lo <= finest.lo
            assert finest.hi <= fine.hi <= coarse.hi
            assert finest.lo <= finest.hi


def test_finite_counts_approach_the_limit():
    # normalized mutually bordered counts drift into the bracket
    interval = limit_M(2, 60)
    defects = []
    for n in range(8, 16):
        ratio = Fraction(mutually_bordered_count(2, n), 2 ** (2 * n))
        defect = max(interval.lo - ratio, ratio - interval.hi, Fraction(0))
        defects.append(defect)
    assert defects[-1] < defects[0]
    assert defects[-1] < Fraction(1, 1000)


def test_expected_lso_finite_approaches_limit():
    interval = expected_lso_limit(2, 60)
    values = [expected_lso_finite(2, n) for n in (4, 8, 12, 16)]
    gaps = [max(interval.lo - v, v - interval.hi, Fraction(0)) for v in values]
    assert gaps[-1] <= gaps[0]
    assert abs(values[-1] - Fraction("1.156")) < Fraction(1, 50)


def test_unbordered_density_examples():
    # u_n / k^n, which decreases toward the limit 1 - T
    assert Fraction(unbordered_count(2, 1), 2) == 1
    assert Fraction(unbordered_count(2, 2), 2**2) == Fraction(1, 2)
    density = Fraction(unbordered_count(2, 40), 2**40)
    assert abs(density - Fraction("0.267786")) < Fraction(1, 10**4)
    bracket = unbordered_density_limit(2, 60)
    assert bracket.contains(density) or bracket.width < Fraction(1, 10**6)


def test_unbordered_density_decreases():
    previous = Fraction(unbordered_count(3, 1), 3)
    for n in range(2, 31):
        current = Fraction(unbordered_count(3, n), 3**n)
        assert 0 < current <= previous
        previous = current


def test_interval_basics():
    box = RatInterval(Fraction(1, 4), Fraction(1, 2))
    assert box.width == Fraction(1, 4)
    assert box.midpoint == Fraction(3, 8)
    assert box.contains(Fraction(1, 3))
    assert not box.contains(Fraction(3, 4))
    with pytest.raises(InvalidInputError):
        RatInterval(Fraction(1, 2), Fraction(1, 4))


# rational ends: unrelated denominators, integers, and the same family of
# large denominators that the brackets have, a / (d * 3^x) for small d
ENDS = st.one_of(
    st.fractions(),
    st.integers(-(10**6), 10**6),
    st.builds(
        lambda a, d, x: Fraction(a, d * 3**x),
        st.integers(-(3**60), 3**60),
        st.sampled_from([1, 2, 4]),
        st.integers(0, 2000),
    ),
)


@given(ENDS, ENDS, st.booleans())
@example(Fraction(-5, 7), Fraction(-5, 7), False)
@example(Fraction(2, 3**1000), Fraction(1, 2 * 3**999), False)
@example(Fraction(1, 2 * 3**999), Fraction(2, 3**1000), False)
def test_interval_order_check_matches_fraction_comparison(lo, hi, equal):
    if equal:
        hi = lo
    if lo > hi:
        with pytest.raises(InvalidInputError) as info:
            RatInterval(lo, hi)
        assert str(info.value) == f"empty interval: {lo} > {hi}"
    else:
        box = RatInterval(lo, hi)
        assert (box.lo, box.hi) == (lo, hi)


def test_limit_report_certifies():
    report = limit_report("M_limit", 2, 60, 3)
    assert report.certified
    assert report.decimal == "0.536"
    assert report.interval.width < Fraction(1, 2000)
    assert report.quantity == "M_limit"
    assert (report.k, report.terms, report.precision) == (2, 60, 3)


def test_limit_report_refuses_thin_series():
    report = limit_report("M_limit", 2, 3, 6)
    assert not report.certified
    assert report.decimal is None


def test_limit_report_all_quantities():
    assert QUANTITIES == (
        "M_limit",
        "R_limit",
        "U_limit",
        "expected_lso",
        "unbordered_density",
    )
    cache = CountCache(2)
    decimals = {
        q: limit_report(q, 2, 40, 3, cache=cache).decimal for q in QUANTITIES
    }
    assert decimals == {
        "M_limit": "0.536",
        "R_limit": "0.196",
        "U_limit": "0.072",
        "expected_lso": "1.156",
        "unbordered_density": "0.268",
    }


def test_limit_report_rejects_unknown_quantity():
    with pytest.raises(InvalidInputError):
        limit_report("bogus", 2, 40, 3)


def test_single_letter_alphabet_rejected():
    # the tail bound divides by k - 1, and every length-1 word over one
    # letter is bordered anyway
    with pytest.raises(InvalidInputError):
        limit_M(1, 10)
    with pytest.raises(InvalidInputError):
        expected_lso_limit(1, 10)
    with pytest.raises(InvalidInputError):
        limit_M(2, 0)


def test_format_decimal():
    assert format_decimal(Fraction(1, 2), 3) == "0.500"
    assert format_decimal(Fraction(2, 3), 4) == "0.6667"
    assert format_decimal(Fraction(-1, 3), 2) == "-0.33"
    assert format_decimal(Fraction(5), 0) == "5"
    assert format_decimal(Fraction(1, 1000), 3) == "0.001"
    # ties round to even
    assert format_decimal(Fraction(1, 8), 2) == "0.12"
    assert format_decimal(Fraction(3, 8), 2) == "0.38"
    assert format_decimal(Fraction(-1, 8), 2) == "-0.12"
    assert format_decimal(Fraction(-3, 8), 2) == "-0.38"
    halves = [format_decimal(Fraction(n, 2), 0) for n in (-5, -3, -1, 1, 3, 5)]
    assert halves == ["-2", "-2", "0", "0", "2", "2"]
    assert format_decimal(Fraction(-7, 3), 0) == "-2"
    assert format_decimal(Fraction(-1, 3), 0) == "0"


@pytest.mark.parametrize(
    "lo,hi,den,places,want",
    [
        # over den = 14 * 10^places, half an ulp is 7 units: a bracket 7
        # units wide is refused, one 6 units wide is certified
        (42, 49, 14, 0, None),
        (42, 48, 14, 0, "3"),
        (-42, -35, 14, 0, None),
        (-42, -36, 14, 0, "-3"),
        (42 * 10**3, 42 * 10**3 + 7, 14 * 10**3, 3, None),
        (42 * 10**3, 42 * 10**3 + 6, 14 * 10**3, 3, "3.000"),
        (-42 * 10**8, -42 * 10**8 + 7, 14 * 10**8, 8, None),
        (-42 * 10**8, -42 * 10**8 + 6, 14 * 10**8, 8, "-3.00000000"),
        (124, 126, 1000, 2, "0.12"),  # midpoint 0.125 rounds down to even
        (374, 376, 1000, 2, "0.38"),  # midpoint 0.375 rounds up to even
        (-126, -124, 1000, 2, "-0.12"),
        (-376, -374, 1000, 2, "-0.38"),
        (1, 1, 2, 0, "0"),
        (3, 3, 2, 0, "2"),
        (-1, -1, 2, 0, "0"),
        (-3, -3, 2, 0, "-2"),
        (-5, -4, 2, 0, None),  # width 1/2 at no places
        (-4, -4, 2, 0, "-2"),
        (1, 2, 10**9, 8, "0.00000000"),
    ],
)
def test_certified_decimal(lo, hi, den, places, want):
    assert asymptotics._certified_decimal(lo, hi, den, places) == want


@pytest.mark.skipif(
    not hasattr(sys, "set_int_max_str_digits"), reason="no int-to-str digit cap"
)
def test_decimals_past_the_int_digit_cap():
    old = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(4300)
    try:
        report = limit_report("M_limit", 3, 10488, 5000)
        third = format_decimal(Fraction(1, 3), 5000)
        half = format_decimal(Fraction(10**5000 + 1, 2), 0)
        # library code leaves the cap where it was
        assert sys.get_int_max_str_digits() == 4300
        sys.set_int_max_str_digits(0)
        want = reference_decimal(report.interval, 5000)
    finally:
        sys.set_int_max_str_digits(old)
    assert report.decimal == want
    assert want.startswith("0.196266862375327066") and len(want) == 5002
    assert third == "0." + "3" * 5000
    assert half == "5" + "0" * 4999


# The series code these brackets used to run, kept as the reference they
# must match exactly: a second summation of T and E over the common
# denominator k^(2*terms), squares of intervals of either sign, and the
# vertex value 1/4 of t - t^2 when the T bracket straddles 1/2.
def reference_partial_sum(k, terms, cache, *, weighted):
    numerator = 0
    for i in range(1, terms + 1):
        u_i = cache.unbordered(i)
        numerator = numerator * k * k + (i * u_i if weighted else u_i)
    return Fraction(numerator, k ** (2 * terms))


def reference_square_interval(lo, hi):
    if lo >= 0:
        return lo * lo, hi * hi
    if hi <= 0:
        return hi * hi, lo * lo
    return Fraction(0), max(lo * lo, hi * hi)


def reference_brackets(k, terms, cache):
    a = reference_partial_sum(k, terms, cache, weighted=False)
    b = a + Fraction(1, (k - 1) * k**terms)
    fa, fb = a - a * a, b - b * b
    r_hi = Fraction(1, 4) if a < Fraction(1, 2) < b else max(fa, fb)
    e = reference_partial_sum(k, terms, cache, weighted=True)
    e_tail = Fraction(k * (terms + 1) - terms, (k - 1) ** 2 * k**terms)
    return {
        limit_M: reference_square_interval(a, b),
        limit_R: (min(fa, fb), r_hi),
        limit_U: reference_square_interval(1 - b, 1 - a),
        expected_lso_limit: (e, e + e_tail),
        unbordered_density_limit: (1 - b, 1 - a),
    }


@pytest.mark.parametrize("k", [2, 3, 4, 5, 10, 100])
def test_brackets_match_series_reference(k):
    cache = CountCache(k)
    for terms in (*range(1, 61), 200):
        for fn, want in reference_brackets(k, terms, cache).items():
            got = fn(k, terms, cache=cache)
            assert (got.lo, got.hi) == want, (fn.__name__, terms)


# The Fraction certificate and rounding that limit_report used to run, kept
# as the reference it must match: the bracket width against half an ulp,
# and the midpoint rounded by round().
def reference_decimal(interval, places):
    if not interval.width < Fraction(1, 2 * 10**places):
        return None
    scaled = round(interval.midpoint * 10**places)
    sign = "-" if scaled < 0 else ""
    whole, frac = divmod(abs(scaled), 10**places)
    return f"{sign}{whole}" if places == 0 else f"{sign}{whole}.{frac:0{places}d}"


@pytest.mark.parametrize("k", [2, 3, 4, 5, 10, 100])
def test_limit_report_matches_fraction_reference(k):
    cache = CountCache(k)
    for terms in (*range(1, 61), 200):
        for quantity in QUANTITIES:
            for places in (0, 1, 3, 8, 20):
                report = limit_report(quantity, k, terms, places, cache=cache)
                want = reference_decimal(report.interval, places)
                assert (report.certified, report.decimal) == (want is not None, want), (
                    quantity,
                    terms,
                    places,
                )


@pytest.mark.parametrize("k", range(2, 13))
def test_t_bracket_stays_on_one_side_of_one_half(k):
    # the reason the maps need no sign cases and no vertex: the T bracket
    # is within [1/2, 1] for k = 2 and within [0, 1/2] for k >= 3
    low, high = (Fraction(1, 2), Fraction(1)) if k == 2 else (Fraction(0), Fraction(1, 2))
    cache = CountCache(k)
    for terms in range(1, 61):
        one_minus_t = unbordered_density_limit(k, terms, cache=cache)
        a, b = 1 - one_minus_t.hi, 1 - one_minus_t.lo
        assert low <= a <= b <= high, terms


def test_limits_command_builds_the_t_bracket_once(monkeypatch, capsys):
    calls: list[int] = []
    power_sums = asymptotics._power_sums

    def counted(k, m, e):
        calls.append(m)
        return power_sums(k, m, e)

    monkeypatch.setattr(asymptotics, "_power_sums", counted)
    assert cli.main(["limits", "--k", "3", "--terms", "40", "--precision", "8"]) == 0
    assert calls == [40]
    # the memo entry dies with the command's cache
    gc.collect()
    assert len(asymptotics._BRACKETS) == 0
    # with no cache, each bracket is built afresh
    calls.clear()
    assert limit_M(3, 40) == limit_M(3, 40)
    assert calls == [40, 40]
    capsys.readouterr()


@pytest.mark.parametrize("fmt, built", [("plain", 0), ("csv", 5), ("json", 5)])
def test_plain_limits_builds_no_interval(monkeypatch, capsys, fmt, built):
    # plain output prints only the certified decimals, which limit_report
    # takes from integer ends; csv and json print each bracket once
    intervals: list[RatInterval] = []

    class Counted(RatInterval):
        def __post_init__(self):
            intervals.append(self)
            super().__post_init__()

    monkeypatch.setattr(asymptotics, "RatInterval", Counted)
    argv = ["limits", "--k", "3", "--terms", "40", "--precision", "8", "--format", fmt]
    assert cli.main(argv) == 0
    assert len(intervals) == built
    capsys.readouterr()


LIMIT_FUNCS = {
    "M_limit": limit_M,
    "R_limit": limit_R,
    "U_limit": limit_U,
    "expected_lso": expected_lso_limit,
    "unbordered_density": unbordered_density_limit,
}


@pytest.mark.parametrize("k", range(2, 13))
def test_report_interval_is_the_limit_bracket_in_lowest_terms(k):
    assert tuple(LIMIT_FUNCS) == QUANTITIES
    cache = CountCache(k)
    for terms in range(1, 61):
        for quantity, func in LIMIT_FUNCS.items():
            report = limit_report(quantity, k, terms, 3, cache=cache)
            want = func(k, terms)
            assert report.interval == want, (quantity, terms)
            # the certificate's integer ends are the same bracket
            lo, hi, den = asymptotics._brackets(k, terms, cache).ends(quantity)
            assert (Fraction(lo, den), Fraction(hi, den)) == (want.lo, want.hi)
            for end in (report.interval.lo, report.interval.hi):
                assert gcd(end.numerator, end.denominator) == 1


def test_swapped_integer_ends_raise_the_interval_message(monkeypatch):
    ends = asymptotics._Brackets.ends

    def swapped(self, quantity):
        lo, hi, den = ends(self, quantity)
        return hi, lo, den

    monkeypatch.setattr(asymptotics._Brackets, "ends", swapped)
    for quantity in QUANTITIES:
        lo, hi, den = ends(asymptotics._Brackets(3, 5), quantity)
        with pytest.raises(InvalidInputError) as want:
            RatInterval(Fraction(hi, den), Fraction(lo, den))
        with pytest.raises(InvalidInputError) as got:
            limit_report(quantity, 3, 5, 2)
        assert str(got.value) == str(want.value)
        assert str(got.value).startswith("empty interval: ")


# the short division against Python's divmod and the Fraction rounding of
# reference_decimal: numerators of either sign, up to 2^3100, over
# denominators from 1 up to 2^3000, so that the divisor can be far longer
# than the quotient and the numerator shorter than the divisor
NUMERATORS = st.integers(-(2**3100), 2**3100)
DENOMINATORS = st.integers(1, 2**3000)


@given(NUMERATORS, st.integers(0, 10**6), DENOMINATORS, st.integers(0, 30))
@example(3 * 5 * 10**40, 0, 2 * 10**41, 0)  # 0.75 at no places
@example(-(3**2000), 1, 3**2001 * 2**900, 12)
def test_certified_decimal_matches_fraction_rounding(lo, width, den, places):
    hi = lo + width
    num = (lo + hi) * 10**places
    assert asymptotics._divmod(num, 2 * den) == divmod(num, 2 * den)
    want = reference_decimal(RatInterval(Fraction(lo, den), Fraction(hi, den)), places)
    assert asymptotics._certified_decimal(lo, hi, den, places) == want


@given(st.integers(-(10**12), 10**12), st.integers(0, 2**2000), st.integers(0, 20))
@example(0, 1, 0)
@example(-1, 2**1999, 7)
def test_format_decimal_rounds_exact_ties_to_even(odd, scale, places):
    # (2*odd + 1) / (2 * 10^places) is exactly half an ulp past a
    # representable decimal; the cofactor scale + 1 keeps it unreduced,
    # so the denominator can be far longer than the quotient
    cofactor = scale + 1
    num, den = (2 * odd + 1) * cofactor, 2 * 10**places * cofactor
    value = Fraction(num, den)
    want = reference_decimal(RatInterval(value, value), places)
    assert format_decimal(value, places) == want
    assert asymptotics._certified_decimal(num, num, den, places) == want
    assert format_decimal(-value, places) == reference_decimal(RatInterval(-value, -value), places)


@pytest.mark.parametrize("q", [2, 3**50, 7**400], ids=["2", "3^50", "7^400"])
@pytest.mark.parametrize("shift", [1, 64, 4000])
def test_short_division_fixes_the_estimate_either_way(q, shift):
    # the shifted operands give an exact quotient (or one just below an
    # integer), while the dropped low bits of a divisor 2^shift - 1 past
    # them move the true quotient one step: down for a positive
    # numerator, up for a negative one
    d = 2 ** (q.bit_length() + 65) + 1
    den = (d << shift) + (1 << shift) - 1
    for num in (q * d << shift, (-q * d - 1) << shift):
        assert asymptotics._divmod(num, den) == divmod(num, den)
