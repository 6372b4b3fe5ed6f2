"""Certified limiting constants for pair-overlap densities.

Everything is driven by the series T = sum_{i >= 1} u_i * k^(-2i), where
u_i counts length-i unbordered words.  Since u_i <= k^i, the tail beyond
the first `terms` entries is at most sum_{i > terms} k^(-i), which equals
k^(-terms) / (k - 1), so T is bracketed by exact rationals.  That is also
why k = 1 is rejected here: the tail bound divides by k - 1, and the
limits below are only meaningful for alphabets with at least two symbols.

Limiting densities, as fractions of all k^(2n) ordered pairs of length-n
words as n grows:

* mutually bordered pairs:   T^2
* right-bordered pairs:      T - T^2, derived by dividing the count of
  pairs with a right-border (sum_i u_i * k^(2n-2i)) by k^(2n) and
  subtracting the mutual term
* mutually unbordered pairs: (1 - T)^2, derived from the four-way
  partition M + 2R + U = 1 in the limit
* unbordered single words:   1 - T, derived by dividing the bordered-word
  identity k^n - u_n = sum_i u_i * k^(n-2i) by k^n

The expected shortest overlap of a uniform random ordered pair tends to
E = sum_{i >= 1} i * u_i * k^(-2i), with tail at most
k^(-terms) * (k*(terms+1) - terms) / (k - 1)^2 by the same u_i <= k^i
bound applied to the weighted geometric series.

The lower ends of the T and E brackets are finite-length counts, so this
module only adds tail bounds and applies maps.  Both come from one
partial sum of u at z = k^(-2), counting._power_sums(k, terms, 2), which
gives N = sum_(i<=terms) u_i*k^(2(terms-i)) and W, the same sum weighted
by i.  By the bordered-word identity, T's first `terms` terms are
(N - k^(2*terms)) / k^(2*terms), the bordered share at length 2*terms;
E's are W / k^(2*terms), the mean lso at length terms + 1.

Bracket invariant: the T bracket [a, b] lies in [1/2, 1] for k = 2 and in
[0, 1/2] for k >= 3.  For k = 2, a >= u_1/4 = 1/2 and b = 1 - u_(2t)/4^t
+ 2^(-t) <= 1, as u_n/2^n is 1/2 at n = 2 and then above 1 - T > 1/4.  For
k >= 3, b <= sum_i k^i * k^(-2i) = 1/(k - 1).  So a, b and 1 - b are not
negative, and t - t^2 is monotone on the bracket.

Integer ends over known denominators.  With D = (k - 1)*k^(2*terms),
A0 = (k - 1)*(N - k^(2*terms)) and A1 = A0 + k^terms, the T bracket is
[A0/D, A1/D], the tail bound 1/((k - 1)*k^terms) being k^terms / D.
Every quantity's ends are integers over a common denominator known in
advance (D is even, so 1 - T stays over D and t - t^2 over D^2):
    M      A0^2 and A1^2 over D^2
    R      A*(D - A) at A = A0 and A1 over D^2, swapped at k = 2
    U      (D - A1)^2 and (D - A0)^2 over D^2
    1 - T  D - A1 and D - A0 over D
    E      W*(k - 1)^2, and that plus (k*(terms + 1) - terms)*k^terms,
           over (k - 1)*D
One _Brackets object holds these for a (k, terms) pair.  A command that
shares one cache builds it once, in a memo whose weak keys drop it with
the cache.  limit_report checks lo <= hi and certifies on these
integers, and builds no Fraction.

Ends in lowest terms, and only when read.  A Fraction is always in
lowest terms, and reducing an end takes a gcd of its size: about 26,000
bits for T and E at k = 3 and 4000 places, 53,000 for M, R and U.  So
LimitReport.interval is built on first read, and so are the reduced T
ends, once per _Brackets for all four quantities of T.  The maps from
them use only operations that keep lowest terms without a full-size gcd:
a power of a reduced fraction is reduced, and 1 - x, x - 1/2 and
1/4 - x take gcds with 1, 2 or 4 only.  That is why R is evaluated as
t - t^2 = 1/4 - (t - 1/2)^2.  E's two ends are reduced once each.  The
five limit_* functions return the same intervals.  RatInterval checks
lo <= hi exactly over the lcm of the two denominators, so ends whose
denominators share most of their size, as all built here do, cost two
products of a full-size number by a small cofactor each.

Certificate and rounding on integers.  A decimal is printed only when
the bracket [lo/den, hi/den] is narrower than half an ulp at the
requested precision, 2 * 10^p * (hi - lo) < den, so every printed digit
is certified; otherwise the report carries no decimal and flags that
more terms are needed.  The certified digits are (lo + hi) / (2*den)
rounded half to even.  That quotient has about p digits, while den can
be four times as long, and CPython's long division is quadratic in the
divisor's length.  So the quotient is taken from the leading bits: both
operands are shifted down until the divisor keeps the quotient's length
plus 64 guard bits, which leaves the quotient within one of the true
one, and one product and the remainder fix it exactly, ties included.
format_decimal runs the same rounding on a single value.  Both build the
digits in pieces shorter than any int-to-str digit cap, so neither needs
the cap lifted.
"""

from __future__ import annotations

import weakref
from dataclasses import dataclass, field
from fractions import Fraction
from functools import cached_property
from math import gcd

from .counting import CountCache, _power_sums, _resolve_cache
from .errors import InvalidInputError
from .wordcore import Alphabet

__all__ = [
    "QUANTITIES",
    "LimitReport",
    "RatInterval",
    "expected_lso_limit",
    "format_decimal",
    "limit_M",
    "limit_R",
    "limit_U",
    "limit_report",
    "unbordered_density_limit",
]

QUANTITIES = ("M_limit", "R_limit", "U_limit", "expected_lso", "unbordered_density")


@dataclass(frozen=True)
class RatInterval:
    """Exact rational bracket [lo, hi] known to contain a limit value."""

    lo: Fraction
    hi: Fraction

    def __post_init__(self) -> None:
        # lo > hi over the lcm of the denominators (module docstring)
        lo, hi = self.lo, self.hi
        g = gcd(lo.denominator, hi.denominator)
        if lo.numerator * (hi.denominator // g) > hi.numerator * (lo.denominator // g):
            raise InvalidInputError(f"empty interval: {self.lo} > {self.hi}")

    @property
    def width(self) -> Fraction:
        return self.hi - self.lo

    @property
    def midpoint(self) -> Fraction:
        return (self.lo + self.hi) / 2

    def contains(self, value: Fraction | int) -> bool:
        return self.lo <= value <= self.hi


def _validate(k: int, terms: int) -> int:
    """k as the plain int Alphabet stores, so a fixed-width type cannot wrap."""
    if k < 2:
        raise InvalidInputError(f"limits require an alphabet of size >= 2, got k={k}")
    k = Alphabet(k).k
    if terms < 1:
        raise InvalidInputError(f"need at least one series term, got {terms}")
    return k


class _Brackets:
    """The T and E brackets at one (k, terms) as integer ends (module docstring)."""

    def __init__(self, k: int, terms: int):
        total, weighted = _power_sums(k, terms, 2)
        square = k ** (2 * terms)
        self.k = k
        self.square = square
        self.den = (k - 1) * square
        self.a0 = (k - 1) * (total - square)
        self.a1 = self.a0 + k**terms
        self.weighted = weighted
        self.tail = (k * (terms + 1) - terms) * k**terms

    def ends(self, quantity: str) -> tuple[int, int, int]:
        """lo, hi and their common denominator for one quantity."""
        d, a0, a1 = self.den, self.a0, self.a1
        if quantity == "M_limit":
            return a0 * a0, a1 * a1, d * d
        if quantity == "R_limit":
            r0, r1 = a0 * (d - a0), a1 * (d - a1)
            return (r1, r0, d * d) if self.k == 2 else (r0, r1, d * d)
        if quantity == "U_limit":
            return (d - a1) ** 2, (d - a0) ** 2, d * d
        if quantity == "expected_lso":
            lo = self.weighted * (self.k - 1) ** 2
            return lo, lo + self.tail, (self.k - 1) * d
        return d - a1, d - a0, d

    @cached_property
    def t(self) -> tuple[Fraction, Fraction]:
        """The two T ends, each reduced once."""
        return Fraction(self.a0, self.den), Fraction(self.a1, self.den)

    def interval(self, quantity: str) -> RatInterval:
        """One quantity's bracket in lowest terms, by gcd-free maps of the T ends."""
        if quantity == "expected_lso":
            # hi is lo's numerator rescaled to (k - 1)*D, plus the tail
            lo, den = Fraction(self.weighted, self.square), (self.k - 1) * self.den
            hi = lo.numerator * (den // lo.denominator) + self.tail
            return RatInterval(lo, Fraction(hi, den))
        a, b = self.t
        if quantity == "M_limit":
            return RatInterval(a**2, b**2)
        if quantity == "R_limit":
            fa, fb = (Fraction(1, 4) - (t - Fraction(1, 2)) ** 2 for t in (a, b))
            return RatInterval(fb, fa) if self.k == 2 else RatInterval(fa, fb)
        if quantity == "U_limit":
            return RatInterval((1 - b) ** 2, (1 - a) ** 2)
        return RatInterval(1 - b, 1 - a)


# brackets by cache and terms.  All five quantities read the same sums, so
# a command that shares one cache builds them once; weak keys drop the
# entries together with the cache.
_BRACKETS: weakref.WeakKeyDictionary = weakref.WeakKeyDictionary()


def _brackets(k: int, terms: int, cache: CountCache | None) -> _Brackets:
    k = _validate(k, terms)
    memo = {} if cache is None else _BRACKETS.setdefault(_resolve_cache(k, cache), {})
    if terms not in memo:
        memo[terms] = _Brackets(k, terms)
    return memo[terms]


@dataclass(frozen=True)
class LimitReport:
    """One limiting quantity with its certified decimal text.

    decimal is None exactly when the bracket at this `terms` count is too
    wide to certify `precision` digits after the point.  The bracket
    itself, interval, is built on first read (module docstring).
    """

    quantity: str
    k: int
    terms: int
    precision: int
    decimal: str | None
    _brackets: _Brackets = field(repr=False, compare=False)

    @property
    def certified(self) -> bool:
        return self.decimal is not None

    @cached_property
    def interval(self) -> RatInterval:
        return self._brackets.interval(self.quantity)


def limit_M(k: int, terms: int, *, cache: CountCache | None = None) -> RatInterval:
    """Bracket for the limiting density of mutually bordered pairs, T^2."""
    return _brackets(k, terms, cache).interval("M_limit")


def limit_R(k: int, terms: int, *, cache: CountCache | None = None) -> RatInterval:
    """Bracket for the limiting density of right-bordered pairs, T - T^2.

    By the bracket invariant, t - t^2 is monotone on the T bracket, so the
    images of its ends bound the image; the same holds for M and U.  It
    falls on [1/2, 1] (k = 2) and rises on [0, 1/2] (k >= 3).
    """
    return _brackets(k, terms, cache).interval("R_limit")


def limit_U(k: int, terms: int, *, cache: CountCache | None = None) -> RatInterval:
    """Bracket for the limiting density of mutually unbordered pairs, (1-T)^2."""
    return _brackets(k, terms, cache).interval("U_limit")


def expected_lso_limit(k: int, terms: int, *, cache: CountCache | None = None) -> RatInterval:
    """Bracket for the limiting expected shortest-overlap length."""
    return _brackets(k, terms, cache).interval("expected_lso")


def unbordered_density_limit(k: int, terms: int, *, cache: CountCache | None = None) -> RatInterval:
    """Bracket for the limiting unbordered density, 1 - T."""
    return _brackets(k, terms, cache).interval("unbordered_density")


def _digits(n: int, width: int = 1) -> str:
    """Decimal text of n >= 0, zero-padded to `width`, built from pieces."""
    # each str() call gets at most 600 digits, under 640, the smallest
    # int-to-str digit cap that Python 3.10.7 and later accept
    if width <= 600 and n.bit_length() <= 1800:
        return f"{n:0{width}d}"
    low = max(width, n.bit_length() * 3 // 10) // 2
    high, rest = divmod(n, 10**low)
    return _digits(high, max(width - low, 1)) + _digits(rest, low)


def _divmod(num: int, den: int) -> tuple[int, int]:
    """divmod(num, den) for den > 0, dividing only the leading bits.

    The quotient has at most num.bit_length() - den.bit_length() + 1 bits.
    Shifted down until the divisor keeps that many plus 64, the operands
    give a quotient within one of the true one, which the remainder fixes.
    """
    length = den.bit_length()
    shift = length - max(num.bit_length() - length + 1, 0) - 64
    if shift <= 0:
        return divmod(num, den)
    quotient = (num >> shift) // (den >> shift)
    rest = num - quotient * den
    while rest < 0:
        quotient, rest = quotient - 1, rest + den
    while rest >= den:
        quotient, rest = quotient + 1, rest - den
    return quotient, rest


def _certified_decimal(lo: int, hi: int, den: int, places: int) -> str | None:
    """(lo + hi) / (2*den) to `places` decimals, rounded half to even.

    None unless the bracket [lo/den, hi/den] (den > 0) is narrower than
    half a unit in the last place, so that every digit is certified.
    """
    unit = 10**places
    if 2 * unit * (hi - lo) >= den:
        return None
    scaled, rest = _divmod((lo + hi) * unit, 2 * den)
    if rest > den or (rest == den and scaled % 2):
        scaled += 1
    sign = "-" if scaled < 0 else ""
    whole, frac = divmod(abs(scaled), unit)
    return f"{sign}{_digits(whole)}" + (f".{_digits(frac, places)}" if places else "")


def format_decimal(value: Fraction, places: int) -> str:
    """Exact fixed-point rendering with round-half-to-even."""
    return _certified_decimal(value.numerator, value.numerator, value.denominator, places)


def limit_report(
    quantity: str,
    k: int,
    terms: int,
    precision: int,
    *,
    cache: CountCache | None = None,
) -> LimitReport:
    """Bracket one quantity and render its decimal if certifiable."""
    if quantity not in QUANTITIES:
        raise InvalidInputError(
            f"unknown quantity {quantity!r}; choose from {', '.join(QUANTITIES)}"
        )
    if precision < 0:
        raise InvalidInputError(f"precision must be non-negative, got {precision}")
    brackets = _brackets(k, terms, cache)
    lo, hi, den = brackets.ends(quantity)
    if lo > hi:
        raise InvalidInputError(f"empty interval: {Fraction(lo, den)} > {Fraction(hi, den)}")
    decimal = _certified_decimal(lo, hi, den, precision)
    return LimitReport(quantity, brackets.k, terms, precision, decimal, brackets)
