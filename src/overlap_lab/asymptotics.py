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
module only adds tail bounds and applies maps.  By the bordered-word
identity, T's first `terms` terms are the bordered share
bordered_count(k, 2*terms) / k^(2*terms); E's are the mean lso at length
terms + 1, expected_lso_finite(k, terms + 1).

Bracket invariant: the T bracket [a, b] lies in [1/2, 1] for k = 2 and in
[0, 1/2] for k >= 3.  For k = 2, a >= u_1/4 = 1/2 and b = 1 - u_(2t)/4^t
+ 2^(-t) <= 1, as u_n/2^n is 1/2 at n = 2 and then above 1 - T > 1/4.  For
k >= 3, b <= sum_i k^i * k^(-2i) = 1/(k - 1).  So a, b and 1 - b are not
negative, and t - t^2 is monotone on the bracket.

Ends in lowest terms without full-size gcds.  A Fraction is always in
lowest terms, and a sum, difference or product of two Fractions reduces
its result with gcds of the operands' size: about 26,000 bits for T and
E at k = 3 and 4000 places, 53,000 for M, R and U.  So each end is
reduced once, when it is built.  With B = bordered_count(k, 2*terms) and
D = (k - 1) * k^(2*terms), the T ends are ((k - 1)*B) / D and
((k - 1)*B + k^terms) / D.  E's lower end comes reduced from counting;
its upper end is lo's numerator rescaled to (k - 1)*D plus the tail,
over (k - 1)*D.  The maps then use only operations that keep lowest
terms without a full-size gcd: a power of a reduced fraction is
reduced, and 1 - x, x - 1/2 and 1/4 - x take gcds with 1, 2 or 4 only.
That is why R is evaluated as t - t^2 = 1/4 - (t - 1/2)^2.  A command
thus makes four full-size reductions: the two T ends and the two E ends.
RatInterval checks lo <= hi exactly over the lcm of the two denominators,
so ends whose denominators share most of their size, as all built here
do, cost two products of a full-size number by a small cofactor each.

Certificate and rounding on integers.  Every bracket end of a quantity
has a denominator that divides a common denominator known in advance:
D for 1 - T, D^2 for M, R and U (D is even, so x - 1/2 stays over D
and 1/4 - x over D^2) and (k - 1)*D for E.  limit_report rescales both ends to it by exact
division, whose quotients are small, to lo/den and hi/den.  A decimal is
printed only when the bracket is narrower than half an ulp at the
requested precision, 2 * 10^p * (hi - lo) < den, so every printed digit
is certified; otherwise the report carries no decimal and flags that
more terms are needed.  The certified digits are (lo + hi) / (2*den)
rounded half to even by one divmod.  format_decimal runs the same
rounding on a single value.  Both build the digits in pieces shorter
than any int-to-str digit cap, so neither needs the cap lifted.
"""

from __future__ import annotations

import weakref
from dataclasses import dataclass
from fractions import Fraction
from math import gcd

from .counting import CountCache, bordered_count, expected_lso_finite
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


@dataclass(frozen=True)
class LimitReport:
    """One limiting quantity with its bracket and certified decimal text.

    decimal is None exactly when the bracket at this `terms` count is too
    wide to certify `precision` digits after the point.
    """

    quantity: str
    k: int
    terms: int
    precision: int
    interval: RatInterval
    decimal: str | None

    @property
    def certified(self) -> bool:
        return self.decimal is not None


def _validate(k: int, terms: int) -> int:
    """k as the plain int Alphabet stores, so a fixed-width type cannot wrap."""
    if k < 2:
        raise InvalidInputError(f"limits require an alphabet of size >= 2, got k={k}")
    k = Alphabet(k).k
    if terms < 1:
        raise InvalidInputError(f"need at least one series term, got {terms}")
    return k


# T brackets by cache and terms.  M, R, U and the unbordered density all
# need the same bracket, so a command that shares one cache builds it
# once; weak keys drop the entries together with the cache.
_T_BRACKETS: weakref.WeakKeyDictionary = weakref.WeakKeyDictionary()


def _denominator(k: int, terms: int) -> int:
    """D = (k - 1) * k^(2*terms), a common denominator of the two T ends."""
    return (k - 1) * k ** (2 * terms)


def _t_bracket(k: int, terms: int, cache: CountCache | None) -> tuple[Fraction, Fraction]:
    memo = {} if cache is None else _T_BRACKETS.setdefault(cache, {})
    if terms not in memo:
        # the first `terms` terms of T are the bordered share at length
        # 2*terms; over D, the tail bound 1/((k-1) k^terms) is k^terms / D
        lo = (k - 1) * bordered_count(k, 2 * terms, cache=cache)
        den = _denominator(k, terms)
        memo[terms] = Fraction(lo, den), Fraction(lo + k**terms, den)
    return memo[terms]


def limit_M(k: int, terms: int, *, cache: CountCache | None = None) -> RatInterval:
    """Bracket for the limiting density of mutually bordered pairs, T^2."""
    k = _validate(k, terms)
    a, b = _t_bracket(k, terms, cache)
    return RatInterval(a**2, b**2)


def limit_R(k: int, terms: int, *, cache: CountCache | None = None) -> RatInterval:
    """Bracket for the limiting density of right-bordered pairs, T - T^2.

    By the bracket invariant, t - t^2 is monotone on the T bracket, so the
    images of its ends bound the image; the same holds for M and U.  It
    falls on [1/2, 1] (k = 2) and rises on [0, 1/2] (k >= 3).
    """
    k = _validate(k, terms)
    a, b = _t_bracket(k, terms, cache)
    # t - t^2 in the form that keeps lowest terms without a full-size gcd
    fa, fb = (Fraction(1, 4) - (t - Fraction(1, 2)) ** 2 for t in (a, b))
    return RatInterval(fb, fa) if k == 2 else RatInterval(fa, fb)


def limit_U(k: int, terms: int, *, cache: CountCache | None = None) -> RatInterval:
    """Bracket for the limiting density of mutually unbordered pairs, (1-T)^2."""
    k = _validate(k, terms)
    a, b = _t_bracket(k, terms, cache)
    return RatInterval((1 - b) ** 2, (1 - a) ** 2)


def expected_lso_limit(k: int, terms: int, *, cache: CountCache | None = None) -> RatInterval:
    """Bracket for the limiting expected shortest-overlap length."""
    k = _validate(k, terms)
    # the first `terms` terms of E are the mean lso at length terms + 1; over
    # (k-1) D, the tail bound (k(terms+1) - terms) / ((k-1)^2 k^terms) has
    # numerator (k(terms+1) - terms) k^terms
    lo = expected_lso_finite(k, terms + 1, cache=cache)
    den = (k - 1) * _denominator(k, terms)
    tail = (k * (terms + 1) - terms) * k**terms
    return RatInterval(lo, Fraction(lo.numerator * (den // lo.denominator) + tail, den))


def unbordered_density_limit(k: int, terms: int, *, cache: CountCache | None = None) -> RatInterval:
    """Bracket for the limiting unbordered density, 1 - T."""
    k = _validate(k, terms)
    a, b = _t_bracket(k, terms, cache)
    return RatInterval(1 - b, 1 - a)


def _digits(n: int, width: int = 1) -> str:
    """Decimal text of n >= 0, zero-padded to `width`, built from pieces."""
    # each str() call gets at most 600 digits, under 640, the smallest
    # int-to-str digit cap that Python 3.10.7 and later accept
    if width <= 600 and n.bit_length() <= 1800:
        return f"{n:0{width}d}"
    low = max(width, n.bit_length() * 3 // 10) // 2
    high, rest = divmod(n, 10**low)
    return _digits(high, max(width - low, 1)) + _digits(rest, low)


def _certified_decimal(lo: int, hi: int, den: int, places: int) -> str | None:
    """(lo + hi) / (2*den) to `places` decimals, rounded half to even.

    None unless the bracket [lo/den, hi/den] (den > 0) is narrower than
    half a unit in the last place, so that every digit is certified.
    """
    unit = 10**places
    if 2 * unit * (hi - lo) >= den:
        return None
    scaled, rest = divmod((lo + hi) * unit, 2 * den)
    if rest > den or (rest == den and scaled % 2):
        scaled += 1
    sign = "-" if scaled < 0 else ""
    whole, frac = divmod(abs(scaled), unit)
    return f"{sign}{_digits(whole)}" + (f".{_digits(frac, places)}" if places else "")


def format_decimal(value: Fraction, places: int) -> str:
    """Exact fixed-point rendering with round-half-to-even."""
    return _certified_decimal(value.numerator, value.numerator, value.denominator, places)


# each quantity's bracket function, and a common denominator of its ends
# as D^power * (k-1)^extra (see the module docstring)
_QUANTITY_FUNCS = {
    "M_limit": (limit_M, 2, 0),
    "R_limit": (limit_R, 2, 0),
    "U_limit": (limit_U, 2, 0),
    "expected_lso": (expected_lso_limit, 1, 1),
    "unbordered_density": (unbordered_density_limit, 1, 0),
}

QUANTITIES = tuple(_QUANTITY_FUNCS)


def limit_report(
    quantity: str,
    k: int,
    terms: int,
    precision: int,
    *,
    cache: CountCache | None = None,
) -> LimitReport:
    """Bracket one quantity and render its decimal if certifiable."""
    try:
        func, power, extra = _QUANTITY_FUNCS[quantity]
    except KeyError:
        raise InvalidInputError(
            f"unknown quantity {quantity!r}; choose from {', '.join(QUANTITIES)}"
        ) from None
    if precision < 0:
        raise InvalidInputError(f"precision must be non-negative, got {precision}")
    k = _validate(k, terms)
    interval = func(k, terms, cache=cache)
    den = _denominator(k, terms) ** power * (k - 1) ** extra
    lo, hi = (end.numerator * (den // end.denominator) for end in (interval.lo, interval.hi))
    decimal = _certified_decimal(lo, hi, den, precision)
    return LimitReport(
        quantity=quantity,
        k=k,
        terms=terms,
        precision=precision,
        interval=interval,
        decimal=decimal,
    )
