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

All brackets are exact rationals.  Decimal strings are produced only when
the bracket is narrower than half an ulp at the requested precision, so
every printed digit is certified; otherwise the report carries no decimal
and flags that more terms are needed.
"""

from __future__ import annotations

import weakref
from dataclasses import dataclass
from fractions import Fraction

from .counting import CountCache, bordered_count, expected_lso_finite, unbordered_count
from .errors import InvalidInputError


@dataclass(frozen=True)
class RatInterval:
    """Exact rational bracket [lo, hi] known to contain a limit value."""

    lo: Fraction
    hi: Fraction

    def __post_init__(self) -> None:
        if self.lo > self.hi:
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


def _validate(k: int, terms: int) -> None:
    if k < 2:
        raise InvalidInputError(f"limits require an alphabet of size >= 2, got k={k}")
    if terms < 1:
        raise InvalidInputError(f"need at least one series term, got {terms}")


# T brackets by cache and terms.  M, R, U and the unbordered density all
# need the same bracket, so a command that shares one cache builds it
# once; weak keys drop the entries together with the cache.
_T_BRACKETS: weakref.WeakKeyDictionary = weakref.WeakKeyDictionary()


def _t_bracket(k: int, terms: int, cache: CountCache | None) -> tuple[Fraction, Fraction]:
    memo = {} if cache is None else _T_BRACKETS.setdefault(cache, {})
    if terms not in memo:
        # the first `terms` terms of T are the bordered share at length 2*terms
        lo = Fraction(bordered_count(k, 2 * terms, cache=cache), k ** (2 * terms))
        memo[terms] = lo, lo + Fraction(1, (k - 1) * k**terms)
    return memo[terms]


def limit_M(k: int, terms: int, *, cache: CountCache | None = None) -> RatInterval:
    """Bracket for the limiting density of mutually bordered pairs, T^2."""
    _validate(k, terms)
    a, b = _t_bracket(k, terms, cache)
    return RatInterval(a**2, b**2)


def limit_R(k: int, terms: int, *, cache: CountCache | None = None) -> RatInterval:
    """Bracket for the limiting density of right-bordered pairs, T - T^2.

    By the bracket invariant, t - t^2 is monotone on the T bracket, so the
    images of its ends bound the image; the same holds for M and U.
    """
    _validate(k, terms)
    a, b = _t_bracket(k, terms, cache)
    fa = a - a * a
    fb = b - b * b
    return RatInterval(min(fa, fb), max(fa, fb))


def limit_U(k: int, terms: int, *, cache: CountCache | None = None) -> RatInterval:
    """Bracket for the limiting density of mutually unbordered pairs, (1-T)^2."""
    _validate(k, terms)
    a, b = _t_bracket(k, terms, cache)
    return RatInterval((1 - b) ** 2, (1 - a) ** 2)


def expected_lso_limit(k: int, terms: int, *, cache: CountCache | None = None) -> RatInterval:
    """Bracket for the limiting expected shortest-overlap length."""
    _validate(k, terms)
    # the first `terms` terms of E are the mean lso at length terms + 1
    lo = expected_lso_finite(k, terms + 1, cache=cache)
    tail = Fraction(k * (terms + 1) - terms, (k - 1) ** 2 * k**terms)
    return RatInterval(lo, lo + tail)


def unbordered_density(k: int, n: int, *, cache: CountCache | None = None) -> Fraction:
    """u_n / k^n exactly.  Decreases toward the limit 1 - T as n grows."""
    if k < 2:
        raise InvalidInputError(f"density requires an alphabet of size >= 2, got k={k}")
    if n < 1:
        raise InvalidInputError(f"length must be at least 1, got {n}")
    return Fraction(unbordered_count(k, n, cache=cache), k**n)


def unbordered_density_limit(k: int, terms: int, *, cache: CountCache | None = None) -> RatInterval:
    """Bracket for the limiting unbordered density, 1 - T."""
    _validate(k, terms)
    a, b = _t_bracket(k, terms, cache)
    return RatInterval(1 - b, 1 - a)


def format_decimal(value: Fraction, places: int) -> str:
    """Exact fixed-point rendering with round-half-to-even."""
    scaled = round(value * 10**places)
    sign = "-" if scaled < 0 else ""
    whole, frac = divmod(abs(scaled), 10**places)
    if places == 0:
        return f"{sign}{whole}"
    return f"{sign}{whole}.{frac:0{places}d}"


_QUANTITY_FUNCS = {
    "M_limit": limit_M,
    "R_limit": limit_R,
    "U_limit": limit_U,
    "expected_lso": expected_lso_limit,
    "unbordered_density": unbordered_density_limit,
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
        func = _QUANTITY_FUNCS[quantity]
    except KeyError:
        raise InvalidInputError(
            f"unknown quantity {quantity!r}; choose from {', '.join(QUANTITIES)}"
        ) from None
    if precision < 0:
        raise InvalidInputError(f"precision must be non-negative, got {precision}")
    interval = func(k, terms, cache=cache)
    certified = interval.width < Fraction(1, 2 * 10**precision)
    decimal = format_decimal(interval.midpoint, precision) if certified else None
    return LimitReport(
        quantity=quantity,
        k=k,
        terms=terms,
        precision=precision,
        interval=interval,
        decimal=decimal,
    )
