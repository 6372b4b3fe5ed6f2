"""Exact counts of unbordered words and of bordered or overlapping pairs.

Counts are plain Python integers, so they stay exact at any size;
expectations are fractions.Fraction values.  No floating point is used
anywhere in this module.

The building blocks:

* unbordered_count(k, n): Nielsen's recurrence for the number u_n of
  length-n unbordered words: u_0 = 1, u_n = k*u_(n-1) for odd n, and
  u_n = k*u_(n-1) - u_(n/2) for even n > 0.
* bordered_count(k, n): classify bordered words by the length i of their
  shortest border, which is itself unbordered and at most n/2 long, then
  sum u_i * k^(n-2i).  The total equals k^n - u_n.
* bordered_count and expected_lso_finite, the mean sum_(i<n) i*u_i*k^(-2i),
  each run one Horner loop, total = total*k^2 + u_i (or + i*u_i).
* g_count(k, t, n): length-n unbordered words whose length-t prefix and
  suffix realize a fixed mutually unbordered pair of distinct words.  The
  count depends only on t, not on the pair chosen: it is zero below
  n = 2t and otherwise k^(n-2t) minus the words whose shortest border
  keeps the same ends.  As a running recurrence: g_t(2t) = 1, then
  g_t(n) = k*g_t(n-1) - g_t(n/2), the last term only for even n >= 4t.
* mutually_bordered_count(k, n) and friends split all ordered pairs by
  i + j, with i = lso(u, v) and j = lso(v, u).  Pairs with i + j <= n
  factor as u = x s y, v = y t x where x, y are unbordered of lengths j
  and i, giving close_n = sum u_i * u_j * k^(2n - 2(i+j)), which runs as
  close_n = k^2*close_(n-1) + sum_(a<n) u_a*u_(n-a).  Pairs with
  i + j > n are forced into the interleaved shape u = x s y t x,
  v = y t x s y, seeded by a mutually unbordered pair of distinct words
  of length p = i + j - n <= n/3 and counted through g_count.  All pairs
  with a right-border number sum_(i<n) u_i * k^(2(n-i)), which runs as
  with_right_n = k^2*(with_right_(n-1) + u_(n-1)).
"""

from __future__ import annotations

import threading
from fractions import Fraction
from operator import mul

from .errors import InvalidInputError


class CountCache:
    """Memoized count tables for one alphabet size.

    Each new length extends every table by one step of a running
    recurrence (see the module docstring), so a row costs O(n) products:
    close_n = k^2*close_(n-1) + sum_(a<n) u_a*u_(n-a), with_right_n =
    k^2*(with_right_(n-1) + u_(n-1)) and g_t(n) = k*g_t(n-1) - g_t(n/2).

    Memoization is semantically transparent: a warm cache returns exactly
    what a cold one would, in any order of requests.  Instances may be
    shared between threads; table fills happen under an internal lock.
    """

    def __init__(self, k: int):
        if k < 1:
            raise InvalidInputError(f"alphabet size must be at least 1, got {k}")
        self.k = k
        self._lock = threading.RLock()
        self._unbordered: list[int] = [1]
        self._g_tables: dict[int, list[int]] = {}
        self._mutual: dict[int, int] = {}
        self._right: dict[int, int] = {}
        self._neither: dict[int, int] = {}
        self._close: dict[int, int] = {0: 0}

    def unbordered(self, n: int) -> int:
        if n < 0:
            raise InvalidInputError(f"length must be non-negative, got {n}")
        with self._lock:
            return self._unbordered_locked(n)

    def g(self, t: int, n: int) -> int:
        if t < 1 or n < t:
            raise InvalidInputError(f"need 1 <= t <= n, got t={t}, n={n}")
        if n < 2 * t:
            return 0
        with self._lock:
            return self._g_table_locked(t, n)[n]

    def mutually_bordered(self, n: int) -> int:
        with self._lock:
            self._ensure_pairs_locked(n)
            return self._mutual[n]

    def right_bordered(self, n: int) -> int:
        with self._lock:
            self._ensure_pairs_locked(n)
            return self._right[n]

    def mutually_unbordered(self, n: int) -> int:
        with self._lock:
            self._ensure_pairs_locked(n)
            return self._neither[n]

    def _unbordered_locked(self, n: int) -> int:
        tbl = self._unbordered
        k = self.k
        while len(tbl) <= n:
            m = len(tbl)
            value = k * tbl[m - 1]
            if m % 2 == 0:
                value -= tbl[m // 2]
            tbl.append(value)
        return tbl[n]

    def _g_table_locked(self, t: int, n: int) -> list[int]:
        # index by length: zero below 2t, too short to hold both ends of a
        # mutually unbordered pair, and one at 2t, the seed pair itself
        tbl = self._g_tables.get(t)
        if tbl is None:
            tbl = self._g_tables[t] = [0] * (2 * t) + [1]
        k = self.k
        while len(tbl) <= n:
            m = len(tbl)
            value = k * tbl[m - 1]
            if m % 2 == 0 and m >= 4 * t:
                value -= tbl[m // 2]
            tbl.append(value)
        return tbl

    def _ensure_pairs_locked(self, n: int) -> None:
        if n < 1:
            raise InvalidInputError(f"length must be at least 1, got {n}")
        k2 = self.k * self.k
        self._unbordered_locked(n)
        u = self._unbordered
        for j in range(len(self._mutual) + 1, n + 1):
            # close pairs: overlap lengths a = lso(u,v), b = lso(v,u) with
            # a + b <= j; the two shortest overlaps are disjoint unbordered
            # blocks and the middles are free
            ends = u[1:j]
            mutual = self._close[j] = k2 * self._close[j - 1] + sum(map(mul, ends, reversed(ends)))
            # far pairs: a + b > j; seeded by an ordered mutually unbordered
            # pair of distinct length-p words sitting at both ends
            for p in range(1, j // 3 + 1):
                halves = self._g_table_locked(p, j - p)[2 * p : j - p + 1]
                mutual += (self._neither[p] - u[p]) * sum(map(mul, halves, reversed(halves)))
            # pairs with a right-border; at j - 1 they number M + R
            with_right = k2 * (self._mutual[j - 1] + self._right[j - 1] + u[j - 1]) if j > 1 else 0
            self._right[j] = with_right - mutual
            self._neither[j] = k2**j - 2 * self._right[j] - mutual
            # written last, so an interrupted fill redoes row j from the start
            self._mutual[j] = mutual


def _resolve_cache(k: int, cache: CountCache | None) -> CountCache:
    if cache is None:
        return CountCache(k)
    if cache.k != k:
        raise InvalidInputError(f"cache was built for k={cache.k}, called with k={k}")
    return cache


def _require_positive_length(n: int) -> None:
    if n < 1:
        raise InvalidInputError(f"length must be at least 1, got {n}")


def unbordered_count(k: int, n: int, *, cache: CountCache | None = None) -> int:
    """Number u_n of length-n unbordered words over k symbols."""
    return _resolve_cache(k, cache).unbordered(n)


def bordered_count(k: int, n: int, *, cache: CountCache | None = None) -> int:
    """Number of length-n bordered words, summed over the shortest border.

    Evaluates sum_i u_i * k^(n-2i) for 1 <= i <= n/2, which also equals
    k^n - unbordered_count(k, n).
    """
    _require_positive_length(n)
    c = _resolve_cache(k, cache)
    k2 = k * k
    total = 0
    for i in range(1, n // 2 + 1):
        total = total * k2 + c.unbordered(i)
    return total * k ** (n % 2)


def g_count(k: int, t: int, n: int, *, cache: CountCache | None = None) -> int:
    """Length-n unbordered words with both ends pinned to a seed pair.

    Counts unbordered words whose length-t prefix and length-t suffix are
    the two halves of a fixed mutually unbordered pair of distinct words.
    The result depends only on t: zero when n < 2t (the ends would overlap
    and border each other), k^(n-2t) minus the bordered completions after.
    """
    return _resolve_cache(k, cache).g(t, n)


def mutually_bordered_count(k: int, n: int, *, cache: CountCache | None = None) -> int:
    """Ordered pairs of length-n words with a right- and a left-border."""
    return _resolve_cache(k, cache).mutually_bordered(n)


def right_bordered_count(k: int, n: int, *, cache: CountCache | None = None) -> int:
    """Ordered pairs of length-n words with a right-border but no left-border."""
    return _resolve_cache(k, cache).right_bordered(n)


def mutually_unbordered_count(k: int, n: int, *, cache: CountCache | None = None) -> int:
    """Ordered pairs of length-n words with no border in either direction."""
    return _resolve_cache(k, cache).mutually_unbordered(n)


def s_count(k: int, i: int, n: int, *, cache: CountCache | None = None) -> int:
    """Ordered pairs of length-n words with lso(u, v) exactly i.

    The shortest right-border is an unbordered word of length i shared by
    u's tail and v's head, and the remaining symbols are free, giving
    u_i * k^(2(n-i)).  Only proper overlaps qualify, so 1 <= i <= n - 1.
    """
    _require_positive_length(n)
    if not 1 <= i <= n - 1:
        raise InvalidInputError(f"overlap length must be in 1..{n - 1}, got {i}")
    c = _resolve_cache(k, cache)
    return c.unbordered(i) * k ** (2 * (n - i))


def expected_lso_finite(k: int, n: int, *, cache: CountCache | None = None) -> Fraction:
    """Exact mean of lso(u, v) over uniform ordered pairs of length n."""
    _require_positive_length(n)
    c = _resolve_cache(k, cache)
    k2 = k * k
    total = 0
    for i in range(1, n):
        total = total * k2 + i * c.unbordered(i)
    return Fraction(total, k2 ** (n - 1))
