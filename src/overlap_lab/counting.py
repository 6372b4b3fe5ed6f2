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
  each fill the unbordered table once and run one Horner loop over a
  slice of it, total = total*k^2 + u_i (or + i*u_i).
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
  close_n = k^2*close_(n-1) + C(n) with C(n) = sum_(0<a<n) u_a*u_(n-a).
  Pairs with i + j > n are forced into the interleaved shape
  u = x s y t x, v = y t x s y, seeded by a mutually unbordered pair of
  distinct words of length p = i + j - n <= n/3; they add
  (U_p - u_p) * S_p(n + p) for each p, with
  S_p(N) = sum_a g_p(a)*g_p(N-a).
* Neither convolution is summed term by term.  Each is a coefficient of
  F(z)^2 for a series F with F(z)(1 - kz) = c*z^(2r) - F(z^2), and
  squaring that equation gives one step for sq(m) = [z^m] F(z)^2 past a
  seed through index 4r:
    sq(m) = 2k*sq(m-1) - k^2*sq(m-2) + [m even]*(sq(m/2) - 2c*f(m/2 - r)).
  The close sums take F = u(z) = sum_n u_n z^n, with c = 2, r = 0 and
  C(n) = [z^n] u(z)^2 - 2*u_n; S_p takes F = G_p, with c = 1, r = p.
  Each step is a few big-integer operations.  u and every g_t run the
  Nielsen step itself, subtracting at every even m; a g_t table is zero
  below 2t.
* The pair tables fill p by p.  The close rows come first, from u(z)^2,
  which each fill builds and drops like an S_p; then for each p <= n/3
  in order, g_p runs to length (n - p + 1)/2 and S_p to n + p or one
  past, and (U_p - u_p)*S_p(j + p) goes into every row j >= 3p before
  both lists are dropped.  U_p comes from M_p (below), which is final
  when p is reached, since row p takes only seeds p' <= p/3 < p.  So the
  only tables that stay alive, u and the M rows, hold O(n^2) bits, where
  one S_p list per p would hold Theta(n^3).
* right_bordered_count and mutually_unbordered_count follow from M_n and
  the unbordered table.  The pairs with a right-border number
  M_n + R_n = k^(2n) - u_(2n) - u_n.  Proof: a border of w = vu shorter
  than n is a suffix of u that is also a prefix of v, so the borders of w
  shorter than n are exactly the right-borders of (u, v).  Without one, w
  is unbordered (u_(2n) pairs) or its shortest border, unbordered and at
  most half of w, is exactly n long, so v = u with u unbordered (u_n
  pairs).  With M + 2R + U = k^(2n) this gives
  U_n = M_n + 2*(u_(2n) + u_n) - k^(2n).
"""

from __future__ import annotations

import threading
from fractions import Fraction

from .errors import InvalidInputError


class CountCache:
    """Memoized count tables for one alphabet size.

    Every table runs the Nielsen step (u, each g_t) or its square
    (u(z)^2, each S_p), so nothing convolves.  A pair fill to n builds
    the close rows, then each S_p once, from 4p to n + p, adds it into
    every row it reaches and drops it.  A request past the filled rows
    fills to at least half again as many, since the next fill restarts
    every S_p.  g() builds its g_t list per call, as the fill does.  R
    and U are lookups, from M and u through the borders of vu.

    Only u and the M rows outlive a call: u is append-only with every
    entry final, and the M rows are published in one assignment after the
    last p.  So memoization is semantically transparent: a warm or
    interrupted cache returns exactly what a cold one would, in any order
    of requests.  Instances may be shared between threads; table fills
    happen under an internal lock.
    """

    def __init__(self, k: int):
        if k < 1:
            raise InvalidInputError(f"alphabet size must be at least 1, got {k}")
        self.k = k
        self._lock = threading.RLock()
        self._unbordered: list[int] = [1]
        # M_n at index n, with a placeholder at 0
        self._mutual: list[int] = [0]

    def unbordered(self, n: int) -> int:
        if n < 0:
            raise InvalidInputError(f"length must be non-negative, got {n}")
        with self._lock:
            return self._nielsen_locked(self._unbordered, n)[n]

    def g(self, t: int, n: int) -> int:
        if t < 1 or n < t:
            raise InvalidInputError(f"need 1 <= t <= n, got t={t}, n={n}")
        if n < 2 * t:
            return 0
        # zero below 2t, too short to hold both ends of a mutually
        # unbordered pair, and one at 2t, the seed pair itself.  The list
        # is this call's own and the step reads only k, so no lock.
        return self._nielsen_locked([0] * (2 * t) + [1], n)[n]

    def mutually_bordered(self, n: int) -> int:
        with self._lock:
            self._ensure_pairs_locked(n)
            return self._mutual[n]

    def right_bordered(self, n: int) -> int:
        with self._lock:
            self._ensure_pairs_locked(n)
            u = self._unbordered
            return self.k ** (2 * n) - u[2 * n] - u[n] - self._mutual[n]

    def mutually_unbordered(self, n: int) -> int:
        with self._lock:
            self._ensure_pairs_locked(n)
            u = self._unbordered
            return self._mutual[n] + 2 * (u[2 * n] + u[n]) - self.k ** (2 * n)

    def _nielsen_locked(self, tbl: list[int], n: int) -> list[int]:
        # extend tbl to index n by tbl[m] = k*tbl[m-1] - tbl[m/2], the
        # subtraction at even m
        k = self.k
        while len(tbl) <= n:
            m = len(tbl)
            value = k * tbl[m - 1]
            if m % 2 == 0:
                value -= tbl[m // 2]
            tbl.append(value)
        return tbl

    def _square_locked(self, sq: list[int], f: list[int], c: int, r: int, n: int) -> list[int]:
        # extend sq, [z^m] F(z)^2 for F(z)(1 - kz) = c*z^(2r) - F(z^2), to
        # index n or n + 1, two steps at a time, so its length stays odd:
        # the odd step has no half-index terms, the even step m = 2h adds
        # sq[h] and subtracts 2c*f[h - r].  f is read only to (n + 1)/2 - r.
        k = self.k
        twice_k, k2 = 2 * k, k * k
        a, b = sq[-2], sq[-1]
        for h in range(len(sq) // 2 + 1, (n + 1) // 2 + 1):
            a = twice_k * b - k2 * a
            b = twice_k * a - k2 * b + sq[h] - 2 * c * f[h - r]
            sq += a, b
        return sq

    def _ensure_pairs_locked(self, n: int) -> None:
        if n < 1:
            raise InvalidInputError(f"length must be at least 1, got {n}")
        filled = len(self._mutual) - 1
        if n <= filled:
            return
        # a fill costs about as much as a cold one to its top, since every
        # S_p restarts from 4p; growing by half again keeps rows asked one
        # at a time within a small factor of one cold fill
        top = max(n, 3 * filled // 2)
        k = self.k
        k2 = k * k
        u = self._nielsen_locked(self._unbordered, 2 * top)
        # close pairs: overlap lengths a = lso(u,v), b = lso(v,u) with
        # a + b <= j; the two shortest overlaps are disjoint unbordered
        # blocks and the middles are free; sq[m] = [z^m] u(z)^2, seeded to 2
        sq = self._square_locked([1, 2 * k, 3 * k2 - 2 * k], u, 2, 0, top)
        rows = [0] * (top + 1)
        for j in range(1, top + 1):
            rows[j] = k2 * rows[j - 1] + sq[j] - 2 * u[j]
        # the published rows are final already, and seeds p <= filled read them
        rows[: filled + 1] = self._mutual
        # far pairs: a + b > j; seeded by an ordered mutually unbordered
        # pair of distinct length-p words sitting at both ends, U_p - u_p
        # of them.  Seed lengths run in order, so M_p is final when p is
        # reached: row p takes only seeds p' <= p/3 < p.
        for p in range(1, top // 3 + 1):
            seeds = rows[p] + 2 * u[2 * p] + u[p] - k2**p
            g = self._nielsen_locked([0] * (2 * p) + [1], (top - p + 1) // 2)
            far = self._square_locked([0] * (4 * p) + [1], g, 1, p, top + p)
            for j in range(max(filled + 1, 3 * p), top + 1):
                rows[j] += seeds * far[j + p]
        # published only now, in one assignment, so an interrupted fill
        # leaves no partial row and the next request redoes the whole fill
        self._mutual = rows


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
    k^n - unbordered_count(k, n).  The sum is the cheaper form: it needs
    the unbordered table only to n/2, while k^n - u_n fills it to n.  The
    entries grow linearly in size, so a table of m entries holds about
    m^2 bits, and the difference form would hold four times as many.
    """
    _require_positive_length(n)
    c = _resolve_cache(k, cache)
    c.unbordered(n // 2)
    k2 = k * k
    total = 0
    # entries never change once written, so the slice needs no lock
    for value in c._unbordered[1 : n // 2 + 1]:
        total = total * k2 + value
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
    c.unbordered(n - 1)
    k2 = k * k
    total = 0
    for i, value in enumerate(c._unbordered[1:n], 1):
        total = total * k2 + i * value
    return Fraction(total, k2 ** (n - 1))
