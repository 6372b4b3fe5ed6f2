"""Brute-force ground truth: exhaustive pair enumeration and verification.

This module never touches the counting recurrences.  It classifies every
ordered pair of words straight from the definitions, so its answers are
trustworthy at small sizes and serve as the reference the closed-form
counts are tested against.

The enumeration is bit-parallel.  A length-n word v stands for its
big-endian code, its index in itertools.product order, and a set of words
is one Python int with a bit per code.  For a fixed u and length l, the v
with prefix_l(v) == suffix_l(u) form a block of k^(n-l) consecutive codes
and the v with suffix_l(v) == prefix_l(u) every k^l-th code.  Unions and
differences of these sets over l classify u against all v at once.

The square checks keep, for each u, only the cumulative sets
right_within[t] (the v with 1 <= lso(u, v) <= t) and left_within[t] (the
same for lso(v, u)).  Since they only grow with t, the v with
lso(u, v) = i are right_within[i] ^ right_within[i - 1], and the v with
lso(v, u) > t are left_within[-1] ^ left_within[t].  So each u costs
O(n) big-integer operations.

Every entry point that enumerates pairs runs one entry check before it
starts: it refuses a bad size, and a pair count over the budget
(DEFAULT_PAIR_BUDGET unless overridden), so a typo cannot start a
multi-day loop.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cache, reduce
from itertools import accumulate, product
from operator import or_
from typing import Callable, Iterator

from .errors import BudgetExceededError, InvalidInputError
from .wordcore import Alphabet, Word, _prefix_function, _require_length

__all__ = [
    "DEFAULT_PAIR_BUDGET",
    "PairCensus",
    "ViolationReport",
    "census_by_lso",
    "ensure_within_budget",
    "enumerate_pair_census",
    "extremal_pair",
    "max_overlap_sum",
    "verify_decomposition",
    "verify_shortest_unbordered",
]

DEFAULT_PAIR_BUDGET = 1 << 34


@dataclass(frozen=True)
class PairCensus:
    """Four-way census of all ordered pairs (u, v) with |u| = m, |v| = n."""

    k: int
    m: int
    n: int
    mutually_bordered: int
    right_bordered: int
    left_bordered: int
    mutually_unbordered: int


@dataclass(frozen=True)
class ViolationReport:
    """Outcome of an exhaustive structural check.

    checked is the exact number of pairs examined.  violations holds up to
    the configured cap of (u, v, reason) triples; empty means the property
    held for every checked pair.
    """

    checked: int
    violations: tuple[tuple[Word, Word, str], ...]


def ensure_within_budget(pair_count: int, budget: int | None = None) -> None:
    """Refuse an enumeration whose pair count exceeds the budget."""
    limit = DEFAULT_PAIR_BUDGET if budget is None else budget
    if pair_count > limit:
        raise BudgetExceededError(pair_count, limit)


def _validate_pairs(k: int, m: int, n: int, budget: int | None) -> int:
    """Every entry rule of an enumeration over |u| = m, |v| = n, in order.

    k first, then n, then m, then the k^(m+n) pairs against the budget.
    Returns k as the plain int Alphabet stores, so a fixed-width type
    cannot wrap.
    """
    k = Alphabet(k).k
    _require_length(n)
    _require_length(m)
    ensure_within_budget(k ** (m + n), budget)
    return k


def _shortest_overlap(u: tuple[int, ...], v: tuple[int, ...]) -> int:
    """lso(u, v) by direct comparison: smallest proper l, or 0."""
    last = len(u)
    for l in range(1, min(last, len(v))):
        if u[last - l :] == v[:l]:
            return l
    return 0


def _unbordered_checker() -> Callable[[tuple[int, ...]], bool]:
    return cache(lambda w: _prefix_function(w)[-1] == 0)


def _overlap_sets(k: int, m: int, n: int) -> Iterator[tuple[list[int], list[int]]]:
    """Yield (right, left) for every length-m word u, in code order.

    right[l] holds the length-n words v with suffix_l(u) == prefix_l(v) and
    left[l] those with prefix_l(u) == suffix_l(v), for 1 <= l < min(m, n);
    index 0 holds the empty set.
    """
    top = min(m, n)
    power = [k**e for e in range(max(m, n) + 1)]
    blocks = [(1 << power[n - l]) - 1 for l in range(top)]
    strides = [((1 << power[n]) - 1) // ((1 << power[l]) - 1) for l in range(top)]
    for code in range(power[m]):
        right = [0] + [blocks[l] << (code % power[l]) * power[n - l] for l in range(1, top)]
        left = [0] + [strides[l] << code // power[m - l] for l in range(1, top)]
        yield right, left


def _members(bits: int) -> Iterator[int]:
    """Codes in a bitset, ascending."""
    while bits:
        low = bits & -bits
        yield low.bit_length() - 1
        bits ^= low


def _verify(k: int, n: int, budget: int | None, cap: int, hits_of: Callable) -> ViolationReport:
    """Keep the first violations in pair order: by u, v, then check rank.

    hits_of(u, right, left) gets u's overlap sets from _overlap_sets and
    returns all of u's violations as (code of v, rank, reason) triples.
    Each check scans the lengths once, in O(n) big-integer operations per
    u plus one per violation.  The decomposition check reads only the
    cumulative sets and adds a j loop only at an i where some v
    interleaves with u.
    """
    k = _validate_pairs(k, n, n, budget)
    alphabet = Alphabet(k)
    words = list(product(range(k), repeat=n))
    violations: list[tuple[Word, Word, str]] = []
    for u, (right, left) in zip(words, _overlap_sets(k, n, n)):
        room = cap - len(violations)
        if room <= 0:
            break
        for v, _, reason in sorted(hits_of(u, right, left))[:room]:
            violations.append((Word(u, alphabet), Word(words[v], alphabet), reason))
    return ViolationReport(checked=k ** (2 * n), violations=tuple(violations))


def enumerate_pair_census(
    k: int, m: int, n: int, *, budget: int | None = None
) -> PairCensus:
    """Classify every ordered pair with |u| = m, |v| = n by brute force."""
    k = _validate_pairs(k, m, n, budget)
    mutual = right = left = 0
    for right_sets, left_sets in _overlap_sets(k, m, n):
        has_right = reduce(or_, right_sets)
        has_left = reduce(or_, left_sets)
        both = (has_right & has_left).bit_count()
        mutual += both
        right += has_right.bit_count() - both
        left += has_left.bit_count() - both
    return PairCensus(
        k=k,
        m=m,
        n=n,
        mutually_bordered=mutual,
        right_bordered=right,
        left_bordered=left,
        mutually_unbordered=k ** (m + n) - mutual - right - left,
    )


def verify_shortest_unbordered(
    k: int, n: int, *, budget: int | None = None, violation_cap: int = 16
) -> ViolationReport:
    """Check: a common overlap word is shortest exactly when unbordered.

    For every ordered pair of length-n words and every length l at which a
    suffix of u equals a prefix of v, the overlap word of length l must be
    unbordered if and only if l is the smallest such length.
    """
    is_unb = _unbordered_checker()

    def hits_of(u: tuple[int, ...], right: list[int], _: list[int]) -> list:
        found = []
        shorter = 0
        for l in range(1, n):
            # the overlap word is suffix_l(u) for the whole block
            if is_unb(u[n - l :]):
                side, bad = "longer overlap is unbordered", right[l] & shorter
            else:
                side, bad = "shortest overlap is bordered", right[l] & ~shorter
            shorter |= right[l]
            found += [(v, l, f"{side} at length {l}") for v in _members(bad)]
        return found

    return _verify(k, n, budget, violation_cap, hits_of)


def verify_decomposition(
    k: int, n: int, *, budget: int | None = None, violation_cap: int = 16
) -> ViolationReport:
    """Check the decomposition laws on every mutually bordered pair.

    With i = lso(u, v), j = lso(v, u):

    * i + j <= n forces u = x s y and v = y t x, where y = so(u, v) and
      x = so(v, u) are both unbordered.
    * i + j > n forces n + 1 <= i + j <= floor(4n/3) and the interleaved
      shape u = x s y t x, v = y t x s y with |x| = |y| = i + j - n,
      x != y, (x, y) mutually unbordered, and x s y, y t x unbordered.
    """
    is_unb = _unbordered_checker()
    bound = 4 * n // 3

    def interleaved_fault(u: tuple[int, ...], v: tuple[int, ...], i: int, j: int) -> str | None:
        if i + j > bound:
            return f"overlap sum {i + j} exceeds floor(4n/3) = {bound}"
        p = i + j - n
        if i < 2 * p or j < 2 * p:
            return f"interleaved case: ends of length {p} collide"
        x, y, s, t = u[:p], v[:p], u[p : j - p], u[j : n - p]
        shape_ok = (
            u == x + s + y + t + x
            and v == y + t + x + s + y
            and x != y
            and _shortest_overlap(x, y) == 0
            and _shortest_overlap(y, x) == 0
            and is_unb(x + s + y)
            and is_unb(y + t + x)
        )
        return None if shape_ok else f"interleaved factorization failed for i={i}, j={j}"

    def hits_of(u: tuple[int, ...], right: list[int], left: list[int]) -> list:
        right_within = list(accumulate(right, or_))
        left_within = list(accumulate(left, or_))
        found = []
        for i in range(1, n):
            exact_right = right_within[i] ^ right_within[i - 1]
            # i + j <= n: so(u, v) = suffix_i(u), and so(v, u) = prefix_i(u) for j = i
            if not is_unb(u[n - i :]):
                reason = f"disjoint case: so(u,v) of length {i} is bordered"
                bad = exact_right & left_within[n - i]
                found += [(v, 0, reason) for v in _members(bad)]
            if not is_unb(u[:i]):
                reason = f"disjoint case: so(v,u) of length {i} is bordered"
                bad = (left_within[i] ^ left_within[i - 1]) & right_within[n - i]
                found += [(v, 1, reason) for v in _members(bad)]
            # i + j > n: one v per j, suffix_i(u) + the last n - i symbols of prefix_j(u)
            if exact_right & (left_within[-1] ^ left_within[n - i]):
                for j in range(n - i + 1, n):
                    both = exact_right & (left_within[j] ^ left_within[j - 1])
                    if both:
                        reason = interleaved_fault(u, u[n - i :] + u[i + j - n : j], i, j)
                        if reason is not None:
                            found.append((both.bit_length() - 1, 0, reason))
        return found

    return _verify(k, n, budget, violation_cap, hits_of)


def max_overlap_sum(k: int, n: int, *, budget: int | None = None) -> int:
    """Largest lso(u, v) + lso(v, u) over all pairs of length-n words.

    One scan of the cumulative sets per u, with i = lso(u, v) falling from
    n - 1: whenever some v has lso(u, v) = i, best rises while one of them
    has lso(v, u) > best - i.  A pair with lso(u, v) = 0 has the sum of its
    swap (v, u), so it needs no pass.  The result never exceeds floor(4n/3).
    """
    k = _validate_pairs(k, n, n, budget)
    best = 0
    for right, left in _overlap_sets(k, n, n):
        right_within = list(accumulate(right, or_))
        left_within = list(accumulate(left, or_))
        for i in range(n - 1, 0, -1):
            exact = right_within[i] ^ right_within[i - 1]
            if exact:
                best = max(best, i)
                while best - i < n - 1 and exact & (left_within[-1] ^ left_within[best - i]):
                    best += 1
    return best


def census_by_lso(k: int, n: int, *, budget: int | None = None) -> dict[int, int]:
    """Histogram of lso(u, v) over all ordered pairs of length-n words.

    Keys run over 0..n-1 even when a bucket is empty.  The v that u first
    overlaps at length l depend only on suffix_l(u), so the walk runs over
    suffixes, each standing for the k^(n-l) words u that end with it.
    """
    k = _validate_pairs(k, n, n, budget)
    power = [k**e for e in range(n + 1)]
    histogram = {i: 0 for i in range(n)}
    # (l, code of a length-l suffix, the v it overlaps at a length <= l, their count)
    stack = [(0, 0, 0, 0)] if n > 1 else []
    while stack:
        l, code, seen, before = stack.pop()
        width = power[n - l - 1]
        for longer in range(code, power[l + 1], power[l]):  # one symbol prepended
            grown = seen | ((1 << width) - 1) << longer * width
            now = grown.bit_count()
            histogram[l + 1] += (now - before) * width
            if l + 2 < n:
                stack.append((l + 1, longer, grown, now))
    histogram[0] = k ** (2 * n) - sum(histogram.values())
    return histogram


def extremal_pair(n: int) -> tuple[Word, Word]:
    """Binary pair of length n whose overlap sum reaches floor(4n/3).

    Three-block construction: u = 0^m 1^mid 0^m and v = 1^mid 0^m 1^m,
    where m = n // 3 and the middle block absorbs the remainder.  The two
    shortest overlaps then have lengths mid + m and 2m.
    """
    if n < 3:
        raise InvalidInputError(f"extremal construction needs n >= 3, got {n}")
    m, r = divmod(n, 3)
    mid = m + r
    u = (0,) * m + (1,) * mid + (0,) * m
    v = (1,) * mid + (0,) * m + (1,) * m
    alphabet = Alphabet(2)
    return Word(u, alphabet), Word(v, alphabet)
