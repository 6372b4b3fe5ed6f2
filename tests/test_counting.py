"""Exact counting recurrences against brute-force enumeration.

The enumerations here are written from the definitions, independently of
both the counting module and the oracle module, so they can act as a
neutral referee for the closed-form recurrences.
"""

import functools
import itertools
import random
import sys
import threading
import time
import tracemalloc
from fractions import Fraction
from operator import mul

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from overlap_lab import counting
from overlap_lab import (
    CountCache,
    InvalidInputError,
    bordered_count,
    expected_lso_finite,
    limit_report,
    mutually_bordered_count,
    mutually_unbordered_count,
    right_bordered_count,
    s_count,
    unbordered_count,
)
from overlap_lab.cli import main

# frozen prefixes of the unbordered-word counts
UNBORDERED_K2 = [1, 2, 2, 4, 6, 12, 20, 40, 74, 148, 284, 568, 1116, 2232, 4424]
UNBORDERED_K3 = [1, 3, 6, 18, 48, 144, 414, 1242, 3678, 11034, 32958]

# frozen (M, R, U) columns for k = 2, n = 1..15
PAIR_TABLE_K2 = [
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
]


def brute_is_bordered(w: tuple[int, ...]) -> bool:
    n = len(w)
    return any(w[:l] == w[n - l :] for l in range(1, n))


def brute_unbordered_count(k: int, n: int) -> int:
    if n == 0:
        return 1
    return sum(
        1
        for w in itertools.product(range(k), repeat=n)
        if not brute_is_bordered(w)
    )


def brute_overlap_lengths(u: tuple[int, ...], v: tuple[int, ...]) -> list[int]:
    top = min(len(u), len(v))
    return [l for l in range(1, top) if u[len(u) - l :] == v[:l]]


def brute_g_count(k: int, seed: tuple[tuple[int, ...], tuple[int, ...]], n: int) -> int:
    # length-n words that start with the seed's second half, end with its
    # first, and have no border longer than the fixed ends; borders up to
    # the end length cannot occur since the seed halves are mutually
    # unbordered and distinct
    x, y = seed
    t = len(x)
    assert len(y) == t
    if n < 2 * t:
        return 0
    count = 0
    for middle in itertools.product(range(k), repeat=n - 2 * t):
        w = y + middle + x
        if not any(w[:l] == w[n - l :] for l in range(t + 1, n)):
            count += 1
    return count


def mutually_unbordered_seed(k: int, t: int) -> tuple[tuple[int, ...], tuple[int, ...]]:
    for x in itertools.product(range(k), repeat=t):
        for y in itertools.product(range(k), repeat=t):
            if x == y:
                continue
            if brute_overlap_lengths(x, y) or brute_overlap_lengths(y, x):
                continue
            return x, y
    raise AssertionError(f"no mutually unbordered pair at k={k}, t={t}")


def brute_pair_counts(k: int, n: int) -> tuple[int, int, int]:
    mutual = right = neither = 0
    words = list(itertools.product(range(k), repeat=n))
    for u in words:
        for v in words:
            has_right = bool(brute_overlap_lengths(u, v))
            has_left = bool(brute_overlap_lengths(v, u))
            if has_right and has_left:
                mutual += 1
            elif has_right:
                right += 1
            elif not has_left:
                neither += 1
    return mutual, right, neither


def reference_g_table(k: int, t: int, n_max: int) -> list[int]:
    # g_t(m) = k^(m-2t) minus every completion whose shortest border, of
    # length i in 2t..m/2, keeps the seed ends, summed from scratch
    tbl = [0] * (2 * t)
    for m in range(2 * t, n_max + 1):
        bordered = sum(tbl[i] * k ** (m - 2 * i) for i in range(2 * t, m // 2 + 1))
        tbl.append(k ** (m - 2 * t) - bordered)
    return tbl


def reference_pair_table(k: int, n_max: int) -> list[tuple[int, int, int]]:
    """(M, R, U) for n = 1..n_max from the direct double and border sums.

    Every sum is rebuilt from scratch for each length, so this is an
    independent reference for CountCache's running recurrences.
    """
    u = [1]
    for m in range(1, n_max + 1):
        u.append(k * u[m - 1] - (u[m // 2] if m % 2 == 0 else 0))
    g = {p: reference_g_table(k, p, n_max) for p in range(1, n_max // 3 + 1)}
    rows: list[tuple[int, int, int]] = []
    for j in range(1, n_max + 1):
        close = sum(
            u[a] * u[b] * k ** (2 * j - 2 * (a + b))
            for a in range(1, j)
            for b in range(1, j - a + 1)
        )
        far = sum(
            (rows[p - 1][2] - u[p])
            * sum(g[p][l] * g[p][j - l + p] for l in range(2 * p, j - p + 1))
            for p in range(1, j // 3 + 1)
        )
        with_right = sum(u[i] * k ** (2 * j - 2 * i) for i in range(1, j))
        mutual = close + far
        right = with_right - mutual
        rows.append((mutual, right, k ** (2 * j) - 2 * right - mutual))
    return rows


def reference_close_sums(k: int, n_max: int) -> list[int]:
    # C(n) = sum_(0<a<n) u_a*u_(n-a), one convolution per length
    u = [unbordered_count(k, m) for m in range(n_max + 1)]
    return [0] + [sum(map(mul, u[1:n], reversed(u[1:n]))) for n in range(1, n_max + 1)]


def reference_g_squares(k: int, p: int, n_max: int) -> list[int]:
    # S_p(N) = sum_a g_p(a)*g_p(N-a), the square of the g-table
    g = reference_g_table(k, p, n_max)
    return [sum(map(mul, g[: n + 1], reversed(g[: n + 1]))) for n in range(n_max + 1)]


def reference_convolution_table(k: int, n_max: int) -> list[tuple[int, int, int]]:
    """(M, R, U) for n = 1..n_max with each row's close and far sums
    convolved directly from the u and g tables, not run as recurrences.
    """
    u = [1]
    for m in range(1, 2 * n_max + 1):
        u.append(k * u[m - 1] - (u[m // 2] if m % 2 == 0 else 0))
    g = {p: reference_g_table(k, p, n_max) for p in range(1, n_max // 3 + 1)}
    close, neither = 0, {}
    rows: list[tuple[int, int, int]] = []
    for j in range(1, n_max + 1):
        ends = u[1:j]
        close = k * k * close + sum(map(mul, ends, reversed(ends)))
        mutual = close
        for p in range(1, j // 3 + 1):
            halves = g[p][2 * p : j - p + 1]
            mutual += (neither[p] - u[p]) * sum(map(mul, halves, reversed(halves)))
        neither[j] = mutual + 2 * (u[2 * j] + u[j]) - k ** (2 * j)
        right = k ** (2 * j) - u[2 * j] - u[j] - mutual
        rows.append((mutual, right, neither[j]))
    return rows


def pair_row(cache: CountCache, n: int) -> tuple[int, int, int]:
    return cache.mutually_bordered(n), cache.right_bordered(n), cache.mutually_unbordered(n)


def test_unbordered_frozen_values():
    for n, want in enumerate(UNBORDERED_K2):
        assert unbordered_count(2, n) == want
    for n, want in enumerate(UNBORDERED_K3):
        assert unbordered_count(3, n) == want
    assert unbordered_count(2, 4) == 6
    assert unbordered_count(3, 2) == 6
    assert unbordered_count(2, 0) == 1


@pytest.mark.parametrize("k", [1, 2, 3])
def test_unbordered_matches_brute_force(k):
    for n in range(0, 11 if k == 2 else 8):
        assert unbordered_count(k, n) == brute_unbordered_count(k, n)


def test_bordered_examples_and_complement():
    assert bordered_count(2, 4) == 10
    assert bordered_count(2, 2) == 2
    for k in (1, 2, 3, 4):
        for n in range(1, 41):
            assert bordered_count(k, n) == k**n - unbordered_count(k, n)


def test_g_frozen_values():
    g = CountCache(2).g
    assert g(1, 1) == 0
    assert g(1, 2) == 1
    assert g(1, 3) == 2
    assert g(1, 4) == 3
    assert g(2, 4) == 1


@pytest.mark.parametrize("k,t", [(2, 1), (2, 2), (2, 3), (3, 1), (3, 2)])
def test_g_matches_brute_force(k, t):
    seed = mutually_unbordered_seed(k, t)
    for n in range(t, 2 * t + 7):
        assert CountCache(k).g(t, n) == brute_g_count(k, seed, n)


def test_g_is_seed_independent():
    # two different mutually unbordered seeds give the same profile
    cache = CountCache(2)
    seeds_t1 = [((0,), (1,)), ((1,), (0,))]
    for n in range(1, 9):
        values = {brute_g_count(2, seed, n) for seed in seeds_t1}
        assert values == {cache.g(1, n)}
    seeds_t3 = [((0, 0, 0), (1, 1, 1)), ((0, 1, 0), (1, 1, 1))]
    for n in range(3, 10):
        values = {brute_g_count(2, seed, n) for seed in seeds_t3}
        assert values == {cache.g(3, n)}


def test_pair_counts_frozen_table():
    for n, (m_want, r_want, u_want) in enumerate(PAIR_TABLE_K2, start=1):
        assert mutually_bordered_count(2, n) == m_want
        assert right_bordered_count(2, n) == r_want
        assert mutually_unbordered_count(2, n) == u_want


@pytest.mark.parametrize("k,n_max", [(1, 6), (2, 7), (3, 4), (4, 3)])
def test_pair_counts_match_brute_force(k, n_max):
    for n in range(1, n_max + 1):
        mutual, right, neither = brute_pair_counts(k, n)
        assert mutually_bordered_count(k, n) == mutual
        assert right_bordered_count(k, n) == right
        assert mutually_unbordered_count(k, n) == neither


@pytest.mark.parametrize("k", [1, 2, 3, 4])
def test_pair_counts_partition_all_pairs(k):
    for n in range(1, 21):
        total = (
            mutually_bordered_count(k, n)
            + 2 * right_bordered_count(k, n)
            + mutually_unbordered_count(k, n)
        )
        assert total == k ** (2 * n)


def test_s_count_examples():
    assert s_count(2, 1, 3) == 32
    assert s_count(2, 2, 3) == 8
    with pytest.raises(InvalidInputError):
        s_count(2, 1, 1)
    with pytest.raises(InvalidInputError):
        s_count(2, 3, 3)
    with pytest.raises(InvalidInputError):
        s_count(2, 0, 3)


def brute_lso_census(k: int, n: int) -> dict[int, int]:
    histogram = dict.fromkeys(range(n), 0)
    words = list(itertools.product(range(k), repeat=n))
    for u in words:
        for v in words:
            lengths = brute_overlap_lengths(u, v)
            histogram[lengths[0] if lengths else 0] += 1
    return histogram


@pytest.mark.parametrize("k,n_max", [(2, 7), (3, 4)])
def test_s_count_matches_brute_force(k, n_max):
    for n in range(2, n_max + 1):
        histogram = brute_lso_census(k, n)
        for i in range(1, n):
            assert s_count(k, i, n) == histogram[i]


def test_expected_lso_examples():
    assert expected_lso_finite(2, 1) == 0
    assert expected_lso_finite(2, 2) == Fraction(1, 2)
    assert expected_lso_finite(2, 3) == Fraction(3, 4)


@pytest.mark.parametrize("k,n_max", [(2, 6), (3, 4)])
def test_expected_lso_matches_brute_force(k, n_max):
    for n in range(1, n_max + 1):
        histogram = brute_lso_census(k, n)
        mean = Fraction(sum(i * c for i, c in histogram.items()), k ** (2 * n))
        assert expected_lso_finite(k, n) == mean


def test_cache_is_transparent():
    cold = mutually_bordered_count(2, 12)
    cache = CountCache(2)
    warm_once = mutually_bordered_count(2, 12, cache=cache)
    warm_twice = mutually_bordered_count(2, 12, cache=cache)
    assert cold == warm_once == warm_twice
    # the same cache serves every quantity
    assert unbordered_count(2, 9, cache=cache) == UNBORDERED_K2[9]
    assert right_bordered_count(2, 3, cache=cache) == 14


def test_cache_rejects_mismatched_alphabet():
    cache = CountCache(3)
    with pytest.raises(InvalidInputError):
        unbordered_count(2, 5, cache=cache)


def test_cache_alphabet_governs_the_arithmetic():
    # a k equal to the cache's is answered from the cache's plain int, so
    # the counts stay exact integers
    cache = CountCache(2)
    assert bordered_count(2.0, 200, cache=cache) == bordered_count(2, 200)
    assert type(bordered_count(2.0, 200, cache=cache)) is int
    assert type(s_count(2.0, 3, 200, cache=cache)) is int
    assert type(expected_lso_finite(2.0, 200, cache=cache).numerator) is int


@settings(deadline=None, max_examples=30)
@given(st.integers(1, 5), st.integers(1, 60))
def test_counts_are_consistent_everywhere(k, n):
    cache = CountCache(k)
    m = mutually_bordered_count(k, n, cache=cache)
    r = right_bordered_count(k, n, cache=cache)
    u = mutually_unbordered_count(k, n, cache=cache)
    assert m >= 0 and r >= 0 and u >= 0
    assert m + 2 * r + u == k ** (2 * n)
    assert unbordered_count(k, n, cache=cache) + bordered_count(k, n, cache=cache) == k**n


def test_invalid_inputs():
    with pytest.raises(InvalidInputError):
        unbordered_count(0, 3)
    with pytest.raises(InvalidInputError):
        unbordered_count(2, -1)
    with pytest.raises(InvalidInputError):
        mutually_bordered_count(2, 0)
    with pytest.raises(InvalidInputError):
        CountCache(2).g(0, 4)
    with pytest.raises(InvalidInputError):
        CountCache(2).g(5, 4)
    with pytest.raises(InvalidInputError):
        expected_lso_finite(2, 0)


@pytest.mark.parametrize("k", [2, 3, 4, 10])
def test_cache_matches_reference_sums(k):
    cache = CountCache(k)
    assert [pair_row(cache, n) for n in range(1, 61)] == reference_pair_table(k, 60)
    for t in range(1, 21):
        want = reference_g_table(k, t, 60)
        assert [cache.g(t, n) for n in range(t, 61)] == want[t:]


def reference_bordered_count(u: list[int], k: int, n: int) -> int:
    # one power of k per term, summed over the shortest border length i
    return sum(u[i] * k ** (n - 2 * i) for i in range(1, n // 2 + 1))


def reference_expected_lso(u: list[int], k: int, n: int) -> Fraction:
    # pairs with lso = i number u_i * k^(2(n-i)); one power of k per term
    total = sum(i * u[i] * k ** (2 * (n - i)) for i in range(1, n))
    return Fraction(total, k ** (2 * n))


@pytest.mark.parametrize("k", [1, 2, 3, 10, 100])
def test_partial_sums_match_power_sums(k):
    # both sums read the table to m: n // 2 for the bordered count and
    # n - 1 for the mean.  Up to m = 64 they run the direct loop; 65 halves
    # once, 129 and 130 twice, 257 three times and 1000 four times.
    reference = CountCache(k)
    u = [reference.unbordered(i) for i in range(1001)]
    cache = CountCache(k)
    deep = [64, 65, 129, 130, 257, 1000]
    for n in [*range(1, 121), *(2 * m for m in deep), *(2 * m + 1 for m in deep)]:
        assert bordered_count(k, n, cache=cache) == reference_bordered_count(u, k, n)
    for n in [*range(1, 121), *(m + 1 for m in deep)]:
        assert expected_lso_finite(k, n, cache=cache) == reference_expected_lso(u, k, n)


@pytest.mark.parametrize("k", [1, 2, 3, 10])
def test_pair_identities_at_larger_n(k):
    # M + R is the direct right-border sum, and the borders of vu shorter
    # than n are the right-borders of (u, v): U - M = 2(u_2n + u_n) - k^2n
    cache = CountCache(k)
    u = [unbordered_count(k, m, cache=cache) for m in range(301)]
    for n in range(1, 151):
        mutual, right, neither = pair_row(cache, n)
        assert mutual + right == sum(u[i] * k ** (2 * (n - i)) for i in range(1, n))
        assert neither - mutual == 2 * (u[2 * n] + u[n]) - k ** (2 * n)


def reference_power_sums(u: list[int], k: int, m: int, e: int) -> tuple[int, int]:
    # Horner in base k^e over one u list, plain and weighted by i
    total = weighted = 0
    for i, value in enumerate(u[: m + 1]):
        total = total * k**e + value
        weighted = weighted * k**e + i * value
    return total, weighted


@pytest.mark.parametrize("k", [1, 2, 3, 10, 100])
def test_table_free_power_sums_match_horner(k):
    # up to m = 64 the base loop alone; 65 halves once, 129 and 130 twice,
    # 257 three times, 1000 and 3000 four and six times, and every halving
    # reads u_m as a sum one level down
    cache = CountCache(k)
    u = [cache.unbordered(i) for i in range(3001)]
    for m in (0, 1, 64, 65, 129, 130, 257, 1000, 3000):
        for e in (2, 4):
            assert counting._power_sums(k, m, e) == reference_power_sums(u, k, m, e), (m, e)


def test_partial_sums_fill_no_table(monkeypatch):
    cache = CountCache(3)
    u = [unbordered_count(3, m, cache=cache) for m in range(2001)]
    want_bordered = 3**2000 - u[2000]
    want_mean = Fraction(sum(i * u[i] * 9 ** (999 - i) for i in range(1, 1000)), 9**999)
    calls: list[int] = []
    unbordered = CountCache.unbordered

    def counted(self, n):
        calls.append(n)
        return unbordered(self, n)

    monkeypatch.setattr(CountCache, "unbordered", counted)
    assert bordered_count(3, 2000) == want_bordered
    assert expected_lso_finite(3, 1000) == want_mean
    assert calls == []
    # a cache only fixes k; its table stays at u_0
    cold = CountCache(3)
    assert bordered_count(3, 20000, cache=cold) == bordered_count(3, 20000)
    assert expected_lso_finite(3, 10001, cache=cold) == expected_lso_finite(3, 10001)
    assert len(cold._unbordered) == 1
    with pytest.raises(InvalidInputError):
        bordered_count(2, 10, cache=cold)


def test_single_letter_sums_skip_the_zero_entries():
    # over one letter u_i = 0 past i = 1, so the sums stop there instead
    # of asking for 10^5 entries one at a time
    start = time.perf_counter()
    assert counting._power_sums(1, 10**5, 2) == (2, 1)
    assert bordered_count(1, 2 * 10**5) == 1
    assert expected_lso_finite(1, 10**5 + 1) == 1
    assert time.perf_counter() - start < 0.5


def test_limit_bracket_fills_u_only_to_terms():
    # T's lower end sums u_i * k^(-2i) over i <= terms; taking it as
    # 1 - u_(2 terms) / k^(2 terms) fills u to 2 terms, and the table's
    # bits grow with the square of its length.  At terms = 3000 the real
    # code, which fills no table, peaks at 0.05 MiB, a fill to terms at
    # 1.0 MiB and that shortcut at 3.8 MiB.
    tracemalloc.start()
    try:
        limit_report("M_limit", 3, 3000, 3)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 2 << 20


def test_g_below_twice_t_builds_no_table():
    # n < 2t leaves no room for both ends, so the answer is 0 without a
    # table.  The small case runs first: building a 2t-entry zero prefix
    # peaks at 6.4 MB there, and would need about 16 GB at t = 10^9.
    cache = CountCache(2)
    tracemalloc.start()
    try:
        assert cache.g(200_000, 200_000) == 0
        assert tracemalloc.get_traced_memory()[1] < 1 << 20
        assert cache.g(10**9, 10**9) == 0
        assert cache.g(5, 9) == 0
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20
    assert cache.g(5, 10) == 1


@pytest.mark.parametrize("k", [2, 3])
def test_cache_is_transparent_in_any_fill_order(k):
    want = reference_pair_table(k, 60)
    g_want = {t: reference_g_table(k, t, 60) for t in (1, 2, 5, 9)}

    # g asked past what the pair fill needs, before it starts
    cache = CountCache(k)
    for t in g_want:
        assert cache.g(t, 60) == g_want[t][60]
    assert [pair_row(cache, n) for n in range(60, 0, -1)] == want[::-1]

    # g asked after a partial pair fill, at lengths it has and has not reached
    cache = CountCache(k)
    assert pair_row(cache, 35) == want[34]
    for t in g_want:
        lengths = range(60, t - 1, -1)
        assert [cache.g(t, n) for n in lengths] == [g_want[t][n] for n in lengths]
    assert pair_row(cache, 60) == want[59]
    # g() keeps no table of its own
    assert set(vars(cache)) == {"k", "_lock", "_unbordered", "_mutual"}

    # a warm cache asked in scrambled order answers as a cold one does
    warm = CountCache(k)
    for n in (17, 3, 60, 41, 1, 59, 30):
        assert pair_row(warm, n) == pair_row(CountCache(k), n) == want[n - 1]


def test_shared_cache_across_threads():
    cache = CountCache(2)
    sizes = (80, 57, 71, 64)
    results: dict[int, list] = {}
    errors: list[Exception] = []

    def fill(n_max):
        try:
            results[n_max] = [pair_row(cache, n) for n in range(n_max, 0, -1)]
        except Exception as exc:  # surfaced by the assertion below
            errors.append(exc)

    old_interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=fill, args=(n,)) for n in sizes]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60)
    finally:
        sys.setswitchinterval(old_interval)
    assert not any(thread.is_alive() for thread in threads)
    assert errors == []
    for n_max in sizes:
        cold = CountCache(2)
        assert results[n_max] == [pair_row(cold, n) for n in range(n_max, 0, -1)]


@pytest.mark.parametrize("k", [1, 2, 3, 10])
def test_close_and_far_recurrences_match_direct_sums(k):
    cache = CountCache(k)
    cache.unbordered(300)
    u = cache._unbordered
    # the fill squares u(z) from the same seed, [z^m] u(z)^2 to m = 2, and
    # C(m) = [z^m] (u(z) - 1)^2 = [z^m] u(z)^2 - 2*u_m for m >= 1
    sq = counting._square(k, [1, 2 * k, 3 * k * k - 2 * k], u, 2, 0, 300)
    assert [0] + [sq[m] - 2 * u[m] for m in range(1, 301)] == reference_close_sums(k, 300)
    # the fill builds each S_p with the same step, two lengths at a time
    # from an odd-length seed, and drops it, so an odd end stops one past;
    # g_p is passed only to (n + 1)/2 - p, as far as the step may read
    for p in range(1, 21):
        want = reference_g_squares(k, p, 200)
        for n in (200, 199):
            g = reference_g_table(k, p, 200)[: (n - p + 1) // 2 + 1]
            assert counting._square(k, [0] * (4 * p) + [1], g, 1, p, n) == want


@pytest.mark.parametrize("k,n_max", [(2, 400), (3, 200), (1, 80), (10, 80)])
def test_pair_rows_match_convolutions(k, n_max):
    cache = CountCache(k)
    assert [pair_row(cache, n) for n in range(1, n_max + 1)] == reference_convolution_table(
        k, n_max
    )


# where a fill to 80 stops: extending the u table, which outlives the fill,
# or building u(z)^2, before any row is built; building S_1, the first far
# sum after the close rows; S_10, a middle one; S_26, the last.  The warm
# cases fill to 40 first, so the interrupted fill takes every seed from
# published rows.
@pytest.mark.parametrize(
    "warm,where",
    [(0, "u"), (0, "close"), (40, "close"), (0, 1), (0, 10), (0, 26), (40, 10)],
    ids=["unbordered", "close", "warm-close", "first-far", "far", "last-far", "warm"],
)
@pytest.mark.parametrize("when", ["before", "after"])
def test_interrupted_fill_finishes_like_a_cold_one(monkeypatch, warm, where, when):
    cache, cold = CountCache(2), CountCache(2)
    if warm:
        cache.mutually_bordered(warm)
    name = "_nielsen" if where == "u" else "_square"
    step = getattr(counting, name)

    def interrupted(k, first, *rest):
        if where == "u":
            hit = first is cache._unbordered
        elif where == "close":
            # the close square is the one with c = 2, r = 0
            hit = rest[1:3] == (2, 0)
        else:
            # the far sum S_p is the square with shift r = p
            hit = rest[2] == where
        if hit and when == "before":
            raise KeyboardInterrupt
        result = step(k, first, *rest)
        if hit:
            raise KeyboardInterrupt
        return result

    monkeypatch.setattr(counting, name, interrupted)
    with pytest.raises(KeyboardInterrupt):
        cache.mutually_bordered(80)
    monkeypatch.undo()
    # no partial rows: the fill published none of its 80, and the rows
    # published before it still answer without a refill
    head = range(1, warm + 1)
    assert [pair_row(cache, n) for n in head] == [pair_row(cold, n) for n in head]
    assert len(cache._mutual) - 1 == warm
    # nothing but u and the published rows outlives a fill
    assert set(vars(cache)) == {"k", "_lock", "_unbordered", "_mutual"}
    assert [pair_row(cache, n) for n in range(1, 81)] == [pair_row(cold, n) for n in range(1, 81)]
    for t in (1, 10, 26):
        assert [cache.g(t, n) for n in range(t, 81)] == [cold.g(t, n) for n in range(t, 81)]


def test_pair_fill_holds_g_tables_only_to_half_length():
    # row j reads g_p only up to (j - p)/2, and no g_p or S_p list outlives
    # its own p, so the fill to 400 peaks at 0.2 MiB
    tracemalloc.start()
    try:
        CountCache(2).mutually_bordered(400)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 4 << 20


def test_pair_fill_holds_one_far_sum_at_a_time():
    # each S_p is built, added into every row it reaches and dropped; one
    # S_p list per p alive at once peaks at 11.5 MiB here, the p-by-p fill
    # at 0.6 MiB
    tracemalloc.start()
    try:
        CountCache(2).mutually_bordered(800)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 2 << 20


@functools.cache
def convolution_rows(k: int, n_max: int) -> tuple[tuple[int, int, int], ...]:
    return tuple(reference_convolution_table(k, n_max))


@pytest.mark.parametrize("order", ["ascending", "descending", "shuffled", "extended"])
@pytest.mark.parametrize("k", [1, 2, 3, 10])
def test_rows_equal_convolutions_in_any_request_order(k, order):
    want = convolution_rows(k, 120)
    lengths = list(range(1, 121))
    if order == "descending":
        lengths.reverse()
    elif order == "shuffled":
        random.Random(k).shuffle(lengths)
    elif order == "extended":
        # a fill to 50; 51 grows it by half again, to 75; 120 goes past that
        lengths = [50, 51, 120, *lengths]
    cache = CountCache(k)
    got = {n: pair_row(cache, n) for n in lengths}
    assert tuple(got[n] for n in range(1, 121)) == want


@pytest.mark.parametrize("quantities,fills", [("M,R,U,u", [130]), ("u", [])])
def test_count_runs_one_pair_fill(monkeypatch, capsys, quantities, fills):
    seen: list[int] = []
    ensure = CountCache._ensure_pairs_locked

    def counted(self, n):
        if n > len(self._mutual) - 1:
            seen.append(n)
        return ensure(self, n)

    monkeypatch.setattr(CountCache, "_ensure_pairs_locked", counted)
    assert main(["count", "--k", "2", "--n", "130", "--quantities", quantities]) == 0
    assert seen == fills
    assert len(capsys.readouterr().out.splitlines()) > 130
