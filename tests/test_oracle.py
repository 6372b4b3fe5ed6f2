"""Brute-force enumerations, structural verifiers, and extremal pairs.

The reference_* functions below are the per-pair loops the bitset
enumerators replaced: each pair is walked on its own and its overlap
lengths come from the KMP helper in wordcore.  The bitset versions must
return exactly what they return.
"""

from itertools import product

import pytest

from overlap_lab import (
    BudgetExceededError,
    CountCache,
    InvalidInputError,
    census_by_lso,
    ensure_within_budget,
    enumerate_pair_census,
    extremal_pair,
    max_overlap_sum,
    mutually_bordered_count,
    mutually_unbordered_count,
    overlap_profile,
    right_bordered_count,
    s_count,
    verify_decomposition,
    verify_shortest_unbordered,
)
from overlap_lab import oracle
from overlap_lab.oracle import PairCensus, ViolationReport, _shortest_overlap
from overlap_lab.wordcore import Alphabet, Word, _overlap_lengths


def reference_pair_census(k, m, n):
    mutual = right = left = neither = 0
    inner = list(product(range(k), repeat=n))
    for u in product(range(k), repeat=m):
        for v in inner:
            has_right = bool(_overlap_lengths(u, v, k))
            has_left = bool(_overlap_lengths(v, u, k))
            if has_right:
                if has_left:
                    mutual += 1
                else:
                    right += 1
            elif has_left:
                left += 1
            else:
                neither += 1
    return PairCensus(
        k=k,
        m=m,
        n=n,
        mutually_bordered=mutual,
        right_bordered=right,
        left_bordered=left,
        mutually_unbordered=neither,
    )


def reference_verify_shortest_unbordered(k, n, violation_cap=16):
    alphabet = Alphabet(k)
    words = list(product(range(k), repeat=n))
    is_unb = oracle._unbordered_checker()
    violations = []
    checked = 0
    for u in words:
        for v in words:
            checked += 1
            lengths = _overlap_lengths(u, v, k)
            if not lengths:
                continue
            shortest = lengths[0]
            for l in lengths:
                if (l == shortest) == is_unb(v[:l]):
                    continue
                if len(violations) < violation_cap:
                    side = (
                        "shortest overlap is bordered"
                        if l == shortest
                        else "longer overlap is unbordered"
                    )
                    violations.append(
                        (Word(u, alphabet), Word(v, alphabet), f"{side} at length {l}")
                    )
    return ViolationReport(checked=checked, violations=tuple(violations))


def reference_verify_decomposition(k, n, violation_cap=16):
    alphabet = Alphabet(k)
    words = list(product(range(k), repeat=n))
    is_unb = oracle._unbordered_checker()
    bound = 4 * n // 3
    violations = []
    checked = 0

    def record(u, v, reason):
        if len(violations) < violation_cap:
            violations.append((Word(u, alphabet), Word(v, alphabet), reason))

    for u in words:
        for v in words:
            checked += 1
            right = _overlap_lengths(u, v, k)
            if not right:
                continue
            left = _overlap_lengths(v, u, k)
            if not left:
                continue
            i = right[0]
            j = left[0]
            if u[n - i :] != v[:i]:
                record(u, v, f"length-{i} right-border does not match")
                continue
            if u[:j] != v[n - j :]:
                record(u, v, f"length-{j} left-border does not match")
                continue
            if i + j <= n:
                if not is_unb(v[:i]):
                    record(u, v, f"disjoint case: so(u,v) of length {i} is bordered")
                if not is_unb(u[:j]):
                    record(u, v, f"disjoint case: so(v,u) of length {j} is bordered")
                continue
            if i + j > bound:
                record(u, v, f"overlap sum {i + j} exceeds floor(4n/3) = {bound}")
                continue
            p = i + j - n
            if i < 2 * p or j < 2 * p:
                record(u, v, f"interleaved case: ends of length {p} collide")
                continue
            x = u[:p]
            y = v[:p]
            s = u[p : j - p]
            t = u[j : n - p]
            shape_ok = (
                u == x + s + y + t + x
                and v == y + t + x + s + y
                and x != y
                and _shortest_overlap(x, y) == 0
                and _shortest_overlap(y, x) == 0
                and is_unb(x + s + y)
                and is_unb(y + t + x)
            )
            if not shape_ok:
                record(u, v, f"interleaved factorization failed for i={i}, j={j}")
    return ViolationReport(checked=checked, violations=tuple(violations))


def reference_max_overlap_sum(k, n):
    words = list(product(range(k), repeat=n))
    best = 0
    for a, u in enumerate(words):
        for b in range(a, len(words)):
            v = words[b]
            total = _shortest_overlap(u, v) + _shortest_overlap(v, u)
            if total > best:
                best = total
    return best


def reference_census_by_lso(k, n):
    words = list(product(range(k), repeat=n))
    histogram = {i: 0 for i in range(n)}
    for u in words:
        for v in words:
            histogram[_shortest_overlap(u, v)] += 1
    return histogram


# (k, largest length): k=2 covers every m != n up to 7
REFERENCE_GRID = [(1, 6), (2, 7), (3, 4), (4, 3)]


@pytest.mark.parametrize("k,top", REFERENCE_GRID)
def test_census_equals_reference(k, top):
    for m in range(1, top + 1):
        for n in range(1, top + 1):
            assert enumerate_pair_census(k, m, n) == reference_pair_census(k, m, n)


@pytest.mark.parametrize("k,top", REFERENCE_GRID + [(2, 8), (3, 5), (4, 4)])
def test_square_enumerators_equal_reference(k, top):
    for n in range(1, top + 1):
        assert census_by_lso(k, n) == reference_census_by_lso(k, n)
        assert max_overlap_sum(k, n) == reference_max_overlap_sum(k, n)
        assert verify_shortest_unbordered(k, n) == reference_verify_shortest_unbordered(k, n)
        assert verify_decomposition(k, n) == reference_verify_decomposition(k, n)


_real_unbordered_checker = oracle._unbordered_checker


def bordered_at_three():
    """A border test that calls every length-3 word bordered."""
    honest = _real_unbordered_checker()
    return lambda w: len(w) != 3 and honest(w)


def never_bordered():
    """A border test that calls every word unbordered."""
    return lambda w: True


VIOLATION_CASES = [
    (k, n, liar, cap)
    for k, n in [(2, 5), (2, 6), (3, 4)]
    for liar in [bordered_at_three, never_bordered]
    for cap in [16, 3, 10**6]
] + [(3, 5, bordered_at_three, 5), (3, 5, bordered_at_three, 10**6)]


@pytest.mark.parametrize("k,n,liar,cap", VIOLATION_CASES)
def test_violation_reports_equal_reference(monkeypatch, k, n, liar, cap):
    monkeypatch.setattr(oracle, "_unbordered_checker", liar)
    found = 0
    for verify, reference in [
        (verify_shortest_unbordered, reference_verify_shortest_unbordered),
        (verify_decomposition, reference_verify_decomposition),
    ]:
        want = reference(k, n, violation_cap=cap)
        found += len(want.violations)
        assert verify(k, n, violation_cap=cap) == want
    assert found >= min(cap, 16)


def test_census_example():
    census = enumerate_pair_census(2, 3, 4)
    assert census.mutually_bordered == 50
    assert census.right_bordered == 30
    assert census.left_bordered == 30
    assert census.mutually_unbordered == 18
    assert (
        census.mutually_bordered
        + census.right_bordered
        + census.left_bordered
        + census.mutually_unbordered
    ) == 2**7


def test_census_smallest():
    census = enumerate_pair_census(2, 1, 1)
    assert census.mutually_unbordered == 4
    assert census.mutually_bordered == 0
    assert census.right_bordered == 0
    assert census.left_bordered == 0


def test_census_sums_to_all_pairs():
    for k, m, n in [(2, 2, 5), (3, 2, 3), (2, 4, 4), (4, 1, 2)]:
        census = enumerate_pair_census(k, m, n)
        assert (
        census.mutually_bordered
        + census.right_bordered
        + census.left_bordered
        + census.mutually_unbordered
    ) == k ** (m + n)


def test_census_swap_symmetry():
    a = enumerate_pair_census(2, 3, 5)
    b = enumerate_pair_census(2, 5, 3)
    assert a.mutually_bordered == b.mutually_bordered
    assert a.right_bordered == b.left_bordered
    assert a.left_bordered == b.right_bordered
    assert a.mutually_unbordered == b.mutually_unbordered


def test_census_diagonal_matches_recurrences():
    cache = CountCache(2)
    for n in range(1, 7):
        census = enumerate_pair_census(2, n, n)
        assert census.mutually_bordered == mutually_bordered_count(2, n, cache=cache)
        assert census.right_bordered == right_bordered_count(2, n, cache=cache)
        assert census.mutually_unbordered == mutually_unbordered_count(
            2, n, cache=cache
        )


def test_budget_refusal():
    with pytest.raises(BudgetExceededError) as err:
        ensure_within_budget(2**60)
    assert err.value.pair_count == 2**60
    assert err.value.budget == 2**34
    with pytest.raises(BudgetExceededError):
        enumerate_pair_census(2, 3, 3, budget=63)
    # exactly at the budget is allowed
    ensure_within_budget(100, 100)


def test_budget_message_names_both_numbers():
    with pytest.raises(BudgetExceededError) as err:
        census_by_lso(2, 10, budget=1000)
    assert "1048576" in str(err.value)
    assert "1000" in str(err.value)


@pytest.mark.parametrize("k,n", [(2, 1), (2, 5), (2, 9), (3, 3), (4, 2)])
def test_shortest_unbordered_verifier_finds_nothing(k, n):
    report = verify_shortest_unbordered(k, n)
    assert report.checked == k ** (2 * n)
    assert report.violations == ()


@pytest.mark.parametrize("k,n", [(2, 1), (2, 6), (2, 9), (2, 12), (3, 3), (4, 2)])
def test_decomposition_verifier_finds_nothing(k, n):
    report = verify_decomposition(k, n)
    assert report.checked == k ** (2 * n)
    assert report.violations == ()


def test_max_overlap_sum_examples():
    assert max_overlap_sum(2, 1) == 0
    assert max_overlap_sum(2, 2) == 2
    assert max_overlap_sum(2, 3) == 4
    assert max_overlap_sum(2, 4) == 5


def test_max_overlap_sum_respects_four_thirds():
    for n in range(1, 9):
        observed = max_overlap_sum(2, n)
        assert observed <= 4 * n // 3
        if n >= 3:
            # the bound is tight from length 3 on
            assert observed == 4 * n // 3


def test_census_by_lso_examples():
    assert census_by_lso(2, 1) == {0: 4}
    assert census_by_lso(2, 2) == {0: 8, 1: 8}
    assert census_by_lso(2, 3) == {0: 24, 1: 32, 2: 8}


def test_census_by_lso_matches_recurrence():
    cache = CountCache(2)
    for n in range(1, 8):
        histogram = census_by_lso(2, n)
        assert set(histogram) == set(range(n))
        assert sum(histogram.values()) == 2 ** (2 * n)
        for i in range(1, n):
            assert histogram[i] == s_count(2, i, n, cache=cache)


def test_extremal_pair_examples():
    u3, v3 = extremal_pair(3)
    assert (u3.symbols, v3.symbols) == ((0, 1, 0), (1, 0, 1))
    u4, v4 = extremal_pair(4)
    assert (u4.symbols, v4.symbols) == ((0, 1, 1, 0), (1, 1, 0, 1))
    u5, v5 = extremal_pair(5)
    assert (u5.symbols, v5.symbols) == ((0, 1, 1, 1, 0), (1, 1, 1, 0, 1))


def test_extremal_pair_reaches_bound_far_beyond_enumeration():
    for n in range(3, 61):
        u, v = extremal_pair(n)
        assert len(u) == len(v) == n
        profile = overlap_profile(u, v)
        assert profile.lso_uv + profile.lso_vu == 4 * n // 3


def test_extremal_pair_matches_exhaustive_maximum():
    for n in range(3, 9):
        u, v = extremal_pair(n)
        profile = overlap_profile(u, v)
        assert profile.lso_uv + profile.lso_vu == max_overlap_sum(2, n)


def test_extremal_pair_needs_three_letters():
    with pytest.raises(InvalidInputError):
        extremal_pair(2)
    with pytest.raises(InvalidInputError):
        extremal_pair(0)


def test_invalid_enumeration_inputs():
    with pytest.raises(InvalidInputError):
        enumerate_pair_census(0, 2, 2)
    with pytest.raises(InvalidInputError):
        enumerate_pair_census(2, 0, 2)
    with pytest.raises(InvalidInputError):
        max_overlap_sum(2, 0)
    with pytest.raises(InvalidInputError):
        census_by_lso(2, -1)


@pytest.mark.parametrize("k,top", [(2, 14), (3, 8), (4, 6)])
def test_recurrences_match_enumeration_at_larger_sizes(k, top):
    cache = CountCache(k)
    for n in range(1, top + 1):
        census = enumerate_pair_census(k, n, n)
        assert census.mutually_bordered == mutually_bordered_count(k, n, cache=cache)
        assert census.right_bordered == right_bordered_count(k, n, cache=cache)
        assert census.left_bordered == census.right_bordered
        assert census.mutually_unbordered == mutually_unbordered_count(k, n, cache=cache)
        histogram = census_by_lso(k, n)
        for i in range(1, n):
            assert histogram[i] == s_count(k, i, n, cache=cache)
        assert histogram[0] == k ** (2 * n) - sum(s_count(k, i, n, cache=cache) for i in range(1, n))


def test_four_thirds_bound_is_tight_to_twelve():
    for n in range(1, 13):
        observed = max_overlap_sum(2, n)
        assert observed == (4 * n // 3 if n >= 3 else max(0, 2 * n - 2))
