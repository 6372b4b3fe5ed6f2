"""Entry refusals: every bad size is refused before any work, word for word.

The oracle enumerators classify all k^(m+n) pairs, so each refuses a bad
alphabet size, a bad length or an over-budget pair count before it starts.
When an argument list has several faults, the first is reported in the
order k, n, m, budget.  The count functions refuse a length below 1, after
k and the cache, and oracle --checks refuses on the largest enumeration it
was asked for.  Each command's own size checks exit 2 with one stderr line.
"""

import pytest

from overlap_lab import (
    BudgetExceededError,
    CountCache,
    InvalidInputError,
    bordered_count,
    census_by_lso,
    enumerate_pair_census,
    expected_lso_finite,
    limit_report,
    max_overlap_sum,
    mutually_bordered_count,
    mutually_unbordered_count,
    right_bordered_count,
    s_count,
    unbordered_count,
    verify_decomposition,
    verify_shortest_unbordered,
)
from overlap_lab import cli
from overlap_lab.cli import BUDGET_ENV_VAR, EXIT_BUDGET, EXIT_USAGE, main


def census(k, n, m=2, **kw):
    return enumerate_pair_census(k, m, n, **kw)


ENUMERATORS = [
    census,
    verify_shortest_unbordered,
    verify_decomposition,
    max_overlap_sum,
    census_by_lso,
]

LENGTH = "length must be at least 1, got 0"
BUDGET = "enumeration would visit 16 pairs, over the budget of 1"

# (args, keywords, error type, message); the last three have two faults
ORACLE_CASES = [
    ((2, 0), {}, InvalidInputError, LENGTH),
    ((0, 2), {}, InvalidInputError, "alphabet size must be at least 1, got 0"),
    ((2.0, 2), {}, InvalidInputError, "alphabet size must be an integer, got 2.0"),
    ((2, 2), {"budget": 1}, BudgetExceededError, BUDGET),
    ((0, 0), {}, InvalidInputError, "alphabet size must be at least 1, got 0"),
    ((2.0, 0), {}, InvalidInputError, "alphabet size must be an integer, got 2.0"),
    ((2, 0), {"budget": 1}, InvalidInputError, LENGTH),
]

# the census alone takes m, checked after n and before the budget
CENSUS_CASES = [
    ((2, 2, 0), {}, InvalidInputError, LENGTH),
    ((2, 0, -1), {}, InvalidInputError, LENGTH),
    ((2, 2, 0), {"budget": 1}, InvalidInputError, LENGTH),
    ((2, 2, -1), {}, InvalidInputError, "length must be at least 1, got -1"),
]


def assert_refused(call, args, kw, error, message):
    with pytest.raises(error) as err:
        call(*args, **kw)
    assert str(err.value) == message


@pytest.mark.parametrize("args,kw,error,message", ORACLE_CASES)
@pytest.mark.parametrize("enumerate_", ENUMERATORS, ids=lambda f: f.__name__)
def test_oracle_enumerators_refuse_in_order(enumerate_, args, kw, error, message):
    assert_refused(enumerate_, args, kw, error, message)


@pytest.mark.parametrize("args,kw,error,message", CENSUS_CASES)
def test_census_checks_m_after_n_and_before_the_budget(args, kw, error, message):
    assert_refused(census, args, kw, error, message)


COUNTS = [
    bordered_count,
    mutually_bordered_count,
    right_bordered_count,
    mutually_unbordered_count,
    lambda k, n, **kw: s_count(k, 1, n, **kw),
    expected_lso_finite,
]


@pytest.mark.parametrize("n", [0, -1])
@pytest.mark.parametrize("warm", [False, True])
@pytest.mark.parametrize("count", COUNTS)
def test_counts_refuse_lengths_below_one(count, warm, n):
    # a warm cache has rows filled past n, and still refuses
    cache = CountCache(2)
    if warm:
        cache.mutually_bordered(10)
    message = f"length must be at least 1, got {n}"
    assert_refused(count, (2, n), {"cache": cache}, InvalidInputError, message)


# each count with the shortest length it refuses; unbordered_count takes
# the empty word, so its first bad length is -1
LOWEST_BAD_LENGTH = [(count, 0) for count in COUNTS] + [(unbordered_count, -1)]
COUNT_IDS = [
    "bordered_count",
    "mutually_bordered_count",
    "right_bordered_count",
    "mutually_unbordered_count",
    "s_count",
    "expected_lso_finite",
    "unbordered_count",
]


@pytest.mark.parametrize("count,n", LOWEST_BAD_LENGTH, ids=COUNT_IDS)
def test_counts_report_k_before_n(count, n):
    message = "alphabet size must be at least 1, got 0"
    assert_refused(count, (0, n), {}, InvalidInputError, message)


@pytest.mark.parametrize("count,n", LOWEST_BAD_LENGTH, ids=COUNT_IDS)
def test_counts_report_a_mismatched_cache_before_n(count, n):
    message = "cache was built for k=2, called with k=3"
    assert_refused(count, (3, n), {"cache": CountCache(2)}, InvalidInputError, message)


def test_unbordered_count_takes_the_empty_word():
    assert unbordered_count(2, 0) == 1
    message = "length must be non-negative, got -1"
    assert_refused(unbordered_count, (2, -1), {}, InvalidInputError, message)


@pytest.mark.parametrize(
    "argv,pairs",
    [
        # the square check's 2^40 pairs outweigh the census's 2^22
        (["--m", "2", "--n", "20", "--checks", "census,fourthirds"], 2**40),
        # the census's 2^43 pairs outweigh the square check's 2^6
        (["--m", "40", "--n", "3", "--checks", "census,lemmas"], 2**43),
    ],
)
def test_oracle_command_refuses_on_its_largest_check(capsys, monkeypatch, argv, pairs):
    # the refusal comes before any enumeration, so a wrong size cannot
    # start one of these 2^40-pair loops
    def enumerated(*args, **kw):
        raise AssertionError("enumerated before the up-front refusal")

    for enumerator in ENUMERATORS[1:] + [enumerate_pair_census]:
        monkeypatch.setattr(cli, enumerator.__name__, enumerated)
    code = main(["oracle", "--k", "2", *argv])
    captured = capsys.readouterr()
    assert code == EXIT_BUDGET
    assert captured.out == ""
    assert captured.err == (
        f"error: enumeration would visit {pairs} pairs, over the budget of {2**34}\n"
    )


@pytest.mark.parametrize(
    "argv,message",
    [
        (["oracle", "--k", "0", "--n", "2"], "--k must be at least 1, got 0"),
        (["oracle", "--k", "2", "--n", "0"], "--n must be at least 1, got 0"),
        (["oracle", "--k", "2", "--n", "2", "--m", "0"], "--m must be at least 1, got 0"),
        (["oracle", "--k", "0", "--n", "0"], "--k must be at least 1, got 0"),
        (["count", "--k", "2", "--n", "0"], "--n must be at least 1, got 0"),
        (["count", "--k", "0", "--n", "0"], "alphabet size must be at least 1, got 0"),
        (["limits", "--k", "2", "--terms", "0"], "--terms must be at least 1, got 0"),
        (["limits", "--k", "2", "--precision", "-1"], "--precision must be non-negative, got -1"),
    ],
)
def test_commands_refuse_bad_sizes_k_first(capsys, argv, message):
    code = main(argv)
    captured = capsys.readouterr()
    assert code == EXIT_USAGE == 2
    assert captured.out == ""
    assert captured.err == f"error: {message}\n"


def test_oracle_refuses_a_budget_below_one(capsys, monkeypatch):
    monkeypatch.setenv(BUDGET_ENV_VAR, "0")
    code = main(["oracle", "--k", "2", "--n", "2"])
    captured = capsys.readouterr()
    assert code == EXIT_USAGE
    assert captured.out == ""
    assert captured.err == "error: OVERLAP_LAB_BUDGET must be positive, got 0\n"


def test_limit_report_refuses_a_negative_precision():
    message = "precision must be non-negative, got -1"
    assert_refused(limit_report, ("M_limit", 2, 40, -1), {}, InvalidInputError, message)
