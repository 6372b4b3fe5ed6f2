"""Word-level border and overlap operations against naive references."""

import itertools

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from overlap_lab import (
    QUANTITIES,
    Alphabet,
    BudgetExceededError,
    CountCache,
    InvalidInputError,
    PairClass,
    Word,
    census_by_lso,
    enumerate_pair_census,
    limit_report,
    max_overlap_sum,
    mutually_bordered_count,
    overlap_profile,
    verify_decomposition,
    verify_shortest_unbordered,
)

BINARY = Alphabet(2)
LETTERS = Alphabet(26)


def bits(text: str) -> Word:
    return Word(tuple(int(c) for c in text), BINARY)


def latin(text: str) -> Word:
    return Word(tuple(ord(c) - ord("a") for c in text), LETTERS)


def naive_border_lengths(symbols: tuple[int, ...]) -> list[int]:
    n = len(symbols)
    return [l for l in range(1, n) if symbols[:l] == symbols[n - l :]]


def naive_right_border_lengths(
    u: tuple[int, ...], v: tuple[int, ...]
) -> list[int]:
    top = min(len(u), len(v))
    return [l for l in range(1, top) if u[len(u) - l :] == v[:l]]


def all_words(k: int, n: int):
    return itertools.product(range(k), repeat=n)


def test_border_lengths_examples():
    # the borders of w are the right-borders of (w, w)
    for word, want in [
        (latin("entente"), (1, 4)),
        (bits("0101"), (2,)),
        (bits("000"), (1, 2)),
        (bits("01"), ()),
    ]:
        assert overlap_profile(word, word).right_border_lengths == want


def test_right_border_lengths_examples():
    assert overlap_profile(bits("1000101"), bits("0110001")).right_border_lengths == (2,)
    assert overlap_profile(bits("0110001"), bits("1000101")).right_border_lengths == (1, 5)


def test_classify_examples():
    for u, v, want in [
        ("delivered", "redeliver", PairClass.MUTUALLY_BORDERED),
        ("mail", "box", PairClass.MUTUALLY_UNBORDERED),
        ("overlap", "lapse", PairClass.RIGHT_BORDERED),
        ("lapse", "overlap", PairClass.LEFT_BORDERED),
    ]:
        assert overlap_profile(latin(u), latin(v)).pair_class is want


def test_overlap_profile_example():
    profile = overlap_profile(bits("010"), bits("101"))
    assert profile.lso_uv == 2
    assert profile.lso_vu == 2
    assert profile.so_uv.symbols == (1, 0)
    assert profile.so_vu.symbols == (0, 1)
    assert profile.pair_class is PairClass.MUTUALLY_BORDERED


def test_shortest_right_border_examples():
    got = overlap_profile(bits("00"), bits("00")).so_uv
    assert got is not None and got.symbols == (0,)
    assert overlap_profile(bits("0"), bits("1")).so_uv is None


def test_unbordered_examples():
    for text, unbordered in [("01", True), ("0011", True), ("010", False), ("0", True)]:
        word = bits(text)
        assert (not overlap_profile(word, word).right_border_lengths) is unbordered


@pytest.mark.parametrize("n", range(1, 9))
def test_border_lengths_match_naive_exhaustive(n):
    for symbols in all_words(2, n):
        word = Word(symbols, BINARY)
        assert list(overlap_profile(word, word).right_border_lengths) == naive_border_lengths(
            symbols
        )


@pytest.mark.parametrize("m,n", list(itertools.product(range(1, 6), range(1, 6))))
def test_right_border_lengths_match_naive_exhaustive(m, n):
    for u_syms in all_words(2, m):
        u = Word(u_syms, BINARY)
        for v_syms in all_words(2, n):
            profile = overlap_profile(u, Word(v_syms, BINARY))
            assert list(profile.right_border_lengths) == naive_right_border_lengths(
                u_syms, v_syms
            )
            assert list(profile.left_border_lengths) == naive_right_border_lengths(
                v_syms, u_syms
            )


def words(k: int, max_len: int):
    alphabet = Alphabet(k)
    return st.lists(
        st.integers(0, k - 1), min_size=1, max_size=max_len
    ).map(lambda syms: Word(tuple(syms), alphabet))


@given(words(3, 14))
def test_border_lengths_match_naive(w):
    assert list(overlap_profile(w, w).right_border_lengths) == naive_border_lengths(w.symbols)


@given(words(3, 14), words(3, 14))
def test_right_border_lengths_match_naive(u, v):
    assert list(overlap_profile(u, v).right_border_lengths) == naive_right_border_lengths(
        u.symbols, v.symbols
    )


@given(words(3, 14), words(3, 14))
def test_left_is_right_swapped(u, v):
    assert overlap_profile(u, v).left_border_lengths == overlap_profile(v, u).right_border_lengths


@given(words(3, 14), words(3, 14))
def test_overlap_lengths_proper_on_both_sides(u, v):
    # each overlap must be shorter than both words, never merely than one
    for l in overlap_profile(u, v).right_border_lengths:
        assert 0 < l < len(u)
        assert l < len(v)


@given(words(3, 14), words(3, 14))
def test_shortest_overlap_is_unbordered(u, v):
    # the shortest suffix-prefix word has no border; longer ones all do
    lengths = overlap_profile(u, v).right_border_lengths
    for index, l in enumerate(lengths):
        assert (not naive_border_lengths(v.symbols[:l])) == (index == 0)


# the four classes by (has a right-border, has a left-border)
NAIVE_CLASS = {
    (True, True): PairClass.MUTUALLY_BORDERED,
    (True, False): PairClass.RIGHT_BORDERED,
    (False, True): PairClass.LEFT_BORDERED,
    (False, False): PairClass.MUTUALLY_UNBORDERED,
}


@given(words(3, 14), words(3, 14))
def test_profile_is_consistent(u, v):
    profile = overlap_profile(u, v)
    rights = naive_right_border_lengths(u.symbols, v.symbols)
    lefts = naive_right_border_lengths(v.symbols, u.symbols)
    assert list(profile.right_border_lengths) == rights
    assert list(profile.left_border_lengths) == lefts
    assert profile.lso_uv == (rights[0] if rights else 0)
    assert profile.lso_vu == (lefts[0] if lefts else 0)
    if rights:
        assert profile.so_uv == Word(v.symbols[: rights[0]], v.alphabet)
    else:
        assert profile.so_uv is None
    if lefts:
        assert profile.so_vu == Word(u.symbols[: lefts[0]], u.alphabet)
    else:
        assert profile.so_vu is None
    assert profile.pair_class is NAIVE_CLASS[bool(rights), bool(lefts)]


@given(words(3, 10))
def test_self_pair_borders_are_word_borders(w):
    # overlaps of a word with itself are exactly its borders, both ways
    profile = overlap_profile(w, w)
    assert list(profile.right_border_lengths) == naive_border_lengths(w.symbols)
    assert profile.left_border_lengths == profile.right_border_lengths
    assert profile.so_uv == profile.so_vu


def test_classify_covers_all_four_cases():
    expected = {
        ("00", "00"): PairClass.MUTUALLY_BORDERED,
        ("01", "10"): PairClass.MUTUALLY_BORDERED,
        ("00", "01"): PairClass.RIGHT_BORDERED,
        ("01", "00"): PairClass.LEFT_BORDERED,
        ("01", "01"): PairClass.MUTUALLY_UNBORDERED,
    }
    for (a, b), want in expected.items():
        assert overlap_profile(bits(a), bits(b)).pair_class is want


@settings(deadline=None)
@given(st.integers(2, 4), st.data())
def test_single_letter_words(k, data):
    alphabet = Alphabet(k)
    a = data.draw(st.integers(0, k - 1))
    b = data.draw(st.integers(0, k - 1))
    profile = overlap_profile(Word((a,), alphabet), Word((b,), alphabet))
    # length-1 words admit no proper overlap at all
    assert profile.right_border_lengths == ()
    assert profile.pair_class is PairClass.MUTUALLY_UNBORDERED


def test_word_validation():
    with pytest.raises(InvalidInputError):
        Word((0, 2), BINARY)
    with pytest.raises(InvalidInputError):
        Word((-1,), BINARY)
    with pytest.raises(InvalidInputError):
        Alphabet(0)


@pytest.mark.parametrize(
    "call",
    [
        lambda: Alphabet(2.0),
        lambda: CountCache(2.0),
        lambda: mutually_bordered_count(2.0, 40),
        lambda: enumerate_pair_census(2.0, 2, 2),
        lambda: limit_report("M_limit", 2.0, 10, 3),
    ],
    ids=[
        "Alphabet",
        "CountCache",
        "mutually_bordered_count",
        "enumerate_pair_census",
        "limit_report",
    ],
)
def test_non_integer_alphabet_size_is_refused(call):
    # every layer that takes k checks it through Alphabet, so a float that
    # equals an integer is refused rather than carried into the counts
    with pytest.raises(InvalidInputError, match="alphabet size must be an integer, got 2.0"):
        call()


def test_word_stores_any_sequence_as_a_tuple():
    word = Word([0, 1], BINARY)
    assert word.symbols == (0, 1)
    assert type(word.symbols) is tuple
    assert word == Word((0, 1), BINARY)


def test_alphabet_stores_a_plain_int():
    assert type(Alphabet(True).k) is int
    assert type(CountCache(True).k) is int


def wrap8(value: int) -> "Int8":
    return Int8((value + 128) % 256 - 128)


class Int8(int):
    """An 8-bit integer type: arithmetic wraps, as with numpy.int8."""

    def __add__(self, other):
        return wrap8(int(self) + other)

    def __sub__(self, other):
        return wrap8(int(self) - other)

    def __rsub__(self, other):
        return wrap8(other - int(self))

    def __mul__(self, other):
        return wrap8(int(self) * other)

    def __pow__(self, other):
        return wrap8(int(self) ** other)

    __radd__, __rmul__ = __add__, __mul__


def test_fixed_width_alphabet_size_does_not_wrap():
    # Int8(2) ** 8 is 0, so a layer that computed with the caller's k
    # would pass the budget and miscount the pairs, and divide by zero
    # in the limit denominator 2^(2*terms)
    k = Int8(2)
    assert k**8 == 0
    with pytest.raises(BudgetExceededError):
        enumerate_pair_census(k, 4, 4, budget=255)
    assert enumerate_pair_census(k, 4, 4) == enumerate_pair_census(2, 4, 4)
    for check in (verify_shortest_unbordered, verify_decomposition):
        assert check(k, 4) == check(2, 4)
    assert max_overlap_sum(k, 6) == max_overlap_sum(2, 6)
    assert census_by_lso(k, 5) == census_by_lso(2, 5)
    for quantity in QUANTITIES:
        report = limit_report(quantity, k, 40, 5)
        assert report == limit_report(quantity, 2, 40, 5)
        assert type(report.k) is int


@pytest.mark.parametrize(
    "symbols, message",
    [
        ((0,) * 99_999 + (2,), "symbol 2 at position 99999 is outside the alphabet 0..1"),
        ((1,) * 99_999 + (-1,), "symbol -1 at position 99999 is outside the alphabet 0..1"),
        ((0, 5, -1), "symbol 5 at position 1 is outside the alphabet 0..1"),
        ((0, -1, 5), "symbol -1 at position 1 is outside the alphabet 0..1"),
    ],
    ids=["last-too-big", "last-negative", "big-first", "negative-first"],
)
def test_word_validation_names_the_first_bad_position(symbols, message):
    with pytest.raises(InvalidInputError) as info:
        Word(symbols, BINARY)
    assert str(info.value) == message


def reference_validation_message(symbols: tuple[int, ...], k: int) -> str | None:
    """Word's check as a per-position scan."""
    for pos, sym in enumerate(symbols):
        if not 0 <= sym < k:
            return f"symbol {sym} at position {pos} is outside the alphabet 0..{k - 1}"
    return None


@given(st.integers(1, 5), st.lists(st.integers(-3, 7), max_size=12))
def test_word_validation_matches_the_reference_scan(k, symbols):
    try:
        Word(tuple(symbols), Alphabet(k))
        message = None
    except InvalidInputError as exc:
        message = str(exc)
    assert message == reference_validation_message(tuple(symbols), k)


def test_empty_word_rejected_by_operations():
    empty = Word((), BINARY)
    for u, v in [(empty, empty), (empty, bits("0")), (bits("0"), empty)]:
        with pytest.raises(InvalidInputError):
            overlap_profile(u, v)


def test_mixed_alphabets_rejected():
    with pytest.raises(InvalidInputError):
        overlap_profile(bits("01"), Word((0, 1), Alphabet(3)))


def test_word_is_hashable_and_iterable():
    w = bits("0110")
    assert len(w) == 4
    assert list(w) == [0, 1, 1, 0]
    assert len({w, bits("0110"), bits("0111")}) == 2
