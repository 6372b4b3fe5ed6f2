"""Word-level border and overlap operations against naive references."""

import itertools

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from overlap_lab import (
    Alphabet,
    InvalidInputError,
    PairClass,
    Word,
    border_lengths,
    classify,
    is_unbordered,
    left_border_lengths,
    overlap_profile,
    right_border_lengths,
    shortest_right_border,
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
    assert border_lengths(latin("entente")) == [1, 4]
    assert border_lengths(bits("0101")) == [2]
    assert border_lengths(bits("000")) == [1, 2]
    assert border_lengths(bits("01")) == []


def test_right_border_lengths_examples():
    assert right_border_lengths(bits("1000101"), bits("0110001")) == [2]
    assert right_border_lengths(bits("0110001"), bits("1000101")) == [1, 5]


def test_classify_examples():
    assert classify(latin("delivered"), latin("redeliver")) is PairClass.MUTUALLY_BORDERED
    assert classify(latin("mail"), latin("box")) is PairClass.MUTUALLY_UNBORDERED
    assert classify(latin("overlap"), latin("lapse")) is PairClass.RIGHT_BORDERED
    assert classify(latin("lapse"), latin("overlap")) is PairClass.LEFT_BORDERED


def test_overlap_profile_example():
    profile = overlap_profile(bits("010"), bits("101"))
    assert profile.lso_uv == 2
    assert profile.lso_vu == 2
    assert profile.so_uv.symbols == (1, 0)
    assert profile.so_vu.symbols == (0, 1)
    assert profile.pair_class is PairClass.MUTUALLY_BORDERED


def test_shortest_right_border_examples():
    got = shortest_right_border(bits("00"), bits("00"))
    assert got is not None and got.symbols == (0,)
    assert shortest_right_border(bits("0"), bits("1")) is None


def test_unbordered_examples():
    assert is_unbordered(bits("01"))
    assert is_unbordered(bits("0011"))
    assert not is_unbordered(bits("010"))
    assert is_unbordered(bits("0"))


@pytest.mark.parametrize("n", range(1, 9))
def test_border_lengths_match_naive_exhaustive(n):
    for symbols in all_words(2, n):
        word = Word(symbols, BINARY)
        assert border_lengths(word) == naive_border_lengths(symbols)


@pytest.mark.parametrize("m,n", list(itertools.product(range(1, 6), range(1, 6))))
def test_right_border_lengths_match_naive_exhaustive(m, n):
    for u_syms in all_words(2, m):
        u = Word(u_syms, BINARY)
        for v_syms in all_words(2, n):
            v = Word(v_syms, BINARY)
            assert right_border_lengths(u, v) == naive_right_border_lengths(
                u_syms, v_syms
            )


def words(k: int, max_len: int):
    alphabet = Alphabet(k)
    return st.lists(
        st.integers(0, k - 1), min_size=1, max_size=max_len
    ).map(lambda syms: Word(tuple(syms), alphabet))


@given(words(3, 14))
def test_border_lengths_match_naive(w):
    assert border_lengths(w) == naive_border_lengths(w.symbols)


@given(words(3, 14), words(3, 14))
def test_right_border_lengths_match_naive(u, v):
    assert right_border_lengths(u, v) == naive_right_border_lengths(
        u.symbols, v.symbols
    )


@given(words(3, 14), words(3, 14))
def test_left_is_right_swapped(u, v):
    assert left_border_lengths(u, v) == right_border_lengths(v, u)


@given(words(3, 14), words(3, 14))
def test_overlap_lengths_proper_on_both_sides(u, v):
    # each overlap must be shorter than both words, never merely than one
    for l in right_border_lengths(u, v):
        assert 0 < l < len(u)
        assert l < len(v)


@given(words(3, 14), words(3, 14))
def test_shortest_overlap_is_unbordered(u, v):
    # the shortest suffix-prefix word has no border; longer ones all do
    lengths = right_border_lengths(u, v)
    for index, l in enumerate(lengths):
        overlap = Word(v.symbols[:l], v.alphabet)
        assert is_unbordered(overlap) == (index == 0)


@given(words(3, 14), words(3, 14))
def test_profile_is_consistent(u, v):
    profile = overlap_profile(u, v)
    rights = right_border_lengths(u, v)
    lefts = left_border_lengths(u, v)
    assert list(profile.right_border_lengths) == rights
    assert list(profile.left_border_lengths) == lefts
    assert profile.lso_uv == (rights[0] if rights else 0)
    assert profile.lso_vu == (lefts[0] if lefts else 0)
    if rights:
        assert profile.so_uv.symbols == v.symbols[: rights[0]]
    else:
        assert profile.so_uv is None
    if lefts:
        assert profile.so_vu.symbols == u.symbols[: lefts[0]]
    else:
        assert profile.so_vu is None
    assert profile.pair_class is classify(u, v)
    assert shortest_right_border(u, v) == profile.so_uv


@given(words(3, 10))
def test_self_pair_borders_are_word_borders(w):
    # overlaps of a word with itself are exactly its borders
    assert right_border_lengths(w, w) == border_lengths(w)


def test_classify_covers_all_four_cases():
    expected = {
        ("00", "00"): PairClass.MUTUALLY_BORDERED,
        ("01", "10"): PairClass.MUTUALLY_BORDERED,
        ("00", "01"): PairClass.RIGHT_BORDERED,
        ("01", "00"): PairClass.LEFT_BORDERED,
        ("01", "01"): PairClass.MUTUALLY_UNBORDERED,
    }
    for (a, b), want in expected.items():
        assert classify(bits(a), bits(b)) is want


@settings(deadline=None)
@given(st.integers(2, 4), st.data())
def test_single_letter_words(k, data):
    alphabet = Alphabet(k)
    a = data.draw(st.integers(0, k - 1))
    b = data.draw(st.integers(0, k - 1))
    u = Word((a,), alphabet)
    v = Word((b,), alphabet)
    # length-1 words admit no proper overlap at all
    assert right_border_lengths(u, v) == []
    assert classify(u, v) is PairClass.MUTUALLY_UNBORDERED


def test_word_validation():
    with pytest.raises(InvalidInputError):
        Word((0, 2), BINARY)
    with pytest.raises(InvalidInputError):
        Word((-1,), BINARY)
    with pytest.raises(InvalidInputError):
        Alphabet(0)


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
    with pytest.raises(InvalidInputError):
        border_lengths(empty)
    with pytest.raises(InvalidInputError):
        right_border_lengths(empty, bits("0"))
    with pytest.raises(InvalidInputError):
        classify(bits("0"), empty)


def test_mixed_alphabets_rejected():
    with pytest.raises(InvalidInputError):
        right_border_lengths(bits("01"), Word((0, 1), Alphabet(3)))


def test_word_is_hashable_and_iterable():
    w = bits("0110")
    assert len(w) == 4
    assert list(w) == [0, 1, 1, 0]
    assert len({w, bits("0110"), bits("0111")}) == 2
