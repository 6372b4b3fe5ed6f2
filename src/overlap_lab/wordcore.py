"""Words over integer alphabets: borders, pairwise overlaps, classification.

Conventions used throughout the package:

* A border of a non-empty word w is a non-empty word that is both a proper
  prefix and a proper suffix of w.  A word with no border is unbordered,
  also called bifix-free.
* A right-border of an ordered pair (u, v) is a non-empty proper suffix of
  u that is also a proper prefix of v: a way for u to overlap into v.
* A left-border of (u, v) is a non-empty proper prefix of u that is also a
  proper suffix of v; equivalently, a right-border of (v, u).
* The borders of w are the right-borders of (w, w), so overlap_profile(w, w)
  lists them; w is unbordered when that list is empty.
* so(u, v) is the shortest right-border of (u, v) and lso(u, v) its length,
  with lso(u, v) = 0 when (u, v) has no right-border.

"Proper" is enforced on both sides: a right-border length l must satisfy
l < |u| and l < |v|.

Everything runs in time linear in the input length via the prefix function
(the KMP failure function).  Cross-word matching uses the standard
concatenation trick with the out-of-alphabet sentinel symbol k; the
sentinel never escapes this module.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass
from enum import Enum
from typing import Iterator, Sequence

from .errors import InvalidInputError

__all__ = ["Alphabet", "OverlapProfile", "PairClass", "Word", "overlap_profile"]


@dataclass(frozen=True)
class Alphabet:
    """Integer alphabet {0, ..., k - 1}.

    k is stored as a plain int; a size that is not an integer, such as
    2.0, is refused rather than carried into exact arithmetic.
    """

    k: int

    def __post_init__(self) -> None:
        try:
            k = operator.index(self.k)
        except TypeError:
            raise InvalidInputError(f"alphabet size must be an integer, got {self.k!r}") from None
        if k < 1:
            raise InvalidInputError(f"alphabet size must be at least 1, got {k}")
        object.__setattr__(self, "k", k)


def _require_length(n: int) -> None:
    """Refuse a word length below 1, where a count or a census has no pair."""
    if n < 1:
        raise InvalidInputError(f"length must be at least 1, got {n}")


@dataclass(frozen=True)
class Word:
    """Immutable word over an integer alphabet.  May be empty."""

    symbols: tuple[int, ...]
    alphabet: Alphabet

    def __post_init__(self) -> None:
        if not isinstance(self.symbols, tuple):
            object.__setattr__(self, "symbols", tuple(self.symbols))
        symbols, k = self.symbols, self.alphabet.k
        if symbols and not (0 <= min(symbols) and max(symbols) < k):
            pos = next(pos for pos, sym in enumerate(symbols) if not 0 <= sym < k)
            raise InvalidInputError(
                f"symbol {symbols[pos]} at position {pos} is outside the alphabet 0..{k - 1}"
            )

    def __len__(self) -> int:
        return len(self.symbols)

    def __iter__(self) -> Iterator[int]:
        return iter(self.symbols)


class PairClass(Enum):
    """Exclusive four-way classification of an ordered pair of words."""

    MUTUALLY_BORDERED = "mutually-bordered"
    RIGHT_BORDERED = "right-bordered"
    LEFT_BORDERED = "left-bordered"
    MUTUALLY_UNBORDERED = "mutually-unbordered"


@dataclass(frozen=True)
class OverlapProfile:
    """All border lengths and shortest overlaps of an ordered pair (u, v).

    Both length tuples are ascending.  The left lengths of (u, v) are by
    definition the right lengths of (v, u).  lso fields are 0 and so fields
    None when the corresponding direction has no border.  An so word is
    always unbordered: any border of a right-border would itself be a
    shorter right-border.
    """

    right_border_lengths: tuple[int, ...]
    left_border_lengths: tuple[int, ...]
    so_uv: Word | None
    lso_uv: int
    so_vu: Word | None
    lso_vu: int
    pair_class: PairClass


def _prefix_function(s: Sequence[int]) -> list[int]:
    """Length of the longest proper prefix-suffix at every position of s."""
    pi = [0] * len(s)
    match = 0
    for i in range(1, len(s)):
        c = s[i]
        while match and c != s[match]:
            match = pi[match - 1]
        if c == s[match]:
            match += 1
        pi[i] = match
    return pi


def _border_chain(pi: list[int]) -> list[int]:
    """All border lengths encoded by a prefix function, ascending."""
    lengths: list[int] = []
    l = pi[-1]
    while l:
        lengths.append(l)
        l = pi[l - 1]
    lengths.reverse()
    return lengths


def _overlap_lengths(
    u_syms: tuple[int, ...], v_syms: tuple[int, ...], k: int
) -> list[int]:
    """Ascending right-border lengths of (u, v): suffix_l(u) == prefix_l(v).

    Failure chain of v + sentinel + u at its final position.  The sentinel
    k cannot match any symbol, so no chain value exceeds min(|u|, |v|),
    and only the last, longest length can fail to be proper.
    """
    lengths = _border_chain(_prefix_function(v_syms + (k,) + u_syms))
    if lengths and lengths[-1] == min(len(u_syms), len(v_syms)):
        lengths.pop()
    return lengths


def _require_pair(u: Word, v: Word) -> None:
    if u.alphabet != v.alphabet:
        raise InvalidInputError(
            f"alphabet mismatch: k={u.alphabet.k} versus k={v.alphabet.k}"
        )
    if len(u) == 0 or len(v) == 0:
        raise InvalidInputError("pair analysis requires non-empty words")


def _class_of(has_right: bool, has_left: bool) -> PairClass:
    if has_right:
        return PairClass.MUTUALLY_BORDERED if has_left else PairClass.RIGHT_BORDERED
    return PairClass.LEFT_BORDERED if has_left else PairClass.MUTUALLY_UNBORDERED


def overlap_profile(u: Word, v: Word) -> OverlapProfile:
    """Complete overlap picture of (u, v), both directions at once."""
    _require_pair(u, v)
    k = u.alphabet.k
    right = _overlap_lengths(u.symbols, v.symbols, k)
    left = _overlap_lengths(v.symbols, u.symbols, k)
    so_uv = Word(v.symbols[: right[0]], u.alphabet) if right else None
    so_vu = Word(u.symbols[: left[0]], u.alphabet) if left else None
    return OverlapProfile(
        right_border_lengths=tuple(right),
        left_border_lengths=tuple(left),
        so_uv=so_uv,
        lso_uv=right[0] if right else 0,
        so_vu=so_vu,
        lso_vu=left[0] if left else 0,
        pair_class=_class_of(bool(right), bool(left)),
    )
