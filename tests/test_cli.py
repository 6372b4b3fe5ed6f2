"""End-to-end command-line behavior: formats, exit codes, budgets."""

import contextlib
import csv
import io
import json
import sys
from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from overlap_lab import QUANTITIES, CountCache, limit_report, mutually_unbordered_count
from overlap_lab.cli import (
    BUDGET_ENV_VAR,
    EXIT_BUDGET,
    EXIT_OK,
    EXIT_PRECISION,
    EXIT_USAGE,
    main,
    parse_word,
    render_word,
)
from overlap_lab.errors import InvalidInputError
from overlap_lab.wordcore import Alphabet, Word


def run(capsys, *argv: str):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def parse_csv(text: str) -> list[dict]:
    return list(csv.DictReader(io.StringIO(text)))


def int_text_cap():
    # Python's int-to-str digit cap; None where the interpreter has none
    return getattr(sys, "get_int_max_str_digits", lambda: None)()


@contextlib.contextmanager
def uncapped_int_text():
    # lets the test itself parse integers past the cap
    old = int_text_cap()
    if old is not None:
        sys.set_int_max_str_digits(0)
    try:
        yield
    finally:
        if old is not None:
            sys.set_int_max_str_digits(old)


def reference_parse_word(text: str, k: int, *, letters: bool = False) -> Word:
    """parse_word as a per-position scan: the reference for its messages."""
    alphabet = Alphabet(k)
    symbols: list[int] = []
    if letters:
        for pos, ch in enumerate(text):
            if not "a" <= ch <= "z":
                raise InvalidInputError(
                    f"character {ch!r} at position {pos} is not a lowercase letter"
                )
            symbols.append(ord(ch) - ord("a"))
    elif k <= 10:
        for pos, ch in enumerate(text):
            if not "0" <= ch <= "9":
                raise InvalidInputError(f"character {ch!r} at position {pos} is not a digit")
            sym = int(ch)
            if sym >= k:
                raise InvalidInputError(
                    f"symbol {sym} at position {pos} is outside the alphabet 0..{k - 1}"
                )
            symbols.append(sym)
    else:
        for pos, part in enumerate(text.split(",")):
            negative = part[:1] == "-"
            digits = part[1:] if negative else part
            try:
                if not (digits.isascii() and digits.isdigit()):
                    raise ValueError(part)
                sym = int(part)
            except ValueError:
                raise InvalidInputError(
                    f"entry {part!r} at position {pos} is not an integer"
                ) from None
            if negative or sym >= k:
                raise InvalidInputError(
                    f"symbol {sym or part} at position {pos} is outside the alphabet 0..{k - 1}"
                )
            symbols.append(sym)
    if not symbols:
        raise InvalidInputError("empty word")
    return Word(tuple(symbols), alphabet)


def reference_render_word(word: Word, *, letters: bool = False) -> str:
    if letters:
        return "".join(chr(ord("a") + sym) for sym in word.symbols)
    if word.alphabet.k <= 10:
        return "".join(str(sym) for sym in word.symbols)
    return ",".join(str(sym) for sym in word.symbols)


def parse_outcome(parse, text: str, k: int, letters: bool):
    try:
        return parse(text, k, letters=letters).symbols
    except InvalidInputError as exc:
        return str(exc)


# each shape with characters from inside and outside its alphabet
_DIGIT_TEXTS = st.tuples(
    st.text(alphabet="0123456789x- ,\xe9\u0661", max_size=12), st.integers(1, 10), st.just(False)
)
_COMMA_TEXTS = st.tuples(
    st.lists(
        st.text(alphabet="0123456789-+ _x\u0661", max_size=4), min_size=1, max_size=6
    ).map(",".join),
    st.sampled_from([11, 12, 100, 1001]),
    st.just(False),
)
_LETTER_TEXTS = st.tuples(
    st.text(alphabet="abcyz A0,\xe9", max_size=12), st.sampled_from([1, 3, 26, 30]), st.just(True)
)


@given(st.one_of(_DIGIT_TEXTS, _COMMA_TEXTS, _LETTER_TEXTS))
def test_parse_word_matches_the_reference_scan(case):
    text, k, letters = case
    assert parse_outcome(parse_word, text, k, letters) == parse_outcome(
        reference_parse_word, text, k, letters
    )


@st.composite
def canonical_words(draw):
    letters = draw(st.booleans())
    k = 26 if letters else draw(st.sampled_from([1, 2, 4, 10, 11, 12, 1000]))
    symbols = draw(st.lists(st.integers(0, k - 1), min_size=1, max_size=30))
    return Word(tuple(symbols), Alphabet(k)), letters


@given(canonical_words())
def test_render_word_round_trips_canonical_text(case):
    word, letters = case
    text = reference_render_word(word, letters=letters)
    assert render_word(word, letters=letters) == text
    assert parse_word(text, word.alphabet.k, letters=letters) == word
    assert render_word(parse_word(text, word.alphabet.k, letters=letters), letters=letters) == text


def test_parse_word_forms():
    assert parse_word("0101", 2).symbols == (0, 1, 0, 1)
    assert parse_word("3,11,0", 12).symbols == (3, 11, 0)
    assert parse_word("abz", 26, letters=True).symbols == (0, 1, 25)


def test_parse_word_errors_name_the_position():
    with pytest.raises(InvalidInputError, match="position 2"):
        parse_word("012", 2)
    with pytest.raises(InvalidInputError, match="position 1"):
        parse_word("0,99,1", 12)
    with pytest.raises(InvalidInputError, match="position 0"):
        parse_word("A", 26, letters=True)
    with pytest.raises(InvalidInputError, match="not a digit"):
        parse_word("0x1", 2)
    with pytest.raises(InvalidInputError, match="empty"):
        parse_word("", 2)


@pytest.mark.parametrize("entry", ["1_0", " 3", "+3", "\u0661"])
def test_comma_entries_must_be_ascii_digits(entry):
    # int() also reads underscores, spaces, a plus sign and non-ASCII
    # digits, which render_word would not give back
    with pytest.raises(InvalidInputError, match="entry .* at position 1 is not an integer"):
        parse_word(f"0,{entry},1", 12)


def test_negative_comma_entry_is_outside_the_alphabet():
    with pytest.raises(InvalidInputError, match="symbol -1 at position 2 is outside"):
        parse_word("0,1,-1", 12)


@pytest.mark.parametrize("entry", ["-0", "-00"])
def test_negative_zero_comma_entry_is_outside_the_alphabet(entry):
    # int() drops the sign, so -0 would read as 0 and not round-trip
    with pytest.raises(InvalidInputError, match=f"symbol {entry} at position 1 is outside"):
        parse_word(f"1,{entry}", 12)


def test_comma_entries_drop_leading_zeros():
    word = parse_word("03,0,10", 12)
    assert word.symbols == (3, 0, 10)
    assert render_word(word) == "3,0,10"


def test_render_word_round_trips():
    for text, k, letters in [("0101", 2, False), ("3,11,0", 12, False), ("abz", 26, True)]:
        assert render_word(parse_word(text, k, letters=letters), letters=letters) == text


LONG = 100_000


@pytest.mark.parametrize(
    "fill, last, k, letters, message",
    [
        ("0", "2", 2, False, "symbol 2 at position 99999 is outside the alphabet 0..1"),
        ("1", "x", 2, False, "character 'x' at position 99999 is not a digit"),
        ("1", "\u0661", 2, False, "character '\u0661' at position 99999 is not a digit"),
        ("11", "12", 12, False, "symbol 12 at position 99999 is outside the alphabet 0..11"),
        ("3", "", 12, False, "entry '' at position 99999 is not an integer"),
        ("3", "+3", 12, False, "entry '+3' at position 99999 is not an integer"),
        ("3", "-0", 12, False, "symbol -0 at position 99999 is outside the alphabet 0..11"),
        ("z", "A", 26, True, "character 'A' at position 99999 is not a lowercase letter"),
        ("a", "\xe9", 26, True, "character '\xe9' at position 99999 is not a lowercase letter"),
    ],
)
def test_long_word_names_its_only_bad_symbol(fill, last, k, letters, message):
    sep = "," if k > 10 and not letters else ""
    text = sep.join([fill] * (LONG - 1) + [last])
    with pytest.raises(InvalidInputError) as info:
        parse_word(text, k, letters=letters)
    assert str(info.value) == message


@pytest.mark.parametrize(
    "text, k, letters, message",
    [
        ("0129x", 2, False, "symbol 2 at position 2 is outside the alphabet 0..1"),
        ("01x92", 2, False, "character 'x' at position 2 is not a digit"),
        ("0\xe92", 2, False, "character '\xe9' at position 1 is not a digit"),
        ("02\xe9", 2, False, "symbol 2 at position 1 is outside the alphabet 0..1"),
        ("1,x,99", 12, False, "entry 'x' at position 1 is not an integer"),
        ("1,99,x", 12, False, "symbol 99 at position 1 is outside the alphabet 0..11"),
        ("1,0012,-1", 12, False, "symbol 12 at position 1 is outside the alphabet 0..11"),
        ("1,-5,12", 12, False, "symbol -5 at position 1 is outside the alphabet 0..11"),
        ("1,,12", 12, False, "entry '' at position 1 is not an integer"),
        ("abC1", 26, True, "character 'C' at position 2 is not a lowercase letter"),
        ("ab1C", 26, True, "character '1' at position 2 is not a lowercase letter"),
        ("abz", 3, True, "symbol 25 at position 2 is outside the alphabet 0..2"),
    ],
)
def test_first_offender_in_text_order_wins(text, k, letters, message):
    with pytest.raises(InvalidInputError) as info:
        parse_word(text, k, letters=letters)
    assert str(info.value) == message


@pytest.mark.skipif(
    not hasattr(sys, "set_int_max_str_digits"), reason="interpreter has no int digit limit"
)
@pytest.mark.parametrize("entry", ["1" * 5000, "0" * 5000 + "5"])
def test_comma_entry_past_the_int_digit_limit(capsys, entry):
    # int() counts every digit, leading zeros too, against the limit
    old = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(4300)
    try:
        with pytest.raises(InvalidInputError) as info:
            parse_word(f"0,{entry},x", 12)
    finally:
        sys.set_int_max_str_digits(old)
    assert str(info.value) == f"entry {entry!r} at position 1 is not an integer"
    # main lifts the limit, so the entry reads as a number
    code, out, err = run(capsys, "analyze", f"0,{entry}", "0,1", "--k", "12")
    if entry.startswith("1"):
        assert code == EXIT_USAGE
        assert err == f"error: symbol {entry} at position 1 is outside the alphabet 0..11\n"
    else:
        assert code == EXIT_OK
        assert out.startswith("u: 0,5\n")


def test_analyze_plain(capsys):
    code, out, _ = run(capsys, "analyze", "010", "101", "--k", "2")
    assert code == EXIT_OK
    lines = out.splitlines()
    assert "class: mutually-bordered" in lines
    assert "so(u,v): 10  lso(u,v): 2" in lines
    assert "so(v,u): 01  lso(v,u): 2" in lines


def test_analyze_letters_json(capsys):
    code, out, _ = run(
        capsys, "analyze", "overlap", "lapse", "--letters", "--format", "json"
    )
    assert code == EXIT_OK
    doc = json.loads(out)
    assert doc["schema_version"] == 1
    assert doc["pair_class"] == "right-bordered"
    assert doc["so_uv"] == "lap"
    assert doc["lso_uv"] == 3
    assert doc["so_vu"] is None
    assert doc["lso_vu"] == 0
    assert doc["left_border_lengths"] == []


def test_analyze_csv(capsys):
    code, out, _ = run(
        capsys, "analyze", "0110001", "1000101", "--k", "2", "--format", "csv"
    )
    assert code == EXIT_OK
    rows = parse_csv(out)
    assert len(rows) == 1
    row = rows[0]
    assert row["right_border_lengths"] == "1 5"
    assert row["so_uv"] == "1"
    assert row["lso_uv"] == "1"


def test_analyze_no_overlap_csv_has_empty_cells(capsys):
    code, out, _ = run(capsys, "analyze", "0", "1", "--k", "2", "--format", "csv")
    assert code == EXIT_OK
    row = parse_csv(out)[0]
    assert row["so_uv"] == ""
    assert row["lso_uv"] == "0"
    assert row["pair_class"] == "mutually-unbordered"


def test_analyze_parse_error(capsys):
    code, _, err = run(capsys, "analyze", "012", "101", "--k", "2")
    assert code == EXIT_USAGE
    assert "position 2" in err


def test_analyze_needs_exactly_one_alphabet_flag(capsys):
    code, _, _ = run(capsys, "analyze", "01", "10")
    assert code == EXIT_USAGE
    code, _, _ = run(capsys, "analyze", "ab", "ba", "--k", "2", "--letters")
    assert code == EXIT_USAGE


def test_count_csv_matches_frozen_rows(capsys):
    code, out, _ = run(capsys, "count", "--k", "2", "--n", "15", "--format", "csv")
    assert code == EXIT_OK
    rows = parse_csv(out)
    assert len(rows) == 15
    assert rows[2] == {"n": "3", "M": "26", "R": "14", "U": "10"}
    assert rows[14] == {
        "n": "15",
        "M": "575664422",
        "R": "210525818",
        "U": "77025766",
    }


def test_count_quantities_come_out_in_canonical_order(capsys):
    code, out, _ = run(
        capsys,
        "count", "--k", "2", "--n", "3",
        "--quantities", "u,M",
        "--format", "csv",
    )
    assert code == EXIT_OK
    header = out.splitlines()[0]
    assert header == "n,M,u"


def test_count_json_round_trip(capsys):
    code, out, _ = run(
        capsys,
        "count", "--k", "3", "--n", "30",
        "--quantities", "M,R,U,u",
        "--format", "json",
    )
    assert code == EXIT_OK
    doc = json.loads(out)
    assert doc["command"] == "count"
    assert doc["k"] == 3 and doc["n_max"] == 30
    last = doc["rows"][-1]
    # counts beyond 2^53 travel as strings so double parsers stay exact
    assert isinstance(last["M"], str)
    assert isinstance(doc["rows"][0]["M"], int)
    total = sum(int(last[q]) for q in ("M", "U")) + 2 * int(last["R"])
    assert total == 3**60


def test_count_prints_rows_past_the_int_text_cap(capsys):
    k = 10**30
    cap = int_text_cap()
    code, out, err = run(
        capsys,
        "count", "--k", str(k), "--n", "75",
        "--quantities", "U",
        "--format", "csv",
    )
    assert code == EXIT_OK, err
    assert int_text_cap() == cap
    rows = parse_csv(out)
    assert [row["n"] for row in rows] == [str(n) for n in range(1, 76)]
    assert len(rows[-1]["U"]) > 4300
    with uncapped_int_text():
        values = [int(row["U"]) for row in rows]
    cache = CountCache(k)
    assert values == [mutually_unbordered_count(k, n, cache=cache) for n in range(1, 76)]


def test_count_rejects_bad_quantities(capsys):
    code, _, err = run(capsys, "count", "--k", "2", "--n", "3", "--quantities", "X")
    assert code == EXIT_USAGE
    code, _, err = run(capsys, "count", "--k", "2", "--n", "0")
    assert code == EXIT_USAGE
    assert "--n" in err


def test_oracle_census_csv(capsys):
    code, out, _ = run(
        capsys, "oracle", "--k", "2", "--m", "3", "--n", "4", "--format", "csv"
    )
    assert code == EXIT_OK
    rows = parse_csv(out)
    cell = next(r for r in rows if r["m"] == "3" and r["n"] == "4")
    assert cell["mutually_bordered"] == "50"
    assert cell["right_bordered"] == "30"
    assert cell["left_bordered"] == "30"
    assert cell["mutually_unbordered"] == "18"


def test_oracle_checks_pass_on_small_inputs(capsys):
    code, out, _ = run(
        capsys,
        "oracle", "--k", "2", "--n", "5",
        "--checks", "lemmas,fourthirds,lso-histogram",
        "--format", "json",
    )
    assert code == EXIT_OK
    doc = json.loads(out)
    assert all(entry["violation_count"] == 0 for entry in doc["results"]["lemmas"])
    assert all(entry["ok"] for entry in doc["results"]["fourthirds"])
    assert all(entry["ok"] for entry in doc["results"]["lso-histogram"])


def test_oracle_budget_refusal(capsys):
    code, out, err = run(capsys, "oracle", "--k", "2", "--n", "31")
    assert code == EXIT_BUDGET
    assert out == ""
    assert str(2**62) in err


def test_oracle_env_budget(capsys, monkeypatch):
    monkeypatch.setenv(BUDGET_ENV_VAR, "100")
    code, _, err = run(capsys, "oracle", "--k", "2", "--n", "4")
    assert code == EXIT_BUDGET
    assert "100" in err
    monkeypatch.setenv(BUDGET_ENV_VAR, "not-a-number")
    code, _, err = run(capsys, "oracle", "--k", "2", "--n", "2")
    assert code == EXIT_USAGE
    assert BUDGET_ENV_VAR in err


def test_limits_plain(capsys):
    code, out, _ = run(capsys, "limits", "--k", "2", "--terms", "40")
    assert code == EXIT_OK
    assert "M_limit" in out and "0.536" in out
    assert "R_limit" in out and "0.196" in out
    assert "U_limit" in out and "0.072" in out
    assert "expected_lso" in out and "1.156" in out
    assert "unbordered_density" in out and "0.268" in out


def test_limits_json(capsys):
    code, out, _ = run(
        capsys, "limits", "--k", "2", "--terms", "40", "--format", "json"
    )
    assert code == EXIT_OK
    doc = json.loads(out)
    by_name = {r["quantity"]: r for r in doc["reports"]}
    assert by_name["M_limit"]["decimal"] == "0.536"
    lo_num, lo_den = by_name["M_limit"]["lo"].split("/")
    assert int(lo_den) > 0
    assert 0 < int(lo_num) / int(lo_den) < 1


def test_limits_csv(capsys):
    code, out, _ = run(
        capsys, "limits", "--k", "3", "--terms", "40", "--format", "csv"
    )
    assert code == EXIT_OK
    rows = parse_csv(out)
    decimals = {r["quantity"]: r["decimal"] for r in rows}
    assert decimals["M_limit"] == "0.196"
    assert decimals["R_limit"] == "0.247"
    assert decimals["U_limit"] == "0.310"
    assert decimals["expected_lso"] == "0.605"


@pytest.mark.parametrize("fmt", ["csv", "json"])
def test_limits_prints_brackets_past_the_int_text_cap(capsys, fmt):
    cap = int_text_cap()
    code, out, err = run(
        capsys,
        "limits", "--k", "2", "--terms", "3667", "--precision", "1100",
        "--format", fmt,
    )
    assert code == EXIT_OK, err
    assert int_text_cap() == cap
    rows = parse_csv(out) if fmt == "csv" else json.loads(out)["reports"]
    assert [row["quantity"] for row in rows] == list(QUANTITIES)
    assert max(len(row["lo"]) for row in rows) > 4300
    cache = CountCache(2)
    for row in rows:
        want = limit_report(row["quantity"], 2, 3667, 1100, cache=cache)
        assert row["decimal"] == want.decimal
        with uncapped_int_text():
            assert Fraction(row["lo"]) == want.interval.lo
            assert Fraction(row["hi"]) == want.interval.hi


def test_limits_refuses_uncertifiable_precision(capsys):
    code, out, err = run(
        capsys, "limits", "--k", "2", "--terms", "2", "--precision", "8"
    )
    assert code == EXIT_PRECISION
    assert out == ""
    assert "--terms" in err


def test_limits_rejects_unit_alphabet(capsys):
    code, _, err = run(capsys, "limits", "--k", "1", "--terms", "10")
    assert code == EXIT_USAGE


def test_unknown_subcommand(capsys):
    code, _, _ = run(capsys, "bogus")
    assert code == EXIT_USAGE
    code, _, _ = run(capsys)
    assert code == EXIT_USAGE


@pytest.mark.parametrize("k,k_text", [(2**53, 2**53), (2**53 + 1, str(2**53 + 1))])
def test_json_writes_every_int_past_2_53_as_a_string(capsys, k, k_text):
    # a double-based parser reads 2^53 + 1 as 2^53, so k travels as text too
    code, out, _ = run(capsys, "count", "--k", str(k), "--n", "2", "--format", "json")
    assert code == EXIT_OK
    doc = json.loads(out)
    assert doc["k"] == k_text
    assert doc["rows"][0] == {"n": 1, "M": 0, "R": 0, "U": str(k**2)}
