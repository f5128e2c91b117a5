"""One grammar for input text: polynomials and selector values.

``parse_opoly`` reads polynomial text from the same tokens and recursive
descent as words, and ``parse_catalog`` reads selector values with the same
number rule.  The reference below is a copy of the character scanner the
polynomial parser used before: it cut the text at top-level signs, read each
term's coefficient with a regular expression and tokenized each term again.
On well-formed text both parsers must give the same polynomial; malformed
text, which the scanner sometimes accepted or crashed on, is refused with a
``ParseError`` whose position counts from the start of the whole text.
"""

import re
import time
from fractions import Fraction

import pytest
from hypothesis import given

import opalg.poly as poly
from conftest import Z12, opolys
from opalg import OrderSpec, parse_catalog, render_opoly
from opalg.cli import main
from opalg.opi import MAX_REYNOLDS_N
from opalg.poly import OPoly, parse_opoly
from opalg.terms import (
    MAX_DEPTH,
    MAX_DIGITS,
    UNIT,
    ParseError,
    check_input_size,
    parse_integer,
    parse_rational,
    parse_word,
)

DT = OrderSpec.for_alphabet("dt", Z12)


# -- the scanner reference ----------------------------------------------------


def ref_split_top_level(text):
    depth = 0
    sign = "+"
    start = 0
    for i, ch in enumerate(text):
        if ch == "[":
            depth += 1
        elif ch == "]":
            depth -= 1
            if depth < 0:
                raise ParseError("unbalanced ']'", i)
        elif ch in "+-" and depth == 0:
            chunk = text[start:i]
            if chunk.strip():
                yield sign, chunk
            elif start != 0:
                raise ParseError("empty term", i)
            sign = ch
            start = i + 1
    if depth != 0:
        raise ParseError("unbalanced '['", len(text))
    chunk = text[start:]
    if chunk.strip():
        yield sign, chunk
    elif start == 0:
        raise ParseError("empty polynomial text", 0)


REF_NUM_RE = re.compile(r"\s*(\d+)\s*(?:/\s*(\d+)\s*)?")


def ref_parse_term(sign, chunk, alphabet, extra):
    text = chunk.strip()
    coeff = Fraction(1)
    m = REF_NUM_RE.match(text)
    if m and m.start() == 0:
        num = int(m.group(1))
        den = int(m.group(2)) if m.group(2) else 1
        rest = text[m.end() :].lstrip()
        if not rest:
            coeff = Fraction(num, den)
            return UNIT, -coeff if sign == "-" else coeff
        if rest.startswith("*"):
            coeff = Fraction(num, den)
            text = rest[1:]
    word = parse_word(text, alphabet, extra_letters=extra)
    return word, -coeff if sign == "-" else coeff


def ref_parse_opoly(text, alphabet=None, *, extra_letters=()):
    check_input_size(text)
    stripped = text.strip()
    if stripped == "0":
        return OPoly.zero()
    extra = frozenset(extra_letters)
    return OPoly([ref_parse_term(s, c, alphabet, extra) for s, c in ref_split_top_level(stripped)])


# -- agreement on well-formed text ------------------------------------------------


@given(opolys(max_terms=5))
def test_rendered_polynomials_parse_as_the_reference_does(f):
    for text in (render_opoly(f), render_opoly(f, DT)):
        got = parse_opoly(text, Z12)
        assert got == ref_parse_opoly(text, Z12) == f
        assert render_opoly(got) == render_opoly(f)
        assert render_opoly(got, DT) == render_opoly(f, DT)


CORPUS = [
    ("z1*[z2] - [z1]*z2", ()),
    ("z1*[z2]-[z1]*z2", ()),
    ("  z1 * [ z2 ]  -  [ z1 ] * z2  ", ()),
    ("-z1 + z2", ()),
    ("- z1+z2", ()),
    ("+z1 - 2*z2", ()),
    ("-2/5*[1] + 3", ()),
    ("2 / 5 * [1] - 3", ()),
    ("7", ()),
    ("-7", ()),
    ("3/2", ()),
    ("2/4*z1", ()),
    ("[1]", ()),
    ("1", ()),
    ("1*1 + 2*1", ()),
    ("1*z1", ()),
    ("007*z1", ()),
    ("0", ()),
    (" 0 ", ()),
    ("0*z1 + z2", ()),
    ("z1 - z1", ()),
    ("z1 + z1 + 1/2*z1", ()),
    ("[[z1*[1]]*z2] - 1/3*[z2]*[z1]*[[1]]", ()),
    ("[x1]*[x2] - [[x1]*x2] - [x1*[x2]]", ("x1", "x2")),
    ("[x1*z2] - x1*[z2] - 1", ("x1",)),
]


@pytest.mark.parametrize("text,extra", CORPUS)
def test_corpus_parses_as_the_reference_does(text, extra):
    got = parse_opoly(text, Z12, extra_letters=extra)
    want = ref_parse_opoly(text, Z12, extra_letters=extra)
    assert got == want
    assert render_opoly(got) == render_opoly(want)
    assert render_opoly(got, DT) == render_opoly(want, DT)


def test_integral_coefficients_come_out_as_ints():
    f = parse_opoly("2/4*z1 + 6/3*z2 - 1", Z12)
    assert f.coeff(parse_word("z1")) == Fraction(1, 2)
    assert type(f.coeff(parse_word("z2"))) is int
    assert type(f.coeff(UNIT)) is int


# -- malformed text -------------------------------------------------------------------

MALFORMED = [
    ("z1 -", 4),
    ("-", 1),
    ("+", 1),
    ("1/0*z1", 2),
    ("0/0", 2),
    ("z1 + q", 5),
    ("z1 + z2*2", 8),
    ("2z1", 1),
    ("z1 + + z2", 5),
    ("", 0),
    ("   ", 3),
    ("z1 - [z2", 8),
    ("z1 + z2]", 7),
    ("z1 + 1e5*z2", 6),
    ("z1 + 0.5*z2", 6),
    ("z1 + @", 5),
]


@pytest.mark.parametrize("text,pos", MALFORMED)
def test_malformed_text_is_refused_at_its_absolute_position(text, pos):
    with pytest.raises(ParseError) as exc:
        parse_opoly(text, Z12)
    assert exc.value.pos == pos
    assert str(exc.value).endswith(f"(at position {pos})")


def test_zero_denominator_is_named():
    with pytest.raises(ParseError, match="zero denominator"):
        parse_opoly("z1 + 1/0*z2", Z12)


def test_deep_bracket_is_refused_before_any_descent(monkeypatch):
    def descend(*args):
        raise AssertionError("the descent ran")

    monkeypatch.setattr(poly, "_parse_word_tokens", descend)
    text = "z1 + " + "[" * 1200 + "z2" + "]" * 1200
    with pytest.raises(ParseError, match=f"brackets nested deeper than the limit of {MAX_DEPTH}") as exc:
        parse_opoly(text, Z12)
    assert exc.value.pos == 5 + MAX_DEPTH


# -- selector values ------------------------------------------------------------------


@pytest.mark.parametrize(
    "text,value",
    [("1", 1), ("0", 0), ("-1", -1), ("1/2", Fraction(1, 2)), (" -3 / 6 ", Fraction(-1, 2)), ("007", 7)],
)
def test_rationals_use_the_polynomial_number_rule(text, value):
    got = parse_rational(text)
    assert got == value
    assert type(got) is Fraction


@pytest.mark.parametrize("text", ["", "+1", "--1", "0.5", "1e3", "1/0", "1/", "/2", "1/2/3", "x", "1 2", "[1]"])
def test_malformed_rationals_are_refused(text):
    with pytest.raises(ParseError):
        parse_rational(text)


def test_selector_values_are_exact_rationals():
    entry = parse_catalog("rb:6?lambda=-1/2")
    assert entry.key == "rb:6?lambda=-1/2"
    assert entry.params == (("lambda", Fraction(-1, 2)),)
    assert parse_catalog("rb:13?lambda=2/4, c = 3").key == "rb:13?c=3,lambda=1/2"


def test_reynolds_limit_parses():
    entry = parse_catalog(f"reynolds?n={MAX_REYNOLDS_N}")
    assert entry.key == f"reynolds?n={MAX_REYNOLDS_N}"
    assert len(entry.opis) == MAX_REYNOLDS_N - 1


# -- the CLI ----------------------------------------------------------------------------

REFUSED = [
    (["nf", "--catalog", "rb:1", "1/0*z1"], "zero denominator (at position 2)"),
    (["nf", "--catalog", "rb:1", "z1 -"], "(at position 4)"),
    (["nf", "--catalog", "rb:1", "z1 + q"], "unknown letter 'q' (alphabet: z1,z2) (at position 5)"),
    (["check-gs", "--catalog", "rb:1", "--gens", "-", "--bounds", "1,1"], "(at position 1)"),
    (["check-gs", "--catalog", "rb:6?lambda=1e50000000", "--bounds", "1,1"], "bad parameter value '1e50000000'"),
    (["check-gs", "--catalog", "rb:6?lambda=1e5000", "--bounds", "1,1"], "bad parameter value '1e5000'"),
    (["check-gs", "--catalog", "rb:6?lambda=0.5", "--bounds", "1,1"], "bad parameter value '0.5'"),
    (["check-gs", "--catalog", "rb:6?lambda=1/0", "--bounds", "1,1"], "zero denominator"),
    (["check-gs", "--catalog", "reynolds?n=1000", "--bounds", "1,1"], f"over the limit of {MAX_REYNOLDS_N}"),
    (["check-gs", "--catalog", f"reynolds?n={MAX_REYNOLDS_N + 1}", "--bounds", "1,1"], f"limit of {MAX_REYNOLDS_N}"),
    (["check-gs", "--catalog", "reynolds?n=300", "--bounds", "1,1"], f"limit of {MAX_REYNOLDS_N}"),
]


def assert_refused_fast(capsys, argv, message):
    start = time.perf_counter()
    code = main(argv)
    elapsed = time.perf_counter() - start
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert captured.err.startswith("error: ")
    assert message in captured.err
    assert "Traceback" not in captured.err
    assert elapsed < 1


@pytest.mark.parametrize("argv,message", REFUSED)
def test_cli_refuses_malformed_input_fast_with_exit_two(capsys, argv, message):
    assert_refused_fast(capsys, argv, message)


# -- integers and the digit limit -------------------------------------------------------


@pytest.mark.parametrize("text,value", [("6", 6), (" 14 ", 14), ("0", 0), ("-1", -1), ("007", 7)])
def test_integers_use_the_number_rule(text, value):
    got = parse_integer(text)
    assert got == value
    assert type(got) is int


@pytest.mark.parametrize("text", ["", "+6", "1_4", "1.0", "1e3", "--1", "6 6", "1/2", "x", "٣"])
def test_malformed_integers_are_refused(text):
    with pytest.raises(ParseError):
        parse_integer(text)


def test_a_number_over_the_digit_limit_is_refused_at_its_position():
    longest = "9" * MAX_DIGITS
    assert parse_opoly(f"z1 + {longest}*z2", Z12).coeff(parse_word("z2")) == int(longest)
    assert parse_rational(f"1/{longest}") == Fraction(1, int(longest))
    for text, pos in [(f"z1 + 9{longest}*z2", 5), (f"1/9{longest}", 2), (f"-9{longest}", 1)]:
        with pytest.raises(ParseError, match=f"number of {MAX_DIGITS + 1} digits is over the limit of {MAX_DIGITS}") as exc:
            parse_opoly(text, Z12)
        assert exc.value.pos == pos


def test_a_coefficient_over_the_digit_limit_is_not_printed():
    cap = 10**MAX_DIGITS
    for c in (cap - 1, -(cap - 1), Fraction(1, cap - 1)):
        assert render_opoly(OPoly.constant(c))
    for c in (cap, -cap, Fraction(1, cap), Fraction(cap, 3)):
        with pytest.raises(ValueError, match=f"more digits than the limit of {MAX_DIGITS}"):
            render_opoly(OPoly.from_word(parse_word("z1"), c))


NUMBER_RULE_REFUSED = [
    (["check-gs", "--catalog", "rb:1_4", "--bounds", "1,1"], "bad item '1_4' in selector 'rb:1_4': unexpected character '_' (at position 1)"),
    (["check-gs", "--catalog", "rb:+6", "--bounds", "1,1"], "bad item '+6' in selector 'rb:+6': expected a number"),
    (["check-gs", "--catalog", "diff:1.0", "--bounds", "1,1"], "bad item '1.0'"),
    (["check-gs", "--catalog", "rb:6", "--bounds", "1_0,0"], "bounds must be 'D,P' integers, got '1_0,0'"),
    (["check-gs", "--catalog", "rb:6", "--bounds", "2,+1"], "bounds must be 'D,P' integers, got '2,+1'"),
    (["nf", "--catalog", "rb:1", f"z1 - 1{'0' * MAX_DIGITS}*z2"], f"over the limit of {MAX_DIGITS} (at position 5)"),
    (["check-gs", "--catalog", f"rb:6?lambda=1{'0' * MAX_DIGITS}", "--bounds", "1,1"], f"over the limit of {MAX_DIGITS}"),
]


@pytest.mark.parametrize("argv,message", NUMBER_RULE_REFUSED)
def test_cli_reads_items_bounds_and_long_numbers_by_the_number_rule(capsys, argv, message):
    assert_refused_fast(capsys, argv, message)


NUMBER_RULE_REFUSED_FLAGS = [
    (["nf", "--catalog", "rb:1", "--fuel", "1_0", "z1"], "opalg nf: error: argument --fuel: must be an integer, got '1_0'"),
    (["check-gs", "--catalog", "rb:1", "--fuel", "+6"], "opalg check-gs: error: argument --fuel: must be an integer, got '+6'"),
    (["nf", "--catalog", "rb:1", "--fuel", "\u0663", "z1"], "opalg nf: error: argument --fuel: must be an integer, got '\u0663'"),
    (["check-gs", "--catalog", "rb:1", "--fuel", "1.0"], "opalg check-gs: error: argument --fuel: must be an integer, got '1.0'"),
    (["demo", "rb-commutator", "--fuel", "1_0"], "opalg demo: error: argument --fuel: must be an integer, got '1_0'"),
]


@pytest.mark.parametrize("argv,message", NUMBER_RULE_REFUSED_FLAGS)
def test_cli_reads_integer_flags_by_the_number_rule(capsys, argv, message):
    # argparse refuses the flag text: usage, then the message, and exit 2
    code = main(argv)
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert captured.err.startswith("usage: ")
    assert captured.err.endswith(message + "\n")


@pytest.mark.parametrize("line", ["fuel = 1_0", "fuel = +6", "fuel = 1.0"])
def test_config_integers_use_the_number_rule(tmp_path, capsys, line):
    cfg = tmp_path / "bad.cfg"
    cfg.write_text(line + "\n")
    key, _, value = line.partition(" = ")
    assert_refused_fast(
        capsys, ["check-gs", "--config", str(cfg), "--catalog", "rb:1"], f"{key} must be an integer, got '{value}'"
    )


def test_cli_refuses_to_print_a_coefficient_over_the_digit_limit(capsys):
    # an accepted weight whose square has more digits than the limit
    code = main(["nf", "--catalog", f"rb:6?lambda={'9' * 3000}", "[[z1]*[z2]]*[z1]"])
    captured = capsys.readouterr()
    assert code == 2
    assert f"error: a coefficient has more digits than the limit of {MAX_DIGITS}" in captured.err
    assert "Traceback" not in captured.err and "4300" not in captured.err
