"""Linear combinations: arithmetic, leading data, parsing."""

from fractions import Fraction

import pytest
from hypothesis import given

from conftest import Z12, nonzero_opolys, opolys, owords
from opalg import GeneratorSet, OPoly, OrderSpec, normal_form, parse_catalog, parse_opoly, render_opoly
from opalg.terms import UNIT, ParseError, parse_word

DB = OrderSpec.for_alphabet("db", Z12)
DT = OrderSpec.for_alphabet("dt", Z12)


def W(text):
    return parse_word(text, Z12)


def P(text):
    return parse_opoly(text, Z12)


# -- construction -------------------------------------------------------------


def test_zero_and_one():
    assert OPoly.zero().is_zero()
    assert not OPoly.one().is_zero()
    assert OPoly.one().coeff(UNIT) == 1


def test_duplicate_monomials_accumulate():
    w = W("z1")
    f = OPoly.from_word(w) + OPoly.from_word(w, 2)
    assert f.coeff(w) == 3
    assert len(f) == 1


def test_cancellation_drops_terms():
    f = P("z1 - z1")
    assert f.is_zero()
    assert not f


def test_results_that_cancel_are_the_one_shared_zero():
    # a zero result holds no term dict of its own
    zero = OPoly.zero()
    f = P("z1*[z2] - 2*[z1]")
    assert f - f is zero and f + (-f) is zero and f.scale(0) is zero
    assert f * zero is zero and zero.apply_bracket() is zero
    order = OrderSpec.for_alphabet("db", Z12)
    gens = GeneratorSet((parse_catalog("rb:6?lambda=1"),), (P("z2*z1 - z1*z2"),), order, Z12)
    rules = gens.ruleset((3, 2))
    h = P("z2*z1*[z1] - [z1*z2]*z1*z2 + [z2*z1]*z2*z1 - z1*z2*[z1]")
    for want_trace in (True, False):
        res = normal_form(h, rules, 100, want_trace=want_trace)
        assert res.poly is zero and not res.exhausted


def test_coefficients_stay_exact():
    f = P("1/3*z1") + P("1/6*z1")
    assert f.coeff(W("z1")) == Fraction(1, 2)


def test_constant_wraps_unit():
    f = OPoly.constant(Fraction(5, 2))
    assert f.coeff(UNIT) == Fraction(5, 2)
    assert f.support() == (UNIT,)


# -- ring structure -----------------------------------------------------------


@given(opolys(), opolys())
def test_addition_commutes(f, g):
    assert f + g == g + f


@given(opolys(), opolys(), opolys())
def test_multiplication_associates(f, g, h):
    assert (f * g) * h == f * (g * h)


@given(opolys(), opolys(), opolys())
def test_left_distributivity(f, g, h):
    assert f * (g + h) == f * g + f * h


@given(opolys())
def test_one_is_neutral(f):
    assert f * OPoly.one() == f
    assert OPoly.one() * f == f


@given(opolys())
def test_negation_cancels(f):
    assert (f + (-f)).is_zero()
    assert f - f == OPoly.zero()


@given(opolys())
def test_scalar_action(f):
    assert f.scale(Fraction(0)).is_zero()
    assert f.scale(Fraction(2)) == f + f
    assert 2 * f == f.scale(Fraction(2))


def test_multiplication_concatenates():
    f = P("z1 + [1]")
    g = P("z2")
    assert f * g == P("z1*z2 + [1]*z2")


def test_multiplication_is_noncommutative():
    assert P("z1") * P("z2") != P("z2") * P("z1")


@given(opolys())
def test_apply_bracket_is_linear(f):
    g = f.apply_bracket()
    assert len(g) == len(f)
    for w in f.support():
        from opalg.terms import bracket

        assert g.coeff(bracket(w)) == f.coeff(w)


def test_map_words_relabels():
    f = P("z1 - z2")
    swapped = f.map_words(lambda w: W(render_for_swap(w)))
    assert swapped == P("z2 - z1")


def render_for_swap(w):
    from opalg.terms import render

    return render(w).replace("z1", "TMP").replace("z2", "z1").replace("TMP", "z2")


# -- leading data -------------------------------------------------------------


def test_leading_of_zero_is_flagged():
    lm, lc = OPoly.zero().leading(DB)
    assert lm == UNIT and lc == 0


def test_leading_picks_order_maximum():
    f = P("-z1*[z2] - [z1]*z2")
    lm, lc = f.leading(DB)
    assert str(lm) == "[z1]*z2"
    assert lc == -1


def test_monicize_divides_by_leading_coefficient():
    f = P("-z1*[z2] - [z1]*z2")
    m = f.monicize(DB)
    assert m == P("z1*[z2] + [z1]*z2")
    assert m.leading(DB)[1] == 1


def test_monicize_zero_refused():
    with pytest.raises(ValueError):
        OPoly.zero().monicize(DB)


@given(nonzero_opolys(), nonzero_opolys())
def test_leading_monomial_multiplicative_db(f, g):
    lf, cf = f.leading(DB)
    lg, cg = g.leading(DB)
    lm, lc = (f * g).leading(DB)
    assert lm == lf * lg
    assert lc == cf * cg


@given(nonzero_opolys(), nonzero_opolys())
def test_leading_monomial_multiplicative_dt(f, g):
    lf, _ = f.leading(DT)
    lg, _ = g.leading(DT)
    assert (f * g).leading(DT)[0] == lf * lg


def test_items_descending_under_order():
    f = P("1 + z1 + [z1*z2]")
    words = [w for w, _ in f.items(DT)]
    assert [str(w) for w in words] == ["[z1*z2]", "z1", "1"]


# -- parsing and rendering ----------------------------------------------------


@pytest.mark.parametrize(
    "text",
    [
        "0",
        "z1",
        "-z1",
        "2*z1 - z2",
        "[z1]*[z2] - 2*[z1*z2] + 1/3",
        "1/2*[1] + z1*z2",
    ],
)
def test_parse_render_round_trip_samples(text):
    f = P(text)
    assert parse_opoly(render_opoly(f), Z12) == f


@given(opolys(max_z=3, max_op=2))
def test_parse_render_round_trip(f):
    assert parse_opoly(render_opoly(f), Z12) == f


@given(opolys(max_z=2, max_op=2))
def test_render_respects_order_argument(f):
    text = render_opoly(f, DT)
    assert parse_opoly(text, Z12) == f


def test_render_zero():
    assert render_opoly(OPoly.zero()) == "0"


def test_parse_signs_and_spacing():
    assert P("- z1 +  z2") == P("z2 - z1")
    assert P("+z1") == P("z1")


def test_parse_rational_coefficients():
    f = P("2/4*z1")
    assert f.coeff(W("z1")) == Fraction(1, 2)


def test_parse_bare_number_is_constant():
    assert P("7") == OPoly.constant(Fraction(7))
    assert P("3/2") == OPoly.constant(Fraction(3, 2))


def test_parse_rejects_empty_terms():
    with pytest.raises(ParseError):
        P("z1 + + z2")
    with pytest.raises(ParseError):
        P("")


def test_parse_rejects_digits_glued_to_word():
    with pytest.raises(ParseError):
        P("2z1")


def test_parse_unknown_letter_rejected():
    with pytest.raises(ParseError):
        P("z1 + q")


@given(owords(max_z=2, max_op=2))
def test_from_word_coeff_round_trip(w):
    f = OPoly.from_word(w, Fraction(-3, 7))
    assert f.coeff(w) == Fraction(-3, 7)
    assert f.support() == (w,)
