"""Monomial orders and the randomized axiom audit of ``reference``."""

import random
from itertools import combinations

import pytest
from hypothesis import given
from hypothesis import strategies as st

from conftest import Z1, Z12, ReferenceOrder, owords
from opalg import Alphabet, OrderSpec
from opalg.orders import EQ, GT, LT, PRESETS
from opalg.terms import all_words, parse_context, parse_word, structural_key
from reference import check_order_axioms, random_context


def W(text, alphabet=Z12):
    return parse_word(text, alphabet)


DB = OrderSpec.for_alphabet("db", Z12)
DT = OrderSpec.for_alphabet("dt", Z12)
# degree-lexicographic order, which db and dt equal on bracket-free words
DEGLEX = ReferenceOrder("deglex", Z12)


# -- construction -------------------------------------------------------------


def test_unknown_preset_rejected():
    with pytest.raises(ValueError):
        OrderSpec("weird", ("z1",))


def test_presets_inventory():
    assert PRESETS == ("db", "dt")


def test_describe_mentions_base():
    assert "z1<z2" in DB.describe()


def test_for_alphabet_accepts_sequences():
    o = OrderSpec.for_alphabet("db", ("a", "b"))
    assert o.base == ("a", "b")


# -- pinned comparisons -------------------------------------------------------


def test_letter_degree_dominates():
    # one letter beats any pile of brackets
    assert DB.compare(W("z1"), W("[[1]]")) == GT
    assert DT.compare(W("z1"), W("[[1]]")) == GT


def test_operator_degree_is_second():
    assert DB.compare(W("[z1]"), W("z1")) == GT
    assert DT.compare(W("[z1]"), W("z1")) == GT


def test_breadth_direction_is_the_signature_difference():
    narrow, wide = W("[z1*z2]"), W("z1*[z2]")
    assert DB.compare(narrow, wide) == LT
    assert DT.compare(narrow, wide) == GT


def test_factor_comparison_letter_below_bracket():
    assert DB.compare(W("[z1]*z2"), W("z1*[z2]")) == GT


def test_letters_ranked_by_base():
    assert DB.compare(W("z2*z1"), W("z1*z2")) == GT
    flipped = OrderSpec.for_alphabet("db", Alphabet(("z2", "z1")))
    assert flipped.compare(W("z2*z1"), W("z1*z2")) == LT


def test_bracket_against_bracket_recurses():
    assert DB.compare(W("[z2]"), W("[z1]")) == GT


def test_undeclared_letters_rank_last_by_name():
    w_a = parse_word("a", Z12, extra_letters=("a",))
    w_b = parse_word("b", Z12, extra_letters=("b",))
    assert DB.compare(w_a, W("z2")) == GT
    assert DB.compare(w_b, w_a) == GT


def test_deglex_grades_by_letters_then_prefix():
    assert DEGLEX.compare(W("z1*z2"), W("z2")) == GT
    assert DEGLEX.compare(W("z1"), W("z1*z1")) == LT
    # equal letter count: positional comparison decides
    assert DEGLEX.compare(W("z1*z2"), W("z2*z1")) == LT


def test_unit_is_minimum_everywhere():
    one = W("1")
    for order in (DB, DT, DEGLEX):
        for text in ("z1", "[1]", "[z1*z2]"):
            assert order.compare(one, W(text)) == LT


def test_max_helper():
    ws = [W("z1"), W("[z1]"), W("z1*z1")]
    assert DB.max(ws) == W("z1*z1")


@pytest.mark.parametrize("preset", PRESETS)
def test_compare_matches_the_reference_on_a_stratum(preset):
    # the factor walk runs at equal breadth only, so it never needs the
    # reference's shorter-prefix rule
    order, ref = OrderSpec.for_alphabet(preset, Z12), ReferenceOrder(preset, Z12)
    words = all_words(Z12, 3, 2)
    assert len(words) == 828
    undeclared = [parse_word(t, Z12, extra_letters=("a", "b")) for t in ("a", "b", "[a]*b", "[b]*a", "a*[z1]")]
    for u, v in combinations(words + tuple(undeclared), 2):
        assert order.compare(u, v) == ref.compare(u, v), (u, v)


# -- totality on a stratum ----------------------------------------------------


@pytest.mark.parametrize("preset", ["db", "dt"])
def test_total_and_antisymmetric_on_small_stratum(preset):
    order = OrderSpec.for_alphabet(preset, Z12)
    words = all_words(Z12, 2, 1)
    for u, v in combinations(words, 2):
        c, back = order.compare(u, v), order.compare(v, u)
        assert c in (LT, GT)
        assert back == -c
    for u in words:
        assert order.compare(u, u) == EQ


@given(owords(max_z=2, max_op=2), owords(max_z=2, max_op=2), owords(max_z=2, max_op=2))
def test_transitive(u, v, w):
    import functools

    ws = sorted([u, v, w], key=functools.cmp_to_key(DT.compare))
    assert DT.compare(ws[0], ws[2]) <= 0


# -- compatibility with contexts ---------------------------------------------


@given(owords(max_z=2, max_op=1), owords(max_z=2, max_op=1), st.integers(0, 2**32 - 1))
def test_context_compatibility_db_dt(u, v, seed):
    q = random_context(random.Random(seed), Z12, 1, 1)
    for order in (DB, DT):
        c = order.compare(u, v)
        assert order.compare(q.plug(u), q.plug(v)) == c


def test_nontrivial_context_strictly_grows():
    q = parse_context("[@]*z1", Z12)
    for order in (DB, DT):
        for text in ("1", "z2", "[z1]"):
            u = W(text)
            assert order.compare(q.plug(u), u) == GT


def test_deglex_context_flip_witness():
    # the documented failure: plugging into a letter-free context can flip
    u, v = W("[1]"), W("[1]*[1]")
    q = parse_context("@*[[1]]", Z12)
    assert DEGLEX.compare(u, v) == LT
    assert DEGLEX.compare(q.plug(u), q.plug(v)) == GT


# -- the randomized audit -----------------------------------------------------


@pytest.mark.parametrize("preset", ["db", "dt"])
def test_audit_passes_on_bracketed_words(preset):
    order = OrderSpec.for_alphabet(preset, Z12)
    violations = check_order_axioms(order, Z12, (2, 2), trials=800, seed=11)
    assert not violations, violations


def test_audit_passes_for_deglex_on_flat_words():
    assert not check_order_axioms(DEGLEX, Z12, (3, 0), trials=800, seed=11)


def test_audit_rejects_deglex_on_bracketed_words():
    violations = check_order_axioms(DEGLEX, Z12, (2, 2), trials=800, seed=11)
    kinds = {kind for kind, _ in violations}
    assert kinds <= {"context-compatibility", "context-growth"}
    assert kinds


def test_audit_catches_breadth_reversal():
    class BreadthDescending:
        """Deliberately broken: wider words first, then structural key."""

        def compare(self, u, v):
            if u == v:
                return 0
            if u.breadth != v.breadth:
                return -1 if u.breadth > v.breadth else 1
            ku, kv = structural_key(u), structural_key(v)
            return -1 if ku < kv else 1

        def describe(self):
            return "breadth-descending (broken on purpose)"

    violations = check_order_axioms(BreadthDescending(), Z1, (2, 2), trials=400, seed=3)
    assert any(kind == "context-growth" for kind, _ in violations)

