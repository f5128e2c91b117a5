"""Words, contexts, matching, enumeration."""

import random

import pytest
from hypothesis import given
from hypothesis import strategies as st

from conftest import Z1, Z12, owords
from opalg.terms import (
    HOLE,
    MAX_DEPTH,
    MAX_INPUT_CHARS,
    UNIT,
    Alphabet,
    Bracket,
    Context,
    ParseError,
    Word,
    align_factors,
    all_words,
    bracket,
    iter_occurrences,
    parse_context,
    parse_word,
    render,
    schema_occurrences,
    structural_key,
    substitute,
)
from reference import all_hole_insertions, random_context


def W(text, alphabet=Z12):
    return parse_word(text, alphabet)


# -- construction and measures ------------------------------------------------


def test_unit_measures():
    assert UNIT.breadth == 0
    assert UNIT.z_degree == 0
    assert UNIT.op_degree == 0
    assert UNIT.is_unit()


def test_bracketed_unit_is_not_unit():
    w = bracket(UNIT)
    assert not w.is_unit()
    assert (w.breadth, w.z_degree, w.op_degree) == (1, 0, 1)


def test_measures_sample():
    w = W("[z1*[z2]]*z1")
    assert (w.breadth, w.z_degree, w.op_degree) == (2, 3, 2)


def test_iterated_bracket_depth():
    w = bracket(bracket(bracket(W("z1"))))
    assert w.op_degree == 3
    assert w.z_degree == 1


@given(owords(), owords())
def test_measures_add_under_concatenation(u, v):
    w = u * v
    assert w.z_degree == u.z_degree + v.z_degree
    assert w.op_degree == u.op_degree + v.op_degree
    assert w.breadth == u.breadth + v.breadth


@given(owords())
def test_breadth_bounded_by_degrees(u):
    assert u.breadth <= u.z_degree + u.op_degree


@given(owords())
def test_unit_is_neutral(u):
    assert u * UNIT == u
    assert UNIT * u == u


def test_concat_matches_star():
    u, v, w = W("z1"), W("[z2]"), W("z2*z1")
    assert u * v * w == W("z1*[z2]*z2*z1")


def test_word_equality_and_hash():
    a, b = W("[z1]*z2"), W("[z1]*z2")
    assert a == b and hash(a) == hash(b)
    assert a != W("z2*[z1]")


# -- parsing and rendering ----------------------------------------------------


@pytest.mark.parametrize(
    "text",
    ["1", "z1", "[1]", "[z1*z2]", "z1*[z2*[1]]*z1", "[[z1]]*[z2]"],
)
def test_parse_render_round_trip_samples(text):
    assert render(W(text)) == text


@given(owords(max_z=4, max_op=3))
def test_parse_render_round_trip(u):
    assert parse_word(render(u), Z12) == u


def test_parse_rejects_unknown_letter():
    with pytest.raises(ParseError):
        W("z9")


def test_parse_rejects_unbalanced():
    with pytest.raises(ParseError):
        W("[z1")
    with pytest.raises(ParseError):
        W("z1]")


def test_parse_enforces_bracket_depth_limit():
    deepest = "[" * MAX_DEPTH + "z1" + "]" * MAX_DEPTH
    w = W(deepest)
    # one letter nested MAX_DEPTH deep: every bracket encloses the next
    assert (w.op_degree, w.z_degree) == (MAX_DEPTH, 1)
    assert render(w) == deepest
    with pytest.raises(ParseError, match=f"limit of {MAX_DEPTH}") as exc:
        W("z2*" + "[" * (MAX_DEPTH + 1) + "z1" + "]" * (MAX_DEPTH + 1))
    assert exc.value.pos == 3 + MAX_DEPTH
    # the check runs before the recursive descent, even for unbalanced text
    with pytest.raises(ParseError, match="limit"):
        W("[" * 5000)


def test_parse_enforces_input_size_limit():
    from opalg.poly import parse_opoly

    padded = "z1*[z2]" + " " * (MAX_INPUT_CHARS - 7)
    assert render(W(padded)) == "z1*[z2]"
    assert str(parse_opoly(padded, Z12)) == "z1*[z2]"
    for parse in (W, lambda text: parse_opoly(text, Z12)):
        with pytest.raises(ParseError, match=f"over the limit of {MAX_INPUT_CHARS}") as exc:
            parse(padded + " ")
        assert exc.value.pos == MAX_INPUT_CHARS


def test_parse_hole_requires_flag():
    with pytest.raises(ParseError):
        W("@*z1")
    w = parse_word("@*z1", Z12, allow_hole=True)
    assert w.factors[0] == HOLE


def test_parse_error_carries_position():
    try:
        W("z1**z2")
    except ParseError as exc:
        assert exc.pos >= 0
    else:
        pytest.fail("expected a parse error")


def test_extra_letters_side_channel():
    w = parse_word("x1*z1", Z12, extra_letters=("x1",))
    assert w.z_degree == 2


# -- contexts -----------------------------------------------------------------


def test_context_requires_one_hole():
    with pytest.raises(ValueError):
        Context(W("z1"))
    with pytest.raises(ValueError):
        Context(parse_word("@*@", Z12, allow_hole=True))


def test_plug_splices_at_top_level():
    q = parse_context("z1*@*z2", Z12)
    assert q.plug(W("[1]*z1")) == W("z1*[1]*z1*z2")
    # the unit erases the hole instead of leaving a gap
    assert q.plug(UNIT) == W("z1*z2")


def test_plug_inside_bracket():
    q = parse_context("[z1*@]", Z12)
    assert q.plug(W("z2*z2")) == W("[z1*z2*z2]")


def test_trivial_context():
    q = parse_context("@", Z12)
    assert q.is_trivial()
    u = W("[z1]*z2")
    assert q.plug(u) == u


@given(owords(max_z=2, max_op=2))
def test_hole_insertions_recover_the_word(u):
    for q in all_hole_insertions(u):
        assert q.plug(UNIT) == u


def test_hole_insertion_count_sample():
    # 3 top-level slots plus 2 inside the bracket
    assert len(all_hole_insertions(W("z1*[z2]"))) == 5


def test_random_context_nontrivial():
    rng = random.Random(4)
    for _ in range(25):
        q = random_context(rng, Z12, 2, 2, nontrivial=True)
        assert not q.is_trivial()


# -- occurrences and substitution --------------------------------------------


def test_occurrences_sample():
    occ = list(iter_occurrences(W("[z1*z2]"), W("z1*z2")))
    assert [str(q) for q in occ] == ["[@]"]


def test_occurrences_multiple():
    occ = list(iter_occurrences(W("z1*z1*z1"), W("z1*z1")))
    assert [str(q) for q in occ] == ["@*z1", "z1*@"]


def test_occurrences_of_unit_refused():
    with pytest.raises(ValueError):
        list(iter_occurrences(W("z1"), UNIT))


@given(owords(max_z=2, max_op=2), owords(max_z=2, max_op=1))
def test_occurrences_resubstitute(w, u):
    if u.is_unit():
        return
    for q in iter_occurrences(w, u):
        assert q.plug(u) == w


def test_substitute_distributes_over_poly():
    from opalg import OPoly

    q = parse_context("[@]", Z12)
    f = OPoly.from_word(W("z1")) - OPoly.from_word(W("z2"), 2)
    out = substitute(q, f)
    assert out == OPoly.from_word(W("[z1]")) - OPoly.from_word(W("[z2]"), 2)


# -- schema matching ----------------------------------------------------------


def test_schema_repeated_variable_rejected():
    schema = parse_word("x1*x1", Z12, extra_letters=("x1",))
    with pytest.raises(ValueError, match="repeats variable"):
        schema_occurrences(W("z1*z1"), schema, ("x1",))


def test_schema_match_binds_blocks():
    schema = parse_word("[x1]*x2", Z12, extra_letters=("x1", "x2"))
    target = W("[z1*z2]*z1")
    sigmas = list(align_factors(schema.factors, target.factors, ("x1", "x2")))
    assert sigmas == [{"x1": W("z1*z2"), "x2": W("z1")}]


def test_schema_match_splits_shortest_first():
    schema = parse_word("x1*x2", Z12, extra_letters=("x1", "x2"))
    sigmas = list(align_factors(schema.factors, W("z1*z2").factors, ("x1", "x2")))
    assert [(render(s["x1"]), render(s["x2"])) for s in sigmas] == [("1", "z1*z2"), ("z1", "z2"), ("z1*z2", "1")]
    sigmas = list(align_factors(schema.factors, W("z1*z2").factors, ("x1", "x2"), nonempty=("x1", "x2")))
    assert sigmas == [{"x1": W("z1"), "x2": W("z2")}]


def test_schema_match_variables_may_be_empty():
    schema = parse_word("x1*[x2]", Z12, extra_letters=("x1", "x2"))
    sigmas = list(align_factors(schema.factors, W("[1]").factors, ("x1", "x2")))
    assert sigmas == [{"x1": UNIT, "x2": UNIT}]


def test_schema_occurrences_skip_empty_slices():
    schema = parse_word("x1*x2", Z12, extra_letters=("x1", "x2"))
    hits = schema_occurrences(W("z1*z2"), schema, ("x1", "x2"))
    # three nonempty slices; (0,1) and (1,2) split 2 ways, (0,2) splits 3
    assert len(hits) == 7
    assert len({str(q) for q, _ in hits}) == 3
    for q, sigma in hits:
        assert not (sigma["x1"].is_unit() and sigma["x2"].is_unit())


def test_schema_occurrences_nonempty_constraint():
    schema = parse_word("[x1]*x2", Z12, extra_letters=("x1", "x2"))
    hits = schema_occurrences(W("[z1]"), schema, ("x1", "x2"), nonempty=("x2",))
    assert hits == []


def test_schema_occurrence_replug():
    schema = parse_word("[x1]*x2", Z12, extra_letters=("x1", "x2"))
    w = W("z1*[z2]*z1")
    for q, sigma in schema_occurrences(w, schema, ("x1", "x2")):
        inst = Word((Bracket(sigma["x1"]),)) * sigma["x2"]
        assert q.plug(inst) == w


# -- alphabets ----------------------------------------------------------------


def test_alphabet_rank_and_membership():
    assert "z1" in Z12 and "q" not in Z12
    assert Z12.rank("z1") < Z12.rank("z2")


def test_alphabet_rejects_duplicates():
    with pytest.raises(ValueError):
        Alphabet(("z", "z"))


# -- enumeration --------------------------------------------------------------


def test_all_words_tiny_budget_exact():
    got = {render(w) for w in all_words(Z1, 1, 1)}
    assert got == {"1", "z", "[1]", "[z]", "z*[1]", "[1]*z"}


def test_all_words_two_letters_one_bracket_exact():
    got = {render(w) for w in all_words(Z1, 2, 1)}
    expected = {
        "1", "z", "z*z",
        "[1]", "z*[1]", "[1]*z", "z*z*[1]", "z*[1]*z", "[1]*z*z",
        "[z]", "z*[z]", "[z]*z", "[z*z]",
    }
    assert got == expected


def reference_all_words(letters, max_z, max_op):
    """``all_words`` as it was before its cells were filled bottom-up: one
    recursive call per letter of degree and per bracket, each cell the whole
    pool within its bounds."""
    cache = {}

    def gen(d, p):
        if (d, p) in cache:
            return cache[d, p]
        acc = [UNIT]
        if d >= 1:
            for name in letters:
                for tail in gen(d - 1, p):
                    acc.append(Word((name,) + tail.factors))
        if p >= 1:
            for inner in gen(d, p - 1):
                for tail in gen(d - inner.z_degree, p - inner.op_degree - 1):
                    acc.append(Word((Bracket(inner),) + tail.factors))
        cache[d, p] = tuple(acc)
        return cache[d, p]

    return tuple(sorted(gen(max_z, max_op), key=structural_key))


@pytest.mark.parametrize("letters", [("z1",), ("z1", "z2"), ("a", "b", "c")])
def test_all_words_matches_the_recursive_reference(letters):
    # unwrapped, so the 112,962-word pool of three letters is not kept
    build = all_words.__wrapped__
    for max_z in range(5):
        for max_op in range(4):
            assert build(letters, max_z, max_op) == reference_all_words(letters, max_z, max_op)


def test_all_words_one_letter_far_past_the_recursion_limit():
    ws = all_words(("z1",), 2000, 0)
    assert len(ws) == 2001
    assert [w.z_degree for w in ws] == list(range(2001))


def test_all_words_sorted_and_unique():
    ws = all_words(Z12, 2, 1)
    keys = [structural_key(w) for w in ws]
    assert keys == sorted(keys)
    assert len(set(ws)) == len(ws)


@given(owords(max_z=2, max_op=1))
def test_random_word_lands_in_enumeration(u):
    assert u in set(all_words(Z12, 2, 1))


def test_structural_key_discriminates():
    assert structural_key(W("z1")) != structural_key(W("z2"))
    assert structural_key(W("[z1]*z2")) != structural_key(W("z2*[z1]"))
