"""Compiled splice plans, the split-free matcher and the length filter,
each against the reference path it replaced.

* Every identity compiles its body once into splice plans, and every
  instantiation runs through them.  The reference is the recursive splice
  (``conftest.instantiate_word``) driven by a copy of the ``instantiate``
  that used it; both must give the same polynomial and the same text on
  every identity of every catalog selector, for every jointly bounded word
  assignment inside (2,2) and for seeded polynomial values.
* ``terms._align`` binds a trailing variable, and a variable that is a
  bracket's whole inner, without trying splits.  A copy of the matcher that
  tried every split must yield the same bindings in the same order, on
  every slice of ``all_words(Z12, 3, 2)`` (and of deeper one-letter words
  for a deeper schema), for every catalog leading schema and for hand-made
  schemas with top-level, trailing and ``nonempty`` variables.
* A rule set scans only slices of a length some rule can match.  A rule
  whose left side has a top-level variable matches open-ended lengths; the
  scan must still find every redex the unfiltered reference finds.
* A context keeps its hole's position and rebuilds the word around what
  is plugged.  The reference is the hole-scanning splice; every hole
  insertion and every slice context of every word of
  ``all_words(Z12, 3, 2)`` must plug each word of ``all_words(Z12, 2, 1)``
  to the same word, and a slice context must be the context of the hole
  word built the old way.  Its text, rendered from the hole's position,
  must be the hole word's text.
"""

from itertools import product
from math import prod

import pytest
from hypothesis import given
from hypothesis import strategies as st

from conftest import CATALOG_SELECTORS, Z1, Z12, instantiate_word, opolys
from opalg import OPI, OPoly, OrderSpec, RuleSet, instantiate, parse_catalog, parse_opoly, render_opoly
from opalg.terms import _compile, _splice
from opalg.poly import _wrap
from opalg.rewrite import ConcreteRule, SchemaRule
from opalg.terms import (
    HOLE,
    Context,
    Word,
    _align,
    all_words,
    iter_occurrences,
    iter_slices,
    parse_context,
    parse_word,
    render,
    slice_context,
    word_tuples,
)
from reference import all_hole_insertions
from test_reduction import reference_redexes

PRESETS = ("db", "dt")
CASES = [(f"{sel}/{phi.name}", phi) for sel in CATALOG_SELECTORS for phi in parse_catalog(sel).opis]
XS = ("x1", "x2")
WORDS = all_words(Z12, 3, 2)


# -- reference copies ------------------------------------------------------------


def reference_instantiate(phi, sigma):
    """``instantiate`` as it was before plans: the recursive splice per body
    monomial and assignment, coefficients merged in one dict."""
    vs = phi.variables
    vset = frozenset(vs)
    choices = [((val, 1),) if isinstance(val, Word) else val._terms.items() for val in (sigma[v] for v in vs)]
    acc = {}
    for combo in product(*choices):
        words = {v: w for v, (w, _) in zip(vs, combo)}
        weight = prod(c for _, c in combo)
        for m, c in phi.body._terms.items():
            w = instantiate_word(m, words, vset)
            if weight != 1:
                c = weight * c
            prev = acc.get(w)
            acc[w] = c if prev is None else prev + c
    return _wrap({w: c for w, c in acc.items() if c})


def reference_align(sf, tf, variables, nonempty, binding):
    """The matcher that tried every split for every variable."""
    if not sf:
        if not tf:
            yield binding
        return
    head = sf[0]
    if isinstance(head, str) and head in variables:
        lo = 1 if head in nonempty else 0
        for k in range(lo, len(tf) + 1):
            b2 = dict(binding)
            b2[head] = Word(tf[:k])
            yield from reference_align(sf[1:], tf[k:], variables, nonempty, b2)
    elif isinstance(head, str):
        if tf and tf[0] == head:
            yield from reference_align(sf[1:], tf[1:], variables, nonempty, binding)
    else:
        if tf and isinstance(tf[0], Word):
            for b2 in reference_align(head.factors, tf[0].factors, variables, nonempty, binding):
                yield from reference_align(sf[1:], tf[1:], variables, nonempty, b2)


def reference_has_hole(u):
    for f in u.factors:
        if f == HOLE or (isinstance(f, Word) and reference_has_hole(f)):
            return True
    return False


def reference_plug(u, s):
    """``Context.plug`` as it was before plans: rescan the hole word for its
    hole at every bracket level."""
    out = []
    for f in u.factors:
        if f == HOLE:
            out.extend(s.factors)
        elif isinstance(f, Word) and reference_has_hole(f):
            out.append(reference_plug(f, s))
        else:
            out.append(f)
    return Word(out)


def reference_slice_context(level, i, j, frames):
    """``slice_context`` as it was before plans: the hole word, checked by
    ``Context``."""
    word = Word(level[:i] + (HOLE,) + level[j:])
    for outer, k in reversed(frames):
        word = Word(outer[:k] + (word,) + outer[k + 1 :])
    return Context(word)


# -- compiled plans --------------------------------------------------------------


def assert_same_instance(got, want):
    assert got == want
    assert hash(got) == hash(want)
    assert render_opoly(got) == render_opoly(want)


@pytest.mark.parametrize("name, phi", CASES, ids=[name for name, _ in CASES])
def test_plans_agree_with_the_recursive_splice_on_bounded_words(name, phi):
    vset = frozenset(phi.variables)
    n = 0
    for values in word_tuples(Z12, 2, 2, phi.arity):
        sigma = dict(zip(phi.variables, values))
        want = reference_instantiate(phi, sigma)
        assert_same_instance(phi.instance(values), want)
        assert_same_instance(instantiate(phi, sigma), want)
        for m in phi.body.support():
            assert phi.instance_word(m, values) is instantiate_word(m, sigma, vset)
        n += 1
    assert n > 100


@pytest.mark.parametrize("name, phi", CASES[::3], ids=[name for name, _ in CASES[::3]])
@given(data=st.data())
def test_plans_agree_with_the_recursive_splice_on_polynomial_values(name, phi, data):
    sigma = {v: data.draw(opolys(max_z=2, max_op=2, max_terms=3)) for v in phi.variables}
    assert_same_instance(instantiate(phi, sigma), reference_instantiate(phi, sigma))


def test_mixed_word_and_polynomial_values_agree():
    phi = parse_catalog("rb:6?lambda=1").opis[0]
    u = parse_word("z1*[z2]", Z12)
    f = parse_opoly("2*z1 - 1/2*[z2] + 3", Z12)
    for sigma in ({"x1": u, "x2": f}, {"x1": f, "x2": u}, {"x1": f, "x2": f}, {"x1": u, "x2": OPoly.zero()}):
        assert_same_instance(instantiate(phi, sigma), reference_instantiate(phi, sigma))


def test_plan_segments():
    index = {"x1": 0, "x2": 1}
    u, v = parse_word("z1*[z2]", Z12), parse_word("[1]", Z12)
    # a bare variable is its own value
    assert _compile(Word(("x1",)), index) == 0
    assert _splice(0, [u, v]) is u
    # a lone variable in a bracket nests the bare-variable plan, so the
    # bracket factor is the value itself
    plan = _compile(parse_word("[x1]*z2*[1]*x2*[z1*[x2]]", Z12, extra_letters=XS), index)
    kinds = [kind for kind, _ in plan]
    assert kinds == [2, 0, 1, 2]
    assert plan[0] == (2, 0)
    assert plan[1] == (0, ("z2", Word(())))
    assert _splice(plan, [u, v]) is parse_word("[z1*[z2]]*z2*[1]*[1]*[z1*[[1]]]", Z12)
    # a body with a bare-variable monomial
    phi = parse_catalog("diffprime?c=1").opis[0]
    assert phi.instance_word(Word(("x1",)), [u]) is u


def test_plans_are_compiled_once():
    phi = OPI("t", XS, parse_opoly("[x1]*[x2] - [x1*x2]", Z12, extra_letters=XS))
    assert phi._plan is None
    phi.instance([Word(("z1",)), Word(("z2",))])
    plan = phi._plan
    instantiate(phi, {"x1": Word(()), "x2": OPoly.from_word(Word(("z2",)))})
    assert phi._plan is plan


# -- the split-free matcher ------------------------------------------------------


def _schema(text):
    return parse_word(text, Z12, extra_letters=("x1", "x2", "x3"))


HAND_MADE = [
    # top-level variables, trailing variables, variables as a whole inner
    "x1",
    "x1*[x2]",
    "[x1]*x2",
    "x1*z1*x2",
    "z1*x1",
    "[x1*z1]*x2",
    "[z1*x1]*[x2]",
    "[x1*x2]",
    "[[x1]]*x2",
    "x1*[x2]*x3",
    "[x1*[x2]]*x3",
    "[x1]*[x2]*[x3]",
]


def _leading_schemas():
    seen = {}
    for _, phi in CASES:
        for preset in PRESETS:
            seen.setdefault((phi.lm(preset), phi.variables), None)
    for text in HAND_MADE:
        seen.setdefault((_schema(text), ("x1", "x2", "x3")), None)
    return list(seen)


SCHEMAS = _leading_schemas()


@pytest.mark.parametrize("schema, variables", SCHEMAS, ids=[str(s) for s, _ in SCHEMAS])
def test_align_agrees_with_the_split_enumeration(schema, variables):
    vs = frozenset(variables)
    # a schema deeper than the pool also meets words as deep as itself
    pool = WORDS + (all_words(Z1, 1, schema.op_degree) if schema.op_degree > 2 else ())
    matched = 0
    for nonempty in (frozenset(), vs, frozenset(variables[:1])):
        for w in pool:
            for level, i, j, _ in iter_slices(w):
                sl = level[i:j]
                got = list(_align(schema.factors, sl, vs, nonempty, {}))
                want = list(reference_align(schema.factors, sl, vs, nonempty, {}))
                assert got == want, (schema, w, sl, nonempty)
                matched += len(got)
    assert matched


# -- the length filter -----------------------------------------------------------


def _open_rule_sets():
    order = OrderSpec.for_alphabet("db", Z12)
    lead = _schema("x1*[x2]")
    phi = OPI("open", XS, parse_opoly("x1*[x2] - x1*x2", Z12, extra_letters=XS))
    wide = OPI("wide", XS, parse_opoly("x1*z2*x2 - z2*x1*x2", Z12, extra_letters=XS))
    nested = OPI("nested", XS, parse_opoly("[x1*x2] - [x2]*x1", Z12, extra_letters=XS))
    concrete = ConcreteRule("c", parse_word("z1*z1*z2", Z12), parse_opoly("z2", Z12))
    yield "ordered", RuleSet([SchemaRule("open", phi, lead), concrete], order)
    yield "ordered nonempty", RuleSet([concrete, SchemaRule("open", phi, lead, frozenset(XS))], order)
    yield "raw", RuleSet.raw(
        [SchemaRule("nested", nested, _schema("[x1*x2]")), SchemaRule("wide", wide, _schema("x1*z2*x2"), frozenset({"x1"}))]
    )


OPEN_SETS = list(_open_rule_sets())


@pytest.mark.parametrize("name, rules", OPEN_SETS, ids=[name for name, _ in OPEN_SETS])
def test_length_filter_keeps_every_redex_of_an_open_length_rule(name, rules):
    assert rules._open_from is not None
    found = 0
    for w in WORDS:
        got = list(rules.iter_redexes(w))
        assert got == list(reference_redexes(rules, w)), w
        found += len(got)
    assert found > 100


def test_matchable_lengths():
    order = OrderSpec.for_alphabet("db", Z12)
    by_name = dict(OPEN_SETS)
    assert (by_name["ordered"]._lengths, by_name["ordered"]._open_from) == ({3}, 1)
    assert by_name["ordered nonempty"]._open_from == 2
    assert (by_name["raw"]._lengths, by_name["raw"]._open_from) == ({1}, 2)
    phi = parse_catalog("rb:6?lambda=1").opis[0]
    closed = RuleSet([SchemaRule(phi.name, phi, phi.lm("db"))], order)
    assert (closed._lengths, closed._open_from) == ({2}, None)


# -- contexts as hole positions ----------------------------------------------------

PLUGGED = all_words(Z12, 2, 1)


def test_contexts_plug_as_the_hole_scan_does():
    contexts = 0
    for w in WORDS:
        for q in all_hole_insertions(w) + [slice_context(*sl) for sl in iter_slices(w)]:
            for s in PLUGGED:
                assert q.plug(s) is reference_plug(q.word, s), (q, s)
            contexts += 1
    assert contexts > 10 * len(WORDS)


def test_slice_contexts_are_the_contexts_of_their_hole_words():
    trivial = 0
    for w in WORDS:
        for level, i, j, frames in iter_slices(w):
            q = slice_context(level, i, j, frames)
            want = reference_slice_context(level, i, j, frames)
            assert q.word is want.word
            assert q == want and want == q
            assert hash(q) == hash(want)
            assert str(q) == str(want) and repr(q) == repr(want)
            assert q.is_trivial() == want.is_trivial()
            trivial += q.is_trivial()
    assert trivial == len(WORDS) - 1  # every word but the unit is one whole slice


def test_context_text_is_rendered_from_the_holes_position():
    # str, repr and hash render the coordinates, never building the hole word
    contexts = [slice_context(*sl) for w in WORDS for sl in iter_slices(w)]
    contexts += [parse_context(t, Z12) for t in ("@", "z1*@", "[@]*[1]", "z1*[z2*[@]*z1]*[[z2]]", "[[1]*@*[z1*z2]]")]
    for q in contexts:
        text = render(q.word)
        assert str(q) == text and repr(q) == f"Context({text!r})"
        assert hash(q) == hash((Context, text))
        assert q == parse_context(text, Z12)
    assert len(contexts) > 7000


def test_a_word_holding_a_hole_has_no_occurrence_contexts():
    # a slice context of such a word would hold two holes
    w = parse_word("z1*[@*z2]", Z12, allow_hole=True)
    with pytest.raises(ValueError, match="exactly one hole, found 2"):
        next(iter_occurrences(w, parse_word("z2", Z12)))


def test_a_hole_outside_the_slices_level_is_refused_too():
    for text in ("[@]*z2", "z2*[z1*[@]]"):
        w = parse_word(text, Z12, allow_hole=True)
        with pytest.raises(ValueError, match="exactly one hole, found 2"):
            next(iter_occurrences(w, parse_word("z2", Z12)))


def test_contexts_plug_at_their_holes_position():
    q = parse_context("z1*[z2*@]*[1]", Z12)
    u = parse_word("z1*[z2]", Z12)
    assert q.plug(u) is parse_word("z1*[z2*z1*[z2]]*[1]", Z12)
    assert q.plug(Word(())) is parse_word("z1*[z2]*[1]", Z12)
    assert parse_context("[@]", Z12).plug(u) is parse_word("[z1*[z2]]", Z12)
    bare = parse_context("@", Z12)
    assert bare.is_trivial() and bare.plug(u) is u


def test_slice_contexts_share_the_scanned_words_levels():
    w = parse_word("z1*[z2*[z1]*z2]*z1", Z12)
    kept = 0
    for level, i, j, frames in iter_slices(w):
        q = slice_context(level, i, j, frames)
        assert q.level is level and q.frames is frames
        assert q.plug(Word(level[i:j])) is w
        kept += 1
    assert kept > 10
