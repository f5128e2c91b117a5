"""Interned words against the structural reference.

Words are hash-consed: structurally equal words are the same object, so
``==`` and ``hash`` are by identity.  A bracket factor is its inner word.  The reference below is the
structural equality, hash and rendering words had before interning; every
check compares the interned behaviour with it, over the whole pool
``all_words(Z12, 3, 3)`` and over seeded random words and contexts.
"""

import copy
import gc
import pickle
import random
import weakref

import pytest

from conftest import Z12
from opalg import OPoly
from opalg import terms
from opalg.terms import _compile, _splice
from opalg.terms import (
    Word,
    bracket,
    all_words,
    iter_slices,
    parse_word,
    render,
    slice_context,
    structural_key,
)
from reference import random_context, random_word

POOL = all_words(Z12, 3, 3)


# -- the structural reference ------------------------------------------------


def ref_form(u):
    """Nested tuples of letters and ``("[", inner form)`` pairs: two words
    are structurally equal exactly when their forms are equal."""
    return tuple(f if isinstance(f, str) else ("[", ref_form(f)) for f in u.factors)


def ref_eq(u, v):
    # the structural __eq__ of Word before interning, a bracket factor
    # compared by its inner word
    return len(u.factors) == len(v.factors) and all(
        f == g if isinstance(f, str) or isinstance(g, str) else ref_eq(f, g)
        for f, g in zip(u.factors, v.factors)
    )


def ref_render(u):
    if not u.factors:
        return "1"
    return "*".join(f if isinstance(f, str) else "[" + ref_render(f) + "]" for f in u.factors)


def ref_key(u):
    z = sum(1 for f in u.factors if isinstance(f, str))
    op = 0
    for f in u.factors:
        if isinstance(f, Word):
            iz, iop, _, _ = ref_key(f)
            z, op = z + iz, op + iop + 1
    return (z, op, len(u.factors), ref_render(u))


def ref_substitute(form, values):
    """A form with each letter in ``values`` replaced by the factors of its
    value's form, at every depth."""
    out = []
    for f in form:
        if isinstance(f, tuple):
            out.append(("[", ref_substitute(f[1], values)))
        elif f in values:
            out.extend(values[f])
        else:
            out.append(f)
    return tuple(out)


def build(form):
    """A word rebuilt bottom-up from its reference form."""
    return Word(f if isinstance(f, str) else build(f[1]) for f in form)


def random_words(seed, n=300):
    rng = random.Random(seed)
    return [random_word(rng, Z12, 4, 3) for _ in range(n)]


# -- equality, hash and rendering --------------------------------------------


def test_pool_words_are_structurally_distinct_and_rebuild_to_themselves():
    # == is identity, so it agrees with the reference on every pair of the
    # pool exactly when distinct objects have distinct forms and each form
    # rebuilds to its own object
    forms = {}
    for w in POOL:
        assert forms.setdefault(ref_form(w), w) is w
        assert build(ref_form(w)) is w
    assert len(forms) == len(POOL)


def test_equality_and_hash_agree_with_the_reference_on_random_pairs():
    rng = random.Random(20261018)
    words = random_words(1) + list(rng.sample(POOL, 300))
    for _ in range(5000):
        u, v = rng.choice(words), rng.choice(words)
        assert (u == v) == ref_eq(u, v) == (u is v)
        assert (u != v) == (not ref_eq(u, v))
        if ref_eq(u, v):
            assert hash(u) == hash(v)


def test_render_and_structural_key_agree_with_the_reference():
    for w in POOL + tuple(random_words(2)):
        assert render(w) == ref_render(w)
        assert structural_key(w) == ref_key(w)
        # filled once: a second call hands back the same key object
        assert structural_key(w) is structural_key(w)


def test_a_bracket_factor_is_its_inner_word():
    for w in POOL[:500]:
        b = bracket(w)
        assert b.factors == (w,) and b.factors[0] is w
        assert bracket(build(ref_form(w))) is b
        # a bracket factor never equals a letter, and a letter never a
        # bracket factor: [z1]'s factor is the word z1, not the letter
        assert b.factors[0] != "z1" and "z1" != b.factors[0]


# -- every route to a word reaches the same object ----------------------------


def test_words_reached_by_different_routes_are_the_same_object():
    for w in POOL + tuple(random_words(3)):
        fs = w.factors
        assert parse_word(render(w), Z12) is w
        assert Word(list(fs)) is w
        assert Word(iter(fs)) is w
        for i in range(len(fs) + 1):
            assert Word(fs[:i]) * Word(fs[i:]) is w
        for level, i, j, frames in iter_slices(w):
            assert slice_context(level, i, j, frames).plug(Word(level[i:j])) is w
        if fs:
            # the first factor as the value of a variable, at the top level
            schema = Word(("x1",) + fs[1:])
            assert _splice(_compile(schema, {"x1": 0}), [Word(fs[:1])]) is w


def test_instantiate_reaches_inner_words_too():
    rng = random.Random(5)
    xs = ("x1", "x2")
    for text in ("[x1*z1]*x2", "x2*[[x1]*z2*x2]", "[x1*[x2*[1]]]"):
        schema = parse_word(text, Z12, extra_letters=xs)
        for _ in range(100):
            sigma = {x: random_word(rng, Z12, 2, 2) for x in xs}
            want = ref_substitute(ref_form(schema), {x: ref_form(w) for x, w in sigma.items()})
            assert _splice(_compile(schema, {x: k for k, x in enumerate(xs)}), [sigma[x] for x in xs]) is build(want)


def test_pools_share_their_words():
    small = all_words(Z12, 2, 2)
    ids = {id(w) for w in POOL}
    assert all(id(w) in ids for w in small)
    assert all_words(tuple(Z12), 2, 2) == small


def test_plugging_random_contexts_agrees_with_the_reference():
    rng = random.Random(7)
    for _ in range(500):
        q = random_context(rng, Z12, 3, 2)
        s = random_word(rng, Z12, 2, 2)
        got = q.plug(s)
        want = ref_substitute(ref_form(q.word), {"@": ref_form(s)})
        assert ref_form(got) == want
        assert build(want) is got
        assert parse_word(render(got), Z12) is got


# -- pickle and copy ------------------------------------------------------------


def test_pickle_and_copy_return_the_interned_object():
    for w in POOL[::7] + tuple(random_words(4, 50)):
        for protocol in range(pickle.HIGHEST_PROTOCOL + 1):
            assert pickle.loads(pickle.dumps(w, protocol)) is w
        assert copy.copy(w) is w
        assert copy.deepcopy(w) is w
    f = OPoly({POOL[5]: 2, POOL[40]: -1})
    g = copy.deepcopy(f)
    assert g == f and all(u is v for u, v in zip(g.support(), f.support()))


# -- the table frees what nothing references ---------------------------------


def test_the_table_drops_words_nothing_references():
    gc.collect()
    before = len(terms._WORDS)
    # letters no other test uses, so none of these words is in a pool
    w = parse_word("[[q1*[q2]]*q3]*[[q1*[q2]]*q3]*q4")
    # q2, q1*[q2], [q1*[q2]]*q3 and the whole word: the repeated bracket is
    # one object
    assert len(terms._WORDS) - before == 4
    assert w.factors[0] is w.factors[1]
    refs = [weakref.ref(w), weakref.ref(w.factors[0]), weakref.ref(w.factors[0].factors[0])]
    del w
    gc.collect()
    assert all(r() is None for r in refs)
    assert len(terms._WORDS) == before
    assert all(r() is not None for r in terms._WORDS.values())


def test_a_word_rebuilt_after_it_was_freed_is_interned_again():
    w = parse_word("q5*[q6]")
    key = w.factors
    del w
    gc.collect()
    assert key not in terms._WORDS
    u = parse_word("q5*[q6]")
    assert Word(key) is u and terms._WORDS[key]() is u


def test_bad_factors_are_refused():
    with pytest.raises(TypeError, match="bad factor"):
        Word((1,))
    with pytest.raises(TypeError):
        Word((["z1"],))
    with pytest.raises(TypeError, match="bracket inner must be a Word"):
        bracket("z1")
