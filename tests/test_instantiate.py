"""``instantiate`` against the reference substitution it replaced.

The reference expands every schema monomial into its own polynomial,
distributing polynomial values factor by factor, and sums the scaled
pieces with polynomial arithmetic.  The multilinear path splices word
assignments and merges coefficients in one dict; both must give the same
polynomial, the same hash and the same text, for every catalog identity.
"""

from fractions import Fraction
from itertools import product

import pytest
from hypothesis import given, seed
from hypothesis import strategies as st

from conftest import CATALOG_SELECTORS, Z12, opolys
from opalg import OPoly, OrderSpec, expand_instances, instantiate, parse_catalog, parse_opoly, render_opoly
from opalg.terms import Bracket, Word, all_words, word_tuples

CASES = [(f"{sel}/{phi.name}", phi) for sel in CATALOG_SELECTORS for phi in parse_catalog(sel).opis]
OPIS = [phi for _, phi in CASES]


def _subst_word(m, sigma, variables):
    # expand one schema monomial; polynomial values distribute
    acc = [((), Fraction(1))]
    for f in m.factors:
        if isinstance(f, str) and f in variables:
            val = sigma[f]
            if isinstance(val, Word):
                acc = [(fs + val.factors, c) for fs, c in acc]
            else:
                acc = [
                    (fs + w.factors, c * cw)
                    for fs, c in acc
                    for w, cw in val.items(reverse=False)
                ]
        elif isinstance(f, str):
            acc = [(fs + (f,), c) for fs, c in acc]
        else:
            inner = _subst_word(f.inner, sigma, variables)
            acc = [
                (fs + (Bracket(w),), c * cw)
                for fs, c in acc
                for w, cw in inner.items(reverse=False)
            ]
    return OPoly((Word(fs), c) for fs, c in acc)


def reference_instantiate(phi, sigma):
    """The substitution as it was before the multilinear path."""
    vset = frozenset(phi.variables)
    out = OPoly.zero()
    for m, c in phi.body.items(reverse=False):
        out = out + _subst_word(m, sigma, vset).scale(c)
    return out


def assert_agree(phi, sigma):
    got = instantiate(phi, sigma)
    want = reference_instantiate(phi, sigma)
    assert got == want, (phi.name, sigma)
    assert hash(got) == hash(want)
    assert render_opoly(got) == render_opoly(want)


def word_assignments(phi):
    """Every assignment with each value within (2,1) -- the domain of the
    exhaustive stability reference in ``test_stability`` -- plus every
    assignment within the joint budget (2,2), the domain
    ``expand_instances`` enumerates.  Arity above 2 takes the joint budget
    only, as that reference does."""
    joint = list(word_tuples(Z12, 2, 2, phi.arity))
    if phi.arity > 2:
        return joint
    per_value = product(all_words(Z12, 2, 1), repeat=phi.arity)
    return list(dict.fromkeys([*per_value, *joint]))


@pytest.mark.parametrize("phi", OPIS, ids=[name for name, _ in CASES])
def test_word_instances_agree_with_reference(phi):
    count = 0
    for values in word_assignments(phi):
        assert_agree(phi, dict(zip(phi.variables, values)))
        count += 1
    assert count


@seed(20261018)
@given(st.sampled_from(OPIS), st.data())
def test_polynomial_instances_agree_with_reference(phi, data):
    sigma = {v: data.draw(opolys(max_z=2, max_op=1, max_terms=3), label=v) for v in phi.variables}
    assert_agree(phi, sigma)


def test_cancelling_values_give_zero():
    phi = parse_catalog("rb:6?lambda=1").opis[0]
    f = parse_opoly("z1 - z2", Z12)
    zero = f - f
    assert zero.is_zero()
    assert_agree(phi, {"x1": zero, "x2": f})
    assert instantiate(phi, {"x1": zero, "x2": f}).is_zero()
    # the values cancel inside the instance, not before it
    half = parse_opoly("z1 + z2", Z12)
    assert_agree(phi, {"x1": f, "x2": half})
    assert_agree(phi, {"x1": f + half, "x2": half - f})


def test_equal_polynomials_hash_equal_however_built():
    phi = parse_catalog("rb:6?lambda=1").opis[0]
    u, v = Word(("z1",)), Word(("z2",))
    by_instance = instantiate(phi, {"x1": u, "x2": v})
    text = render_opoly(by_instance)
    by_init = OPoly(dict(by_instance.items()))
    by_parse = parse_opoly(text, Z12)
    by_arithmetic = OPoly.zero()
    for w, c in by_instance.items():
        by_arithmetic = by_arithmetic + OPoly.from_word(w).scale(c)
    by_reference = reference_instantiate(phi, {"x1": u, "x2": v})
    built = [by_instance, by_init, by_parse, by_arithmetic, by_reference]
    assert len({hash(f) for f in built}) == 1
    assert len(set(built)) == 1
    # hashing once caches the value; a second call must agree
    assert hash(by_instance) == hash(by_instance)
    assert {by_arithmetic: "x"}[by_instance] == "x"
    assert len({OPoly.zero(), instantiate(phi, {"x1": OPoly.zero(), "x2": v}), OPoly(())}) == 1


def test_expand_instances_deduplicates_through_lazy_hash():
    order = OrderSpec.for_alphabet("dt", Z12)
    opis = parse_catalog("averaging").opis
    recs = expand_instances(opis, Z12, (2, 2), order)
    monic = [r.poly.monicize(order) for r in recs]
    assert len(set(monic)) == len(monic)
    twice = expand_instances(opis + opis, Z12, (2, 2), order)
    assert [r.gen_id for r in twice] == [r.gen_id for r in recs]
