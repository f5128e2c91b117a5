"""Exact coefficients: ``int`` when integral, ``Fraction`` otherwise.

``OPoly`` stores an integral coefficient as a Python ``int`` and keeps a
``Fraction`` only for a denominator above 1, so the integral identities of
the catalog compute without rational arithmetic.  The reference below is a
copy of the all-``Fraction`` arithmetic ``OPoly`` had before: every
operation on seeded random polynomials with mixed coefficients must give
an equal polynomial that renders to the same text.  The fast path itself is
pinned too: catalog bodies, expanded generators and audit normal forms of
the integral identities hold ``int`` coefficients only, so a stray
``Fraction`` fails here and not only as a slowdown.  Inexact scalars
(floats, strings, decimals) are refused.
"""

import random
from decimal import Decimal
from fractions import Fraction

import pytest

import opalg.rewrite as rewrite
from conftest import CATALOG_SELECTORS, Z12
from opalg import OPoly, OrderSpec, check_rb_type, parse_catalog, render_opoly
from opalg.opi import expand_instances
from opalg.poly import _wrap
from opalg.terms import UNIT, Word, bracket
from reference import random_word

DB = OrderSpec.for_alphabet("db", Z12)
DT = OrderSpec.for_alphabet("dt", Z12)

COEFFS = (1, -1, 2, -3, Fraction(1, 2), Fraction(-2, 3))
TRIALS = 300


# -- the all-Fraction reference ----------------------------------------------


def ref_build(pairs):
    acc = {}
    for w, c in pairs:
        c = Fraction(c)
        if not c:
            continue
        s = acc.get(w, Fraction(0)) + c
        if s:
            acc[w] = s
        else:
            acc.pop(w, None)
    return acc


def ref_add(a, b):
    acc = dict(a)
    for w, c in b.items():
        s = acc.get(w, Fraction(0)) + c
        if s:
            acc[w] = s
        else:
            acc.pop(w, None)
    return acc


def ref_neg(a):
    return {w: -c for w, c in a.items()}


def ref_sub(a, b):
    return ref_add(a, ref_neg(b))


def ref_scale(a, c):
    c = Fraction(c)
    if not c:
        return {}
    return {w: c * k for w, k in a.items()}


def ref_mul(a, b):
    acc = {}
    for u, x in a.items():
        for v, y in b.items():
            w = u * v
            s = acc.get(w, Fraction(0)) + x * y
            if s:
                acc[w] = s
            else:
                acc.pop(w, None)
    return acc


def ref_monicize(a, order):
    lead = order.max(a)
    c = a[lead]
    return a if c == 1 else ref_scale(a, Fraction(1) / c)


def ref_apply_bracket(a):
    return {bracket(w): c for w, c in a.items()}


def ref_map_words(a, fn):
    return ref_build((fn(w), c) for w, c in a.items())


# -- seeded inputs ------------------------------------------------------------


def _pairs(rng, coeffs=COEFFS, max_terms=5):
    return [
        (random_word(rng, Z12, 3, 2), rng.choice(coeffs))
        for _ in range(rng.randrange(max_terms + 1))
    ]


def _pair_of_polys(rng, coeffs=COEFFS):
    pa, pb = _pairs(rng, coeffs), _pairs(rng, coeffs)
    return OPoly(pa), ref_build(pa), OPoly(pb), ref_build(pb)


def _first_factor(w):
    # a word map with many collisions, so merged terms cancel and add up
    return Word(w.factors[:1])


def assert_matches(got, want):
    assert isinstance(got, OPoly)
    assert got._terms == want
    for order in (None, DB, DT):
        assert render_opoly(got, order) == render_opoly(_wrap(dict(want)), order)


def assert_int_coefficients(f):
    bad = [(w, c) for w, c in f._terms.items() if type(c) is not int]
    assert not bad, f"non-int coefficients {bad} in {f}"


# -- arithmetic against the reference -------------------------------------------


@pytest.mark.parametrize("seed", range(3))
def test_ring_operations_match_reference(seed):
    rng = random.Random(seed)
    for _ in range(TRIALS):
        f, rf, g, rg = _pair_of_polys(rng)
        assert_matches(f, rf)
        assert_matches(f + g, ref_add(rf, rg))
        assert_matches(f - g, ref_sub(rf, rg))
        assert_matches(f - f, {})
        assert_matches(f * g, ref_mul(rf, rg))
        assert_matches(-f, ref_neg(rf))
        assert f == _wrap(dict(rf)) and hash(f) == hash(_wrap(dict(rf)))


@pytest.mark.parametrize("seed", range(3))
def test_scaling_and_maps_match_reference(seed):
    rng = random.Random(seed)
    for _ in range(TRIALS):
        f, rf, _, _ = _pair_of_polys(rng)
        c = rng.choice(COEFFS + (0, Fraction(3, 1), Fraction(0)))
        assert_matches(f.scale(c), ref_scale(rf, c))
        assert_matches(c * f, ref_scale(rf, c))
        assert_matches(f * c, ref_scale(rf, c))
        assert_matches(f.apply_bracket(), ref_apply_bracket(rf))
        assert_matches(f.map_words(_first_factor), ref_map_words(rf, _first_factor))
        if rf:
            for order in (DB, DT):
                assert_matches(f.monicize(order), ref_monicize(rf, order))
                assert f.leading(order) == (order.max(rf), rf[order.max(rf)])


@pytest.mark.parametrize("seed", range(3))
def test_integral_input_stays_int(seed):
    rng = random.Random(seed)
    ints = (1, -1, 2, -3, Fraction(4), Fraction(-1))
    for _ in range(TRIALS):
        f, _, g, _ = _pair_of_polys(rng, ints)
        for h in (f, g, f + g, f - g, f * g, -f, f.scale(-3), f.apply_bracket(), f.map_words(_first_factor)):
            assert_int_coefficients(h)


def test_integral_fractions_are_stored_as_ints():
    w, v = random_word(random.Random(1), Z12, 2, 1), Word(("z1",))
    f = OPoly({w: Fraction(4, 2), v: Fraction(-6)})
    assert_int_coefficients(f)
    assert_int_coefficients(OPoly.from_word(w, Fraction(1)))
    assert_int_coefficients(OPoly.constant(Fraction(-3, 1)))
    # monic scaling by a non-integral 1/lc cancels back to ints
    z2 = Word(("z2",))
    g = OPoly({v: 2, z2: 4, UNIT: -6})
    assert_int_coefficients(g.scale(Fraction(1, 2)))
    assert g.scale(Fraction(1, 2)) == OPoly({v: 1, z2: 2, UNIT: -3})
    h = OPoly({v: -2, z2: -2, UNIT: 2})
    assert_int_coefficients(h.monicize(DB))
    assert h.monicize(DB) == OPoly({v: 1, z2: 1, UNIT: -1})
    half = OPoly.constant(Fraction(1, 2))
    assert type(half.coeff(UNIT)) is Fraction


def test_bool_is_an_integral_scalar():
    one = OPoly.constant(True)
    assert one == OPoly.one()
    assert type(one.coeff(UNIT)) is int
    assert OPoly.constant(False).is_zero()


# -- inexact scalars are refused ----------------------------------------------


@pytest.mark.parametrize("bad", [0.1, 1.0, "1/3", Decimal(1), complex(1, 0), None])
def test_inexact_scalar_is_refused(bad):
    name = type(bad).__name__
    w = Word(("z1",))
    with pytest.raises(TypeError, match=name):
        OPoly.constant(bad)
    with pytest.raises(TypeError, match=name):
        OPoly.from_word(w, bad)
    with pytest.raises(TypeError, match=name):
        OPoly({w: bad})
    with pytest.raises(TypeError, match=name):
        OPoly.from_word(w).scale(bad)


def test_float_product_is_refused():
    with pytest.raises(TypeError):
        OPoly.one() * 0.5
    with pytest.raises(TypeError):
        0.5 * OPoly.one()


# -- the fast path is pinned -----------------------------------------------------


INTEGRAL_SELECTORS = CATALOG_SELECTORS + ["diff:3?l01=1", "diff:3?l10=1,l00=0", "diff:4?b=1"]


@pytest.mark.parametrize("selector", INTEGRAL_SELECTORS)
def test_catalog_bodies_have_int_coefficients(selector):
    for phi in parse_catalog(selector).opis:
        assert_int_coefficients(phi.body)


def test_non_integral_parameter_keeps_its_fraction():
    (phi,) = parse_catalog("rb:6?lambda=1/2").opis
    assert Fraction(-1, 2) in phi.body._terms.values()


# reynolds?n=4 has no instance inside (2,2), so it is expanded at (2,3)
@pytest.mark.parametrize(
    "selector, bounds", [("rb:6?lambda=1", (2, 2)), ("averaging", (2, 2)), ("reynolds?n=4", (2, 3))]
)
def test_expanded_generators_have_int_coefficients(selector, bounds):
    entry = parse_catalog(selector)
    gens = expand_instances(entry.opis, Z12, bounds, OrderSpec.for_alphabet(entry.preset, Z12))
    assert gens
    for g in gens:
        assert_int_coefficients(g.poly)


def test_rb1_audit_normal_forms_have_int_coefficients(monkeypatch):
    seen = []
    real = rewrite.normal_form

    def recording(f, rules, fuel, **kw):
        res = real(f, rules, fuel, **kw)
        seen.append((f, res))
        return res

    monkeypatch.setattr(rewrite, "normal_form", recording)
    rep = check_rb_type(parse_catalog("rb:1"), Z12, (2, 1), 10_000)
    assert rep.passed
    assert len(seen) > 100
    for f, res in seen:
        assert_int_coefficients(f)
        assert_int_coefficients(res.poly)
