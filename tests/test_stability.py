"""``check_lm_stability`` against exhaustive enumeration.

The reference tries every assignment in the check's own domain: each
value within the bounds for arity up to 2, a joint budget above that,
units included.  It splices the assignment into every body monomial,
merges coefficients and takes the leading word of what survives.  The
check under test may certify a monomial without enumerating; every such
monomial must then lose to the instantiated leading schema on every
assignment, and the verdict and violation list must equal the
reference's.  CI runs this file under ``python -O`` too: the certificate
is a soundness check and must not rely on ``assert``.
"""

import random
from itertools import product

import pytest
from hypothesis import given, seed
from hypothesis import strategies as st

from conftest import CATALOG_SELECTORS, Z12
from opalg import OPI, OPoly, OrderSpec, check_lm_stability, parse_catalog
from opalg.opi import _schema_cmp, instantiate_word
from opalg.terms import Bracket, Word, all_words, parse_word, render, word_tuples


def _distinct_identities():
    # configurations that share a body and a preset (nijenhuis and rb:5,
    # diff:4 and diff:1 at their defaults, ...) are checked once
    seen = {}
    for sel in CATALOG_SELECTORS:
        entry = parse_catalog(sel)
        for phi in entry.opis:
            seen.setdefault((phi.body, entry.preset), (phi, entry.preset))
    return list(seen.values())


IDENTITIES = _distinct_identities()
XVARS = ("x1", "x2")


def _domain(phi, bounds):
    if phi.arity <= 2:
        return product(all_words(Z12, *bounds), repeat=phi.arity)
    return word_tuples(Z12, *bounds, phi.arity)


def reference_sweep(cases, bounds):
    """The exhaustive check of several identities over the same variables,
    sharing one pass over their common domain and one splice per distinct
    monomial and assignment.  ``cases`` holds ``(phi, order, certified)``;
    returns ``(count, violations)`` per case, and raises when a monomial in
    ``certified`` fails to lose to the instantiated leading schema."""
    variables = cases[0][0].variables
    vset = frozenset(variables)
    # one object per distinct monomial, so the splice cache hits on identity
    canon = {}

    def one(m):
        return canon.setdefault(m, m)

    states = [
        (
            phi,
            order,
            one(phi.lm(order.preset)),
            [(one(m), phi.body.coeff(m)) for m in phi.body.support()],
            [one(m) for m in certified],
            [],
        )
        for phi, order, certified in cases
    ]
    count = 0
    for tup in _domain(cases[0][0], bounds):
        count += 1
        sigma = dict(zip(variables, tup))
        words = {}
        for phi, order, lm, body, certified, violations in states:
            for m, _ in body:
                if m not in words:
                    words[m] = instantiate_word(m, sigma, vset)
            lead = words[lm]
            for m in certified:
                if order.compare(lead, words[m]) <= 0:
                    raise AssertionError(
                        f"{phi.name}: certified {render(m)} is not below the lead at "
                        f"{', '.join(f'{v}={render(w)}' for v, w in sigma.items())}"
                    )
            live = [words[m] for m, _ in body]
            if len(set(live)) < len(live):  # monomials collide: merge coefficients
                acc = {}
                for m, c in body:
                    acc[words[m]] = acc.get(words[m], 0) + c
                live = [w for w, c in acc.items() if c]
            if live and len(violations) < 10:
                got = order.max(live)
                if got != lead:
                    sig = ", ".join(f"{v}={render(w)}" for v, w in sigma.items())
                    violations.append((sig, render(got)))
    return [(count, state[-1]) for state in states]


def _certified_monomials(phi, rep):
    texts = {text for text, _ in rep.certified}
    return [m for m in phi.body.support() if render(m) in texts]


def _disagreements(cases, bounds):
    """Every way in which ``check_lm_stability`` on ``(phi, order)`` cases
    over the same variables differs from the exhaustive reference."""
    reports = [check_lm_stability(phi, order, Z12, bounds, include_units=True) for phi, order in cases]
    swept = reference_sweep(
        [(phi, order, _certified_monomials(phi, rep)) for (phi, order), rep in zip(cases, reports)], bounds
    )
    bad = []
    for (phi, _), rep, (count, violations) in zip(cases, reports, swept):
        certified = _certified_monomials(phi, rep)
        if rep.enumerated and rep.enumerated != count:
            bad.append(f"{phi.name}: enumerated {rep.enumerated}, reference {count}")
        if not rep.enumerated and len(certified) != len(phi.body) - 1:
            bad.append(f"{phi.name}: nothing enumerated but not every monomial certified")
        if rep.violations != violations or rep.passed != (not violations):
            bad.append(f"{phi.name}: violations {rep.violations}\nreference violations {violations}")
    return bad


@pytest.mark.parametrize("bounds", [(2, 1), (2, 2)])
def test_catalog_stability_matches_exhaustive_reference(bounds):
    by_variables = {}
    for phi, preset in IDENTITIES:
        by_variables.setdefault(phi.variables, []).append((phi, OrderSpec.for_alphabet(preset, Z12)))
    bad = [line for cases in by_variables.values() for line in _disagreements(cases, bounds)]
    assert not bad, "\n".join(bad)


# -- random schema pairs ------------------------------------------------------


def _random_schema(rng, letters, brackets):
    """A word holding ``letters`` (repeats kept) in a random order, with up
    to ``brackets`` brackets wrapped around random (possibly empty) slices
    at random depths."""
    top = list(letters)
    rng.shuffle(top)
    levels = [top]
    for _ in range(rng.randint(0, brackets)):
        level = rng.choice(levels)
        i = rng.randint(0, len(level))
        j = rng.randint(i, len(level))
        inner = level[i:j]
        level[i:j] = [inner]
        levels.append(inner)

    def build(level):
        return Word(Bracket(build(f)) if isinstance(f, list) else f for f in level)

    return build(top)


_PRESETS = st.sampled_from(["db", "dt", "deglex"])


@seed(20260607)
@given(st.integers(0, 2**32 - 1), _PRESETS)
def test_random_multilinear_pairs_match_exhaustive_reference(s, preset):
    rng = random.Random(s)
    u = _random_schema(rng, XVARS, 3)
    v = _random_schema(rng, XVARS, 3)
    if u == v:
        return
    phi = OPI("pair", XVARS, OPoly({u: 1, v: rng.choice([-1, 2])}))
    bad = _disagreements([(phi, OrderSpec.for_alphabet(preset, Z12))], (2, 1))
    assert not bad, bad


_VALUES = all_words(Z12, 2, 1)


@seed(20260608)
@given(st.integers(0, 2**32 - 1), _PRESETS)
def test_schema_cmp_sign_holds_on_every_assignment(s, preset):
    # repeated, missing and concrete letters included; one pair in four
    # holds different variables, so the same-multiset condition is exercised
    rng = random.Random(s)

    def letters():
        return rng.choices(XVARS + ("z1",), k=rng.randint(0, 3))

    ls = letters()
    u = _random_schema(rng, ls, 3)
    v = _random_schema(rng, ls if rng.random() < 0.75 else letters(), 3)
    order = OrderSpec.for_alphabet(preset, Z12)
    vset = frozenset(XVARS)
    got = _schema_cmp(u, v, order, vset)
    if got is None:
        return
    sign, _ = got
    for a, b in product(_VALUES, repeat=2):
        sigma = {"x1": a, "x2": b}
        c = order.compare(instantiate_word(u, sigma, vset), instantiate_word(v, sigma, vset))
        assert c == sign, (render(u), render(v), render(a), render(b), got)


def test_schema_cmp_on_hand_picked_pairs():
    dt = OrderSpec.for_alphabet("dt", Z12)
    vset = frozenset(XVARS)

    def cmp(a, b, order=dt):
        u, v = (parse_word(t, Z12, extra_letters=XVARS) for t in (a, b))
        return _schema_cmp(u, v, order, vset)

    # inner words with different variables: the op gap inside does not hold
    assert cmp("[x1*[1]]*[x2]", "[x2]*[[x1]]") is None
    # a top-level variable: breadth depends on the value
    assert cmp("[x1*x2]", "x1*[x2]") is None
    assert cmp("[[x1]]*[x2]", "[x1]*[[x2]]") == (1, "op_degree gap 1 inside factor 1")
    assert cmp("[x1]*[[x2]]", "[[x1]]*[x2]") == (-1, "op_degree gap 1 inside factor 1")
    assert cmp("z1*[[x1]]", "[z1]*[x1]") == (-1, "z1 vs [z1] at factor 1")
    assert cmp("[[x1]]*[x2]", "[x1]*[[x2]]", OrderSpec.for_alphabet("deglex", Z12)) is None
