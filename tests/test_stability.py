"""``check_lm_stability`` against exhaustive enumeration.

The reference tries every assignment in a bounded domain: each value
within the bounds for arity up to 2, a joint budget above that, units
included.  It splices the assignment into every body monomial, merges
coefficients and takes the leading word of what survives.  The check under
test decides symbolically, splitting the variables into unit cases where a
monomial stays open; its verdict must equal the reference's, each
violation's case must hold a violating assignment, and each certified
monomial must lose to the instantiated leading schema on every assignment
of its own case.  CI runs this file under ``python -O`` too: the
certificate is a soundness check and must not rely on ``assert``.
"""

import random
import re
from itertools import combinations, product

import pytest
from hypothesis import given, seed
from hypothesis import strategies as st

from conftest import CATALOG_SELECTORS, Z12, instantiate_word
from opalg import OPI, GeneratorSet, OPoly, OrderSpec, check_lm_stability, parse_catalog
from opalg.gsbasis import _evaluate_hypotheses
from opalg.opi import CatalogEntry, _schema_cmp
from opalg.terms import UNIT, Word, all_words, parse_word, render, word_tuples

# diff:3 leading with a unit bracket beside the product, on either side
EXTRA_SELECTORS = ["diff:3?l01=1", "diff:3?l10=1,l00=0"]


def _distinct_identities():
    # configurations that share a body and a preset (nijenhuis and rb:5,
    # diff:4 and diff:1 at their defaults, ...) are checked once
    seen = {}
    for sel in CATALOG_SELECTORS + EXTRA_SELECTORS:
        entry = parse_catalog(sel)
        for phi in entry.opis:
            seen.setdefault((phi.body, entry.preset), (phi, entry.preset))
    return list(seen.values())


IDENTITIES = _distinct_identities()
XVARS = ("x1", "x2")
_CASE = re.compile(r"(no unit|x\d+=1(?:, x\d+=1)*): ")


def _domain(phi, bounds):
    if phi.arity <= 2:
        return product(all_words(Z12, *bounds), repeat=phi.arity)
    return word_tuples(Z12, *bounds, phi.arity)


def _case_of(variables, values):
    """The unit case an assignment falls in, named as the check names it."""
    return ", ".join(f"{v}=1" for v, w in zip(variables, values) if w.is_unit()) or "no unit"


def _certificates(phi, rep):
    """``(case, monomial)`` per certified monomial; the case is None for a
    certificate that holds under every assignment."""
    out = []
    for text, reason in rep.certified:
        m = _CASE.match(reason)
        out.append((m and m.group(1), parse_word(text, None, extra_letters=phi.variables)))
    return out


def reference_sweep(cases, bounds):
    """The exhaustive check of several identities over the same variables,
    sharing one pass over their common domain and one splice per distinct
    monomial and assignment.  ``cases`` holds ``(phi, order, certificates)``
    with ``(case, monomial)`` certificates; returns the violations per case
    as ``(assignment text, unit case, got text)``, and raises when a
    certified monomial fails to lose to the instantiated leading schema on
    an assignment of its case."""
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
            [(case, one(m)) for case, m in certificates],
            [],
        )
        for phi, order, certificates in cases
    ]
    for tup in _domain(cases[0][0], bounds):
        sigma = dict(zip(variables, tup))
        label = _case_of(variables, tup)
        words = {}

        def spliced(m):
            if m not in words:
                words[m] = instantiate_word(m, sigma, vset)
            return words[m]

        for phi, order, lm, body, certificates, violations in states:
            lead = spliced(lm)
            for case, m in certificates:
                if case in (None, label) and order.compare(lead, spliced(m)) <= 0:
                    raise AssertionError(
                        f"{phi.name}: certified {render(m)} ({case}) is not below the lead at "
                        f"{', '.join(f'{v}={render(w)}' for v, w in sigma.items())}"
                    )
            live = [spliced(m) for m, _ in body]
            if len(set(live)) < len(live):  # monomials collide: merge coefficients
                acc = {}
                for m, c in body:
                    acc[words[m]] = acc.get(words[m], 0) + c
                live = [w for w, c in acc.items() if c]
            if live:
                got = order.max(live)
                if got != lead:
                    sig = ", ".join(f"{v}={render(w)}" for v, w in sigma.items())
                    violations.append((sig, label, render(got)))
    return [state[-1] for state in states]


def _disagreements(cases, bounds, undecided_ok=False):
    """Every way in which ``check_lm_stability`` on ``(phi, order)`` cases
    over the same variables differs from the exhaustive reference.  An open
    verdict counts as one unless ``undecided_ok``; either way, whatever it
    certified must hold."""
    reports = [check_lm_stability(phi, order, include_units=True) for phi, order in cases]
    swept = reference_sweep([(phi, order, _certificates(phi, rep)) for (phi, order), rep in zip(cases, reports)], bounds)
    bad = []
    for (phi, _), rep, violations in zip(cases, reports, swept):
        if rep.enumerated:
            bad.append(f"{phi.name}: enumerated {rep.enumerated}")
        if rep.undecided and not rep.violations:
            if not undecided_ok:
                bad.append(f"{phi.name}: not decided {rep.undecided}")
            continue
        if rep.passed != (not violations):
            bad.append(f"{phi.name}: passed {rep.passed}\nreference violations {violations[:10]}")
        witnessed = {label for _, label, _ in violations}
        for case, _ in rep.violations:
            if case not in witnessed:
                bad.append(f"{phi.name}: violation at {case}, none there in {violations[:10]}")
    return bad


@pytest.mark.parametrize("bounds", [(2, 1), (2, 2)])
def test_catalog_stability_matches_exhaustive_reference(bounds):
    by_variables = {}
    for phi, preset in IDENTITIES:
        by_variables.setdefault(phi.variables, []).append((phi, OrderSpec.for_alphabet(preset, Z12)))
    bad = [line for cases in by_variables.values() for line in _disagreements(cases, bounds)]
    assert not bad, "\n".join(bad)


def test_splitting_identities_fail_at_a_schematic_unit_case():
    dt = OrderSpec.for_alphabet("dt", Z12)
    for sel in ("diff:1", "diff:4"):
        rep = check_lm_stability(parse_catalog(sel).opis[0], dt)
        assert [case for case, _ in rep.violations] == ["x1=1", "x2=1"], (sel, rep)
    for sel in ("diff:5", "diff:6") + tuple(EXTRA_SELECTORS):
        rep = check_lm_stability(parse_catalog(sel).opis[0], dt)
        assert rep.passed and rep.certified, (sel, rep)
        assert all(_CASE.match(reason) for _, reason in rep.certified), (sel, rep.certified)


# -- every shape a catalog family can hold ------------------------------------

# parameter choices that switch on every monomial each family can hold
_SHAPE_SELECTORS = CATALOG_SELECTORS + EXTRA_SELECTORS + [
    f"rb:{i}?lambda=1,c=2" for i in (13, 14)
] + ["diff:1?c=1", "diff:3?l00=1,l01=1,l10=1", "diff:4?a=1,b=1", "diff:5?a=2", "diff:6?a=2", "reynolds?n=5"]


def _shapes_by_identity():
    """Per identity name and preset: its leading schema, and the union of
    its body monomials over the parameter choices above."""
    out = {}
    for sel in _SHAPE_SELECTORS:
        entry = parse_catalog(sel)
        for phi in entry.opis:
            lead, shapes, _ = out.setdefault((phi.name, entry.preset), (phi.lm(entry.preset), set(), phi.variables))
            assert phi.lm(entry.preset) == lead, (sel, phi.name)
            shapes.update(phi.body.support())
    return out


def test_every_catalog_shape_is_decided_in_every_unit_case():
    # a new catalog entry whose monomials the certificate cannot order
    # fails here, instead of reaching "not decided" at run time
    open_pairs = []
    for (name, preset), (lead, shapes, variables) in _shapes_by_identity().items():
        order = OrderSpec.for_alphabet(preset, Z12)
        vset = frozenset(variables)
        for k in range(len(variables) + 1):
            for units in combinations(variables, k):
                nonunit = vset.difference(units)
                sigma = {x: UNIT if x in units else Word((x,)) for x in variables}
                u = instantiate_word(lead, sigma, vset)
                for m in shapes:
                    v = instantiate_word(m, sigma, vset)
                    if u != v and _schema_cmp(u, v, order, nonunit, nonunit) is None:
                        open_pairs.append(f"{name} {units}: {render(u)} vs {render(v)}")
    assert not open_pairs, "\n".join(open_pairs)


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
        return Word(build(f) if isinstance(f, list) else f for f in level)

    return build(top)


def _stability_line(phi, order):
    """The ``check-gs`` hypothesis line for ``phi`` alone, as ``(ok, detail)``."""
    entry = CatalogEntry("pair", "pair", (phi,), order.preset, (), True, True)
    lines, _ = _evaluate_hypotheses(GeneratorSet((entry,), (), order, Z12))
    return next((ok, detail) for name, ok, detail in lines if "stability" in name)


def test_random_multilinear_pairs_match_exhaustive_reference():
    """Seeded random two-monomial bodies under both presets: a decided
    verdict equals the reference's, a pass implies the reference passes,
    and an open verdict certifies nothing unsound and reads
    ``FAIL (not decided: <monomial>)``.  The open share is printed."""
    rng = random.Random(20260607)
    opened = {"db": 0, "dt": 0}
    total = dict.fromkeys(opened, 0)
    for trial in range(240):
        preset = ("db", "dt")[trial % 2]
        u = _random_schema(rng, XVARS, 3)
        v = _random_schema(rng, XVARS, 3)
        if u == v:
            continue
        phi = OPI("pair", XVARS, OPoly({u: 1, v: rng.choice([-1, 2])}))
        order = OrderSpec.for_alphabet(preset, Z12)
        bad = _disagreements([(phi, order)], (2, 1), undecided_ok=True)
        assert not bad, (preset, render(u), render(v), bad)
        rep = check_lm_stability(phi, order)
        total[preset] += 1
        if rep.undecided and not rep.violations:
            opened[preset] += 1
            ok, detail = _stability_line(phi, order)
            assert not ok, (rep, detail)
            assert detail in {f"not decided: {text}" for _, text in rep.undecided}, (rep, detail)
    print("open share:", ", ".join(f"{p} {opened[p]} of {total[p]}" for p in total))
    # under both presets a pair stays open only where the order of the
    # instances depends on the values themselves, as for x2*x1 against x1*x2
    assert all(opened[p] * 5 <= total[p] for p in ("db", "dt")), (opened, total)


_VALUES = all_words(Z12, 2, 1)


@seed(20260608)
@given(st.integers(0, 2**32 - 1), st.sampled_from(["db", "dt"]))
def test_schema_cmp_sign_holds_on_every_assignment(s, preset):
    # repeated, missing and concrete letters included; one pair in four
    # holds different variables, so the same-multiset condition is
    # exercised; a random set of variables is known to be nonunit
    rng = random.Random(s)

    def letters():
        return rng.choices(XVARS + ("z1",), k=rng.randint(0, 3))

    ls = letters()
    u = _random_schema(rng, ls, 3)
    v = _random_schema(rng, ls if rng.random() < 0.75 else letters(), 3)
    order = OrderSpec.for_alphabet(preset, Z12)
    vset = frozenset(XVARS)
    nonunit = frozenset(x for x in XVARS if rng.random() < 0.5)
    got = _schema_cmp(u, v, order, vset, nonunit)
    if got is None:
        return
    sign, _ = got
    for a, b in product(_VALUES, repeat=2):
        sigma = {"x1": a, "x2": b}
        if any(sigma[x].is_unit() for x in nonunit):
            continue
        c = order.compare(instantiate_word(u, sigma, vset), instantiate_word(v, sigma, vset))
        assert c == sign, (render(u), render(v), render(a), render(b), sorted(nonunit), got)


def test_schema_cmp_on_hand_picked_pairs():
    dt = OrderSpec.for_alphabet("dt", Z12)
    vset = frozenset(XVARS)

    def cmp(a, b, nonunit=frozenset()):
        u, v = (parse_word(t, Z12, extra_letters=XVARS) for t in (a, b))
        return _schema_cmp(u, v, dt, vset, frozenset(nonunit))

    # inner words with different variables: the op gap inside does not hold
    assert cmp("[x1*[1]]*[x2]", "[x2]*[[x1]]") is None
    # a top-level variable that may be the unit: the breadth gap may be 0
    assert cmp("[x1*x2]", "x1*[x2]") is None
    # ... and one that may not: the breadth gap is at least 1
    assert cmp("[x1*x2]", "x1*[x2]", nonunit={"x1"}) == (1, "breadth gap at least 1")
    assert cmp("x1*[1]*[1]", "[x1]*[1]", nonunit={"x1"}) == (-1, "breadth gap at least 1")
    # variables top-level on both sides cancel from the breadth gap
    assert cmp("x1*[x2]*[1]", "[x2*[1]]*x1") == (-1, "constant breadth 3 vs 2")
    # top-level variables on opposite sides leave the gap's sign open
    assert cmp("x1*[x2]", "[x1]*x2", nonunit=XVARS) is None
    # equal breadth: the walk stops at a variable
    assert cmp("x1*[x2]", "[x2]*x1") is None
    assert cmp("x1*[[x2]]", "x1*[x2*[1]]") is None
    assert cmp("x1*[[x2]]", "x1*[x2*[1]]", nonunit={"x2"}) == (1, "breadth gap at least 1 inside factor 2")
    assert cmp("[[x1]]*[x2]", "[x1]*[[x2]]") == (1, "op_degree gap 1 inside factor 1")
    assert cmp("[x1]*[[x2]]", "[[x1]]*[x2]") == (-1, "op_degree gap 1 inside factor 1")
    assert cmp("z1*[[x1]]", "[z1]*[x1]") == (-1, "z1 vs [z1] at factor 1")
