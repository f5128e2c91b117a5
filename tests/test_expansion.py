"""Instance expansion and the one rule set per stratum, across the catalog.

Every catalog selector is taken alone and with one concrete generator (the
commutator under ``db``, ``z1*z2 - 1`` under ``dt``), at three strata.

* The expanded generators are pinned by a digest of their ids, monic
  polynomials, leading words and kinds, so a change in what expansion
  yields, or in its order, fails here.
* Every command reduces with the rule set of its own stratum.  The
  reference widens the operator bound by the identities' op_degree gap
  (``reference.op_gap``); with and without a bracketed concrete generator
  beside the catalog entry, the two must give the same normal form and
  trace on every word of the stratum, and the same verdict, residue and
  step count on every record, since a rule the wider set adds has a left
  side outside the bounds and cannot match inside an in-bounds word.
* ``expand_instances`` sizes its assignment net by the leading schema when
  the lead is certified above every other monomial.  The reference keeps
  the wide net, sized by the lowest monomial, and drops what leads out of
  bounds; both must yield the same generators in the same order, over the
  catalog under every preset and over seeded random bodies.  A counter
  around ``OPI.instance`` pins how many instances each net builds.
"""

import hashlib
import random
from fractions import Fraction

import pytest

from conftest import CATALOG_SELECTORS, Z12, instantiate_word
from opalg import (
    OPI,
    GeneratorSet,
    OPoly,
    OrderSpec,
    QuotientAlgebra,
    all_words,
    expand_instances,
    is_trivial,
    normal_form,
    opi,
    parse_catalog,
    parse_opoly,
    render,
    render_opoly,
)
from opalg.gsbasis import indexed_records
from opalg.opi import MAX_EXPANSION_WORDS, Generator, _lead_certificates
from opalg.terms import Bracket, Word, count_words, word_tuples
from reference import op_gap

BOUNDS = [(2, 1), (2, 2), (3, 2)]
CONCRETE = {"db": "z2*z1 - z1*z2", "dt": "z1*z2 - 1"}

# generator count and sha256 over every configuration above
EXPANSION_DIGEST = "98973ab466a07048ec1666f2ab1015a80463c30117061650b64b07326d204090"
EXPANSION_COUNT = 8573


def generator_sets(selector):
    entry = parse_catalog(selector)
    order = OrderSpec.for_alphabet(entry.preset, Z12)
    yield GeneratorSet((entry,), (), order, Z12)
    yield GeneratorSet((entry,), (parse_opoly(CONCRETE[entry.preset], Z12),), order, Z12)


def test_expansion_is_pinned_over_the_catalog():
    digest = hashlib.sha256()
    count = 0
    for selector in CATALOG_SELECTORS:
        for gens in generator_sets(selector):
            for bounds in BOUNDS:
                digest.update(f"{selector} {len(gens.concrete)} {bounds}\n".encode())
                for g in gens.expanded(bounds):
                    line = f"{g.gen_id}|{render_opoly(g.poly)}|{render(g.lm)}|{g.kind}\n"
                    digest.update(line.encode())
                    count += 1
    assert (count, digest.hexdigest()) == (EXPANSION_COUNT, EXPANSION_DIGEST)


# a concrete generator with brackets, so the stratum's concrete rules
# reach past operator degree 0
BRACKETED = "z1*z2 - [[1]]"
FUEL = 2000


def referee_sets(selector):
    """Each configuration of ``generator_sets``, then the entry beside the
    bracketed generator; each with its rule set at ``bounds`` and the one
    widened by the identities' op_degree gap."""
    entry = parse_catalog(selector)
    order = OrderSpec.for_alphabet(entry.preset, Z12)
    bracketed = GeneratorSet((entry,), (parse_opoly(BRACKETED, Z12),), order, Z12)
    for gens in (*generator_sets(selector), bracketed):
        for bounds in BOUNDS:
            wide = gens.ruleset((bounds[0], bounds[1] + op_gap(gens)))
            yield gens, bounds, gens.ruleset(bounds), wide


@pytest.mark.parametrize("selector", CATALOG_SELECTORS)
def test_stratum_rule_set_agrees_with_the_gap_widened_one(selector):
    for gens, bounds, rules, wide in referee_sets(selector):
        for w in all_words(Z12, *bounds):
            f = OPoly.from_word(w)
            got = normal_form(f, rules, FUEL, want_trace=True)
            want = normal_form(f, wide, FUEL, want_trace=True)
            assert (got.poly, got.steps, got.exhausted) == (want.poly, want.steps, want.exhausted), (
                selector,
                render_opoly(gens.concrete[0]) if gens.concrete else "-",
                bounds,
                render(w),
            )


@pytest.mark.parametrize("selector", CATALOG_SELECTORS)
def test_record_verdicts_agree_with_the_gap_widened_rule_set(selector):
    for gens, bounds, rules, wide in referee_sets(selector):
        for r in indexed_records(gens.expanded(bounds), None, bounds):
            got = is_trivial(r.value, rules, r.w, FUEL)
            want = is_trivial(r.value, wide, r.w, FUEL)
            assert (got.status, got.residue, len(got.steps)) == (want.status, want.residue, len(want.steps)), (
                selector,
                render_opoly(gens.concrete[0]) if gens.concrete else "-",
                bounds,
                r.headline(),
            )


def test_the_widened_scope_expands_more_instances():
    # the agreement above means something only if the wide scope holds
    # more instances than the stratum
    wider = sum(
        len(gens.expanded(wide.bounds)) > len(gens.expanded(bounds))
        for selector in CATALOG_SELECTORS
        for gens, bounds, _, wide in referee_sets(selector)
    )
    assert wider >= 100, wider


def test_quotient_algebra_holds_one_rule_set():
    order = OrderSpec.for_alphabet("db", Z12)
    gens = GeneratorSet(
        (parse_catalog("rb:6?lambda=1"),), (parse_opoly(CONCRETE["db"], Z12),), order, Z12
    )
    qa = QuotientAlgebra(gens, (3, 2), 2000)
    assert qa.irr_basis()
    qa.nf(parse_opoly("[z1]*[z2] + z2*z1", Z12))
    assert list(gens._expanded_cache) == [(3, 2)]
    assert list(gens._ruleset_cache) == [(3, 2)]


# -- the tight assignment net against the wide one ----------------------------


def wide_net_instances(opis, alphabet, bounds, order):
    """``expand_instances`` with every net sized by the lowest monomial."""
    max_z, max_op = bounds
    letters = tuple(alphabet.letters)
    budgets = []
    for phi in opis:
        concrete_z = phi.lm(order.preset).z_degree - phi.arity
        z_budget = max_z - concrete_z
        op_budget = max_op - min(m.op_degree for m in phi.body.support())
        if z_budget < 0 or op_budget < 0:
            continue
        pool = count_words(len(letters), z_budget, op_budget)
        if pool > MAX_EXPANSION_WORDS:
            raise ValueError(
                f"expanding {phi.name} at bounds {bounds} would range each variable over "
                f"{pool} words, over the limit of {MAX_EXPANSION_WORDS}"
            )
        budgets.append((phi, z_budget, op_budget))
    out = []
    seen = set()
    for phi, z_budget, op_budget in budgets:
        schema_lm = phi.lm(order.preset)
        vset = frozenset(phi.variables)
        for values in word_tuples(alphabet, z_budget, op_budget, phi.arity):
            sigma = dict(zip(phi.variables, values))
            inst = opi.instantiate(phi, sigma)
            if inst.is_zero():
                continue
            lm, lc = inst.leading(order)
            if lm.z_degree > max_z or lm.op_degree > max_op:
                continue
            monic = inst if lc == 1 else inst.scale(Fraction(1) / lc)
            if monic in seen:
                continue
            seen.add(monic)
            bindings = ", ".join(f"{v}={render(w)}" for v, w in zip(phi.variables, values))
            kind = "schema" if lm == instantiate_word(schema_lm, sigma, vset) else "degenerate"
            out.append(Generator(f"{phi.name}[{bindings}]", monic, lm, kind))
    return tuple(out)


def _lines(gens):
    return [f"{g.gen_id}|{render_opoly(g.poly)}|{render(g.lm)}|{g.kind}" for g in gens]


NET_BOUNDS = [(2, 1), (2, 2), (3, 2), (2, 3)]


# diff:3 leading with a unit bracket beside the product: certified only
# once the variables are split into unit cases
SPLIT_SELECTORS = ["diff:3?l01=1", "diff:3?l10=1,l00=0"]


@pytest.mark.parametrize("preset", ["db", "dt"])
def test_tight_net_matches_the_wide_net_over_the_catalog(preset):
    order = OrderSpec.for_alphabet(preset, Z12)
    for selector in CATALOG_SELECTORS + SPLIT_SELECTORS:
        opis = parse_catalog(selector).opis
        for bounds in NET_BOUNDS:
            got = _lines(expand_instances(opis, Z12, bounds, order))
            assert got == _lines(wide_net_instances(opis, Z12, bounds, order)), (selector, bounds)


XVARS = ("x1", "x2")


def _random_factors(rng, variables, depth, bare=0.5):
    """The variables in order, split into runs; a run is left bare (with
    probability ``bare``) or bracketed, recursively, and a unit bracket
    may slip in between."""
    out = []
    i = 0
    while i < len(variables):
        j = rng.randint(i + 1, len(variables))
        run = variables[i:j]
        if depth and rng.random() >= bare:
            out.append(Bracket(Word(_random_factors(rng, run, depth - 1))))
        else:
            out.extend(run)
        if rng.random() < 0.15:
            out.append(Bracket(Word(())))
        i = j
    if depth and bare and rng.random() < 0.3:
        out = [Bracket(Word(out))]
    return out


def _insert(rng, factors, var):
    """``factors`` with ``var`` inserted at a random place, at any depth."""
    brackets = [i for i, f in enumerate(factors) if not isinstance(f, str)]
    if brackets and rng.random() < 0.5:
        i = rng.choice(brackets)
        inner = _insert(rng, list(factors[i].inner.factors), var)
        return factors[:i] + [Bracket(Word(inner))] + factors[i + 1 :]
    k = rng.randint(0, len(factors))
    return factors[:k] + [var] + factors[k:]


def random_body(rng):
    """Two to four random monomials, in one of four modes:

    * ``free``: any monomials;
    * ``level``: all share one op_degree, so breadth and the factor walk,
      not the op_degree gap, must decide;
    * ``bracketed``: as ``level``, without a top-level variable;
    * ``twin``: two monomials with opposite coefficients that coincide
      once one variable is the unit, plus one bracket-free monomial.  An
      instance with that unit loses the leading schema and leads lower, so
      a net sized by the leading schema alone would miss some."""
    mode = rng.choice(("free", "level", "bracketed", "twin"))

    def coeff():
        return Fraction(rng.choice((1, -1, 2, -2)))

    terms = {}
    if mode == "twin":
        unit, other = rng.sample(XVARS, 2)
        core = _random_factors(rng, [other], 2)
        c = coeff()
        for word, co in (
            (Word(_insert(rng, core, unit)), c),
            (Word(_insert(rng, core, unit)), -c),
            (Word(rng.sample(XVARS, 2)), coeff()),
        ):
            terms[word] = terms.get(word, 0) + co
        return OPoly(terms)
    for _ in range(rng.randint(2, 4)):
        for _ in range(20):
            variables = list(XVARS)
            rng.shuffle(variables)
            word = Word(_random_factors(rng, variables, 2, 0 if mode == "bracketed" else 0.5))
            if mode == "free" or not terms or word.op_degree == next(iter(terms)).op_degree:
                break
        else:
            continue
        terms[word] = terms.get(word, 0) + coeff()
    return OPoly(terms)


def random_bodies(seed, count):
    rng = random.Random(seed)
    while count:
        body = random_body(rng)
        if len(body) > 1:
            count -= 1
            yield OPI("rand", XVARS, body)


@pytest.mark.parametrize("preset", ["db", "dt"])
def test_tight_net_matches_the_wide_net_on_random_bodies(preset, monkeypatch):
    order = OrderSpec.for_alphabet(preset, Z12)
    certified = caught = 0
    for phi in random_bodies(7, 40):
        _, violations, undecided = _lead_certificates(phi, order)
        uncertified = violations or undecided
        certified += not uncertified
        for bounds in [(2, 2), (3, 2)]:
            wide = _lines(wide_net_instances((phi,), Z12, bounds, order))
            assert _lines(expand_instances((phi,), Z12, bounds, order)) == wide, (phi, bounds)
            if uncertified:
                # what a certificate that vouched for every lead would yield
                with monkeypatch.context() as m:
                    m.setattr(opi, "_lead_certificates", lambda phi, order: ([], [], []))
                    caught += _lines(expand_instances((phi,), Z12, bounds, order)) != wide
    # the comparison means something only if many bodies take the tight
    # net, and if an unsound certificate would fail it
    assert certified >= 15 and caught >= 5, (certified, caught)


def count_instantiate_calls(monkeypatch):
    # every instantiation, checked or not, runs through the positional entry
    calls = [0]
    real = OPI.instance

    def counted(phi, values):
        calls[0] += 1
        return real(phi, values)

    monkeypatch.setattr(OPI, "instance", counted)
    return calls


def test_certified_lead_instantiates_only_what_fits(monkeypatch):
    calls = count_instantiate_calls(monkeypatch)
    opis = parse_catalog("rb:6?lambda=1").opis
    order = OrderSpec.for_alphabet("db", Z12)
    gens = expand_instances(opis, Z12, (4, 3), order)
    assert (calls[0], len(gens)) == (1667, 1667)
    calls[0] = 0
    assert len(wide_net_instances(opis, Z12, (4, 3), order)) == 1667
    assert calls[0] == 14472


@pytest.mark.parametrize("selector, wide_calls", [("diff:1", 467), ("diff:4?b=1", 3192)])
def test_uncertified_lead_keeps_the_wide_net(monkeypatch, selector, wide_calls):
    # diff:4?b=1 has a bracket-free monomial, so its wide net is larger
    # than the 467 assignments a net sized by the lead would hold
    calls = count_instantiate_calls(monkeypatch)
    phi = parse_catalog(selector).opis[0]
    order = OrderSpec.for_alphabet("dt", Z12)
    assert _lead_certificates(phi, order)[1]  # violations at x1=1 and x2=1
    calls[0] = 0
    gens = expand_instances((phi,), Z12, (3, 2), order)
    # four more: the certificate instantiates one body per unit case
    assert calls[0] == wide_calls + 4
    calls[0] = 0
    assert gens == wide_net_instances((phi,), Z12, (3, 2), order)
    assert calls[0] == wide_calls
