"""Instance expansion and the one rule set per stratum, across the catalog.

Every catalog selector is taken alone and with one concrete generator (the
commutator under ``db``, ``z1*z2 - 1`` under ``dt``), at three strata.

* The expanded generators are pinned by a digest of their ids, monic
  polynomials, leading words and kinds, so a change in what expansion
  yields, or in its order, fails here.
* Irreducibility at a stratum is read from the stratum's own rule set.
  The reference widens the operator bound by ``max_gap()``; the two must
  agree on every word of the stratum, since a rule the wider set adds has
  a left side outside the bounds and cannot match inside an in-bounds word.
"""

import hashlib

import pytest

from conftest import CATALOG_SELECTORS, Z12
from opalg import (
    GeneratorSet,
    OrderSpec,
    QuotientAlgebra,
    all_words,
    parse_catalog,
    parse_opoly,
    render,
    render_opoly,
)

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


@pytest.mark.parametrize("selector", CATALOG_SELECTORS)
def test_stratum_rule_set_agrees_with_the_gap_widened_one(selector):
    for gens in generator_sets(selector):
        for bounds in BOUNDS:
            rules = gens.ruleset(bounds)
            widened = gens.ruleset((bounds[0], bounds[1] + gens.max_gap()))
            for w in all_words(Z12, *bounds):
                assert (rules.find_redex(w) is None) == (widened.find_redex(w) is None), (
                    selector,
                    len(gens.concrete),
                    bounds,
                    render(w),
                )


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
