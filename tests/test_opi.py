"""Identities, the built-in catalog, instances, leading-monomial checks."""

import random
from fractions import Fraction

import pytest

from conftest import Z1, Z12, instantiate_word
from opalg import (
    OPI,
    OPoly,
    OrderSpec,
    check_lm_no_subword,
    check_lm_stability,
    expand_instances,
    instantiate,
    parse_catalog,
    parse_opoly,
    render_opoly,
)
from opalg import opi
from opalg.opi import MAX_EXPANSION_WORDS, catalog_help
from opalg.terms import all_words, count_words, parse_word, render
from reference import random_word

DB = OrderSpec.for_alphabet("db", Z12)
DT = OrderSpec.for_alphabet("dt", Z12)

XVARS = ("x1", "x2")


def schema_poly(text, variables=XVARS):
    return parse_opoly(text, None, extra_letters=tuple(variables))


def W(text, alphabet=Z12):
    return parse_word(text, alphabet)


def P(text):
    return parse_opoly(text, Z12)


# -- the identity container ---------------------------------------------------


def test_opi_validates_variable_usage():
    with pytest.raises(ValueError):
        OPI("bad", XVARS, schema_poly("x1*x1"))  # repeated
    with pytest.raises(ValueError):
        OPI("bad", XVARS, schema_poly("[x1] - x1"))  # x2 missing from a monomial
    with pytest.raises(ValueError):
        OPI("bad", (), schema_poly("x1", ("x1",)))
    with pytest.raises(ValueError):
        OPI("bad", ("x1", "x1"), schema_poly("x1"))


def test_opi_rejects_zero_body():
    with pytest.raises(ValueError):
        OPI("bad", ("x1",), OPoly.zero())


def test_arity_and_order_for():
    phi = parse_catalog("rb:1").opis[0]
    assert phi.arity == 2
    assert phi.order_for("db").base == phi.variables


def test_lm_per_preset():
    phi = parse_catalog("diff:1").opis[0]
    assert render(phi.lm("dt")) == "[x1*x2]"


# -- instantiation ------------------------------------------------------------


def test_instantiate_insertion_identity_with_unit():
    phi = parse_catalog("rb:6?lambda=1").opis[0]
    inst = instantiate(phi, {"x1": W("z1"), "x2": W("1")})
    assert inst == P("[z1]*[1] - [z1*[1]] - [[z1]] - [z1]")


def test_instantiate_checks_assignment_keys():
    phi = parse_catalog("rb:1").opis[0]
    with pytest.raises(ValueError):
        instantiate(phi, {"x1": W("z1")})
    with pytest.raises(ValueError):
        instantiate(phi, {"x1": W("z1"), "x2": W("z2"), "x9": W("z1")})


def test_instantiate_distributes_polynomial_values():
    phi = parse_catalog("rb:1").opis[0]
    combined = instantiate(phi, {"x1": P("z1 + z2"), "x2": W("z2")})
    split = instantiate(phi, {"x1": W("z1"), "x2": W("z2")}) + instantiate(
        phi, {"x1": W("z2"), "x2": W("z2")}
    )
    assert combined == split


def test_instance_may_vanish():
    phi = OPI("sym", XVARS, schema_poly("x1*[x2] - [x2]*x1"))
    inst = instantiate(phi, {"x1": W("1"), "x2": W("z1")})
    assert inst.is_zero()


# -- bounded instance expansion ----------------------------------------------


def test_expand_instances_counts_for_splitting_family():
    recs = expand_instances(parse_catalog("diff:1").opis, Z12, (2, 1), DT)
    assert len(recs) == 17
    stable = [r for r in recs if r.kind == "schema"]
    degenerate = [r for r in recs if r.kind == "degenerate"]
    assert len(stable) == 5
    assert len(degenerate) == 12
    ids = [r.gen_id for r in recs]
    assert len(set(ids)) == len(ids)


def test_expand_instances_skips_vanishing():
    phi = OPI("sym", XVARS, schema_poly("x1*[x2] - [x2]*x1"))
    recs = expand_instances((phi,), Z12, (2, 1), DB)
    assert all(not r.poly.is_zero() for r in recs)


def test_expand_instances_leading_words_within_bounds():
    recs = expand_instances(parse_catalog("rb:6?lambda=1").opis, Z12, (2, 2), DB)
    assert recs
    for r in recs:
        assert r.lm.z_degree <= 2 and r.lm.op_degree <= 2


def test_degenerate_instance_detected():
    recs = expand_instances(parse_catalog("diff:1").opis, Z12, (1, 1), DT)
    by_id = {r.gen_id: r for r in recs}
    unit_left = by_id["diff:1[x1=1, x2=z1]"]
    assert unit_left.kind == "degenerate"
    assert render(unit_left.lm) == "[1]*z1"


def test_expand_instances_is_monic_and_bounded():
    polys = [rec.poly for rec in expand_instances(parse_catalog("averaging").opis, Z12, (2, 2), DT)]
    assert polys
    for f in polys:
        lm, lc = f.leading(DT)
        assert lc == 1
        assert lm.z_degree <= 2 and lm.op_degree <= 2


def test_expand_instances_refuses_a_pool_over_the_limit_before_building_it():
    opis = parse_catalog("rb:6?lambda=1").opis
    # op budget 7 - 1: each variable would range over every word within (2,6)
    pool = count_words(2, 2, 6)
    assert pool > MAX_EXPANSION_WORDS
    misses = all_words.cache_info().misses
    with pytest.raises(ValueError, match=f"{pool} words, over the limit of {MAX_EXPANSION_WORDS}"):
        expand_instances(opis, Z12, (2, 7), DB)
    assert all_words.cache_info().misses == misses


# -- leading-schema shape -----------------------------------------------------


def test_no_subword_check_passes_for_insertion_shapes():
    for sel in ("rb:1", "rb:6?lambda=1", "nijenhuis", "averaging", "reynolds?n=4"):
        for phi in parse_catalog(sel).opis:
            rep = check_lm_no_subword(phi, parse_catalog(sel).preset)
            assert rep.ok, rep.witness


def test_no_subword_check_flags_splitting_shapes():
    phi = parse_catalog("diff:1").opis[0]
    rep = check_lm_no_subword(phi, "dt")
    assert not rep.ok
    assert "x1*x2" in (rep.witness or "")


# -- leading-monomial stability ----------------------------------------------


def test_stability_certified_without_enumeration_for_insertion():
    phi = parse_catalog("rb:6?lambda=1").opis[0]
    rep = check_lm_stability(phi, DB, include_units=True)
    assert rep.passed
    assert len(rep.certified) == 3
    assert rep.enumerated == 0


def test_stability_splits_unit_cases_when_no_certificate_applies():
    # [x1*x2] against [x1]*x2: a top-level variable that may be the unit
    # leaves the breadth gap open, so each variable is split into x=1 and
    # x!=1; with x2=1 the body vanishes
    phi = parse_catalog("diff:5").opis[0]
    rep = check_lm_stability(phi, DT, include_units=True)
    assert rep.passed
    assert rep.enumerated == 0
    assert rep.certified == [
        ("[x1]*x2", "no unit: breadth gap at least 1"),
        ("x1*[1]*x2", "no unit: breadth gap at least 2"),
        ("x1*x2*[1]", "no unit: breadth gap at least 2"),
        ("[1]*x2", "x1=1: breadth gap at least 1"),
        ("x2*[1]", "x1=1: breadth gap at least 1"),
    ]


@pytest.mark.parametrize("bounds", [(2, 2), (3, 3)])
def test_averaging_stability_certified_without_enumeration(bounds):
    phis = {phi.name: phi for phi in parse_catalog("averaging").opis}
    phi = phis["averaging:C"]
    rep = check_lm_stability(phi, DT, include_units=True)
    assert rep.passed
    assert rep.enumerated == 0
    assert rep.certified == [("[x1]*[[x2]]", "op_degree gap 1 inside factor 1")]
    # the certificate takes no bounds; it holds on seeded pairs within these
    lead = phi.lm("dt")
    rng = random.Random(7)
    for _ in range(200):
        sigma = {x: random_word(rng, Z12, *bounds) for x in XVARS}
        want = render(instantiate_word(lead, sigma, frozenset(XVARS)))
        assert render(instantiate(phi, sigma).leading_monomial(DT)) == want, sigma


def test_splitting_identities_unstable_exactly_at_units():
    phi = parse_catalog("diff:1").opis[0]
    with_units = check_lm_stability(phi, DT, include_units=True)
    assert not with_units.passed
    assert with_units.violations == [("x1=1", "[x2]"), ("x2=1", "[x1]")]
    without = check_lm_stability(phi, DT, include_units=False)
    assert without.passed, without.violations


# -- the catalog --------------------------------------------------------------


def test_selector_round_trip_and_canonical_keys():
    e = parse_catalog("rb:6?lambda=1")
    assert e.key == "rb:6?lambda=1"
    assert e.family == "rb"
    assert e.preset == "db"
    assert parse_catalog("rb:6?lambda=1").key == e.key


def test_selector_defaults():
    assert dict(parse_catalog("rb:6").params)["lambda"] == 0
    assert dict(parse_catalog("diff:1").params) == {
        "a": Fraction(1),
        "b": Fraction(0),
        "c": Fraction(0),
    }
    assert parse_catalog("reynolds").key == "reynolds?n=4"


def test_selector_fractional_parameters():
    e = parse_catalog("rb:6?lambda=1/2")
    assert dict(e.params)["lambda"] == Fraction(1, 2)


def test_selector_unknown_family_and_params():
    with pytest.raises(ValueError):
        parse_catalog("frobenius")
    with pytest.raises(ValueError):
        parse_catalog("rb:99")
    with pytest.raises(ValueError):
        parse_catalog("rb:6?mu=1")
    with pytest.raises(ValueError):
        parse_catalog("diff:3?l07=1,bogus=2")


def test_presets_by_family():
    assert parse_catalog("rb:3").preset == "db"
    assert parse_catalog("nijenhuis").preset == "db"
    for sel in ("diff:1", "diffprime", "averaging", "reynolds"):
        assert parse_catalog(sel).preset == "dt"


def test_units_stability_flags():
    assert not parse_catalog("diff:1").units_stable
    assert parse_catalog("rb:6").units_stable
    assert parse_catalog("averaging").units_stable


def test_nijenhuis_matches_its_insertion_alias():
    nij = parse_catalog("nijenhuis").opis[0]
    rb5 = parse_catalog("rb:5").opis[0]
    assert nij.body == rb5.body


def _catalog_rows():
    """``(family, item, terms)`` for every written body row of the catalog."""
    rows = [("rb", k, terms) for k, terms in opi._RB_COLLAPSE.items()]
    rows += [("diff", k, terms) for k, terms in opi._DIFF_EXPANSION.items()]
    rows += [("diffprime", 0, opi._DIFFPRIME)]
    rows += [("averaging", 0, terms) for _, terms in opi._AVERAGING]
    return rows


def test_catalog_row_words_render_back_to_their_text():
    for family, item, terms in _catalog_rows():
        for _, text in terms:
            assert render(parse_word(text)) == text, (family, item)


def test_catalog_row_parameters_are_keys_of_the_item_defaults():
    # a stray name would escape the CLI as a KeyError
    for family, item, terms in _catalog_rows():
        names = {c.removeprefix("-") for c, _ in terms if isinstance(c, str)}
        assert names <= set(opi._CATALOG[family].defaults(item)), (family, item)


def test_splitting_constraints_enforced():
    with pytest.raises(ValueError):
        parse_catalog("diff:1?a=1,b=1,c=0")  # weight relation a^2 = a + bc fails
    with pytest.raises(ValueError):
        parse_catalog("diff:2?a=1,b=1")
    with pytest.raises(ValueError):
        parse_catalog("diff:3?l11=1")
    parse_catalog("diff:3?l00=1,l02=0")  # zero weight on a far spot is harmless
    with pytest.raises(ValueError):
        parse_catalog("diff:3?l02=0")  # but the splitting map must not vanish


def test_weight_relation_allows_nontrivial_solutions():
    # a=1, b=0 forces a^2 = a; any c works with b=0 in this lane
    e = parse_catalog("diff:1?a=1,b=0,c=5")
    assert dict(e.params)["c"] == 5


def test_telescoping_family_is_cumulative():
    e = parse_catalog("reynolds?n=4")
    assert [phi.name for phi in e.opis] == ["reynolds:2", "reynolds:3", "reynolds:4"]
    assert [phi.arity for phi in e.opis] == [2, 3, 4]


def test_telescoping_body_smallest_case():
    phi = parse_catalog("reynolds?n=2").opis[0]
    expected = schema_poly("[[x1]*[x2]] - [x1*[x2]] - [[x1]*x2] + [x1]*[x2]")
    assert phi.body == expected


def test_averaging_bundle_names_and_leads():
    e = parse_catalog("averaging")
    leads = {phi.name: render(phi.lm("dt")) for phi in e.opis}
    assert leads == {
        "averaging:A": "[[x1]*x2]",
        "averaging:B": "[x1*[x2]]",
        "averaging:C": "[[x1]]*[x2]",
    }


def test_unary_collapse_body():
    phi = parse_catalog("diffprime?c=2").opis[0]
    assert phi.body == schema_poly("[x1] - 2*x1", ("x1",))


def test_catalog_help_lists_families():
    text = catalog_help()
    for family in ("rb", "nijenhuis", "diff", "diffprime", "averaging", "reynolds"):
        assert family in text
