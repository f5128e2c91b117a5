"""Composition records, triviality verdicts, completeness reports, quotients."""

from fractions import Fraction

import pytest

from conftest import Z1, Z12
from opalg import (
    Alphabet,
    BoundsExceeded,
    GeneratorSet,
    OPoly,
    OrderSpec,
    QuotientAlgebra,
    all_words,
    check_gs,
    compositions,
    enumerate_irr,
    evaluate_morphism,
    is_trivial,
    parse_catalog,
    parse_opoly,
    parse_word,
)
from opalg import gsbasis

DB12 = OrderSpec.for_alphabet("db", Z12)
DT12 = OrderSpec.for_alphabet("dt", Z12)
DB1 = OrderSpec.for_alphabet("db", Z1)
DT1 = OrderSpec.for_alphabet("dt", Z1)


def P(text, alphabet=Z12):
    return parse_opoly(text, alphabet)


def W(text, alphabet=Z12):
    return parse_word(text, alphabet)


def splitting_set():
    entry = parse_catalog("diff:1")
    g = P("z1*z2 - 1")
    return GeneratorSet((entry,), (g,), DT12, Z12)


def averaging_set():
    return GeneratorSet((parse_catalog("averaging"),), (), DT12, Z12)


def rb_commutator_set():
    entry = parse_catalog("rb:6?lambda=1")
    return GeneratorSet((entry,), (P("z2*z1 - z1*z2"),), DB12, Z12)


# -- generator sets -----------------------------------------------------------


def test_generator_set_requires_matching_preset():
    with pytest.raises(ValueError):
        GeneratorSet((parse_catalog("rb:1"),), (), DT12, Z12)


@pytest.mark.parametrize("order", [DB12, DT12], ids=["db", "dt"])
def test_generator_set_refuses_entries_of_two_presets_under_either_order(order):
    entries = (parse_catalog("rb:6"), parse_catalog("diff:1"))
    with pytest.raises(ValueError, match=r"^catalog entries of different presets \(db, dt\) cannot share"):
        GeneratorSet(entries, (), order, Z12)


def test_generator_set_rejects_variable_letter_clash():
    xz = Alphabet(("x1", "z2"))
    with pytest.raises(ValueError):
        GeneratorSet((parse_catalog("averaging"),), (), OrderSpec.for_alphabet("dt", xz), xz)


def test_generator_set_rejects_zero_concrete():
    with pytest.raises(ValueError):
        GeneratorSet((), (OPoly.zero(),), DB12, Z12)


def test_generator_set_needs_order_and_alphabet():
    with pytest.raises(TypeError):
        GeneratorSet((parse_catalog("averaging"),))


def test_expanded_lists_concrete_first_and_dedups():
    gens = GeneratorSet((), (P("z1*z2 - 1"), P("2*z1*z2 - 2")), DB12, Z12)
    exp = gens.expanded((2, 0))
    assert [g.gen_id for g in exp] == ["g0"]
    assert exp[0].kind == "concrete"


def test_expanded_classifies_instances():
    gens = splitting_set()
    kinds = {g.kind for g in gens.expanded((2, 1))}
    assert kinds == {"concrete", "schema", "degenerate"}


# -- composition records ------------------------------------------------------


def test_self_overlap_of_quadratic_generator():
    f = P("z1*z1 - 1")
    recs = compositions(f, f, DB12, (3, 0))
    assert len(recs) == 1
    (r,) = recs
    assert r.kind == "intersection"
    assert r.w == W("z1*z1*z1")
    assert r.witness == "overlap k=1"
    assert r.value.is_zero()


def test_trivial_inclusion_kept_for_distinct_generators():
    f = P("z1*z2 - 1")
    g = P("2*z1*z2 - 2*z1")  # monicized before pairing
    recs = compositions(f, g, DB12, (2, 0))
    incl = [r for r in recs if r.kind == "inclusion"]
    assert len(incl) == 2  # both directions share the leading word
    assert {r.witness for r in incl} == {"context @"}
    values = {str(r.value) for r in incl}
    assert values == {"z1 - 1", "-z1 + 1"}


def test_splitting_config_produces_five_records():
    entry = parse_catalog("diff:1")
    recs = compositions(entry, P("z1*z2 - 1"), DT12, (2, 1))
    assert len(recs) == 5
    assert {r.pair_kind for r in recs} <= {"schema-concrete", "concrete-schema"}


def test_splitting_pocket_record_is_conclusively_nontrivial():
    gens = splitting_set()
    entry = parse_catalog("diff:1")
    recs = compositions(entry, P("z1*z2 - 1"), DT12, (2, 1))
    pocket = [r for r in recs if r.w == W("[z1*z2]")]
    assert len(pocket) == 1
    (r,) = pocket
    assert r.kind == "inclusion"
    assert r.witness == "context [@]"
    assert r.value == P("-[z1]*z2 - z1*[z2] + [1]")
    verdict = is_trivial(r.value, gens, r.w, 2000)
    assert verdict.status == "not_trivial"
    assert verdict.conclusive
    assert verdict.residue == P("-[z1]*z2 - z1*[z2]")
    assert "NOT trivial" in verdict.to_text()


def test_records_sort_deterministically():
    entry = parse_catalog("diff:1")
    a = compositions(entry, P("z1*z2 - 1"), DT12, (2, 1))
    b = compositions(entry, P("z1*z2 - 1"), DT12, (2, 1))
    assert [r.headline() for r in a] == [r.headline() for r in b]


# -- triviality ---------------------------------------------------------------


def test_is_trivial_rejects_monomials_at_or_above_anchor():
    gens = splitting_set()
    with pytest.raises(ValueError):
        is_trivial(P("z1*z2"), gens, W("z1*z2"), 100)
    with pytest.raises(ValueError):
        is_trivial(P("z1*z2*z1"), gens, W("z1*z2"), 100)


def test_is_trivial_zero_input():
    gens = splitting_set()
    v = is_trivial(OPoly.zero(), gens, W("z1*z2"), 100)
    assert v.status == "trivial" and v.conclusive


def test_is_trivial_fuel_exhaustion_is_unresolved():
    gens = splitting_set()
    v = is_trivial(P("z1*z2 - 1"), gens, W("z1*z2*z1"), 0)
    assert v.status == "unresolved"
    assert not v.conclusive
    assert "fuel" in v.note


def test_is_trivial_conclusive_refusal_inside_bounds():
    gens = averaging_set()
    h = P("[1]*[z1] - [z1]*[1]")
    v = is_trivial(h, gens, W("[[z1]]"), 2000)
    assert v.status == "not_trivial"
    assert v.residue == h


def test_is_trivial_residue_escaping_bounds_is_unresolved():
    gens = GeneratorSet((), (P("z1*z2 - [[1]]"),), DB12, Z12)
    rules = gens.ruleset((4, 0))
    h = P("[[1]] - 1")
    v = is_trivial(h, gens, W("z1*z2*z1"), 100, rules=rules)
    assert v.status == "unresolved"
    assert "leaves the verified bounds" in v.note


# -- the completeness check ---------------------------------------------------


def test_check_gs_commutator_config_passes_on_hypothesis_route():
    rep = check_gs(rb_commutator_set(), (3, 2), 2000)
    assert rep.route == "hypothesis"
    assert rep.passed
    assert rep.generator_counts == {"concrete": 1, "schema": 49, "degenerate": 0}
    assert rep.counts == {
        "total": 14,
        "skipped": 0,
        "trivial": 14,
        "not_trivial": 0,
        "unresolved": 0,
    }
    assert "result: PASS" in rep.to_text()


def test_check_gs_splitting_config_fails_with_exact_witness():
    rep = check_gs(splitting_set(), (2, 1), 2000)
    assert rep.route == "raw"  # degraded: the expansion family breaks the hypotheses
    assert not rep.passed
    assert rep.counts["total"] == 29
    assert rep.counts["trivial"] == 28
    assert rep.counts["not_trivial"] == 1
    assert rep.counts["unresolved"] == 0
    bad = [r for r in rep.records if r.verdict and r.verdict.status == "not_trivial"]
    assert len(bad) == 1
    assert bad[0].w == W("[z1*z2]")
    assert bad[0].verdict.residue == P("-[z1]*z2 - z1*[z2]")
    assert "result: FAIL" in rep.to_text()


def test_check_gs_averaging_skips_unit_collisions_under_hypotheses():
    rep = check_gs(averaging_set(), (2, 2), 2000)
    assert rep.passed
    assert rep.route == "hypothesis"
    assert rep.generator_counts == {"concrete": 0, "schema": 33, "degenerate": 0}
    assert rep.counts["total"] == 12
    assert rep.counts["skipped"] == 12
    assert all(r.pair_kind == "schema-schema" for r in rep.records)


def test_check_gs_averaging_raw_route_fails_honestly():
    rep = check_gs(averaging_set(), (2, 2), 2000, route="raw")
    assert rep.route == "raw"
    assert not rep.passed
    assert rep.counts["skipped"] == 0
    assert rep.counts["not_trivial"] == 12
    for r in rep.records:
        res = r.verdict.residue
        assert len(res) == 2
        assert all(m.breadth == 2 and m.op_degree == 2 for m in res.support())


def test_check_gs_reynolds_is_vacuous_at_small_op_bound():
    gens = GeneratorSet((parse_catalog("reynolds?n=4"),), (), DT12, Z12)
    rep = check_gs(gens, (2, 2), 2000)
    assert rep.passed
    assert rep.counts["total"] == 0
    assert rep.generator_counts == {"concrete": 0, "schema": 0, "degenerate": 0}


def test_check_gs_rejects_unknown_route():
    with pytest.raises(ValueError):
        check_gs(splitting_set(), (2, 1), 100, route="fast")


def test_check_gs_rejects_negative_fuel():
    with pytest.raises(ValueError, match="must be at least"):
        check_gs(splitting_set(), (2, 1), -1)


# -- irreducibles and the quotient --------------------------------------------


def test_erasure_family_irreducibles():
    gens = GeneratorSet((parse_catalog("diffprime?c=1"),), (), DT1, Z1)
    assert enumerate_irr(gens, (2, 1)) == (W("1", Z1), W("z", Z1), W("z*z", Z1))
    rules = gens.ruleset((2, 1))
    assert rules.find_redex(W("z*z", Z1)) is None
    assert rules.find_redex(W("[z]", Z1)) is not None


def test_quotient_refuses_failing_generator_set():
    with pytest.raises(ValueError, match="refused"):
        QuotientAlgebra(splitting_set(), (2, 1), 2000)


def test_quotient_bounds_are_hard_walls():
    gens = GeneratorSet((parse_catalog("rb:6?lambda=0"),), (), OrderSpec.for_alphabet("db", Z1), Z1)
    qa = QuotientAlgebra(gens, (2, 2), 2000)
    with pytest.raises(BoundsExceeded):
        qa.nf(P("z*z*z", Z1))
    with pytest.raises(BoundsExceeded):
        qa.nf_multiply(P("z*z", Z1), P("z", Z1))
    with pytest.raises(BoundsExceeded):
        qa.nf_operator(P("[[z]]", Z1))


def test_quotient_bracket_pair_products():
    gens = GeneratorSet((parse_catalog("rb:6?lambda=0"),), (), OrderSpec.for_alphabet("db", Z1), Z1)
    qa = QuotientAlgebra(gens, (2, 2), 2000)
    assert qa.nf_multiply(P("[z]", Z1), P("[z]", Z1)) == P("[[z]*z] + [z*[z]]", Z1)
    assert qa.nf_operator(P("z", Z1)) == P("[z]", Z1)


def test_quotient_normal_forms_land_on_irreducibles():
    gens = GeneratorSet((parse_catalog("rb:6?lambda=1"),), (), OrderSpec.for_alphabet("db", Z1), Z1)
    qa = QuotientAlgebra(gens, (2, 2), 2000)
    irr = set(qa.irr_basis())
    for w in all_words(Z1, 2, 2):
        out = qa.nf(OPoly.from_word(w))
        assert set(out.support()) <= irr
        assert qa.nf(out) == out
    for u in irr:
        assert qa.nf(OPoly.from_word(u)) == OPoly.from_word(u)


def test_quotient_products_associate():
    gens = GeneratorSet((parse_catalog("diffprime?c=1"),), (), DT1, Z1)
    qa = QuotientAlgebra(gens, (3, 1), 2000)
    a, b, c = P("z", Z1), P("[z]", Z1), P("z + 2", Z1)
    left = qa.nf_multiply(qa.nf_multiply(a, b), c)
    right = qa.nf_multiply(a, qa.nf_multiply(b, c))
    assert left == right == P("z*z*z + 2*z*z", Z1)


def test_morphism_evaluation_in_the_quotient():
    gens = GeneratorSet((parse_catalog("rb:6?lambda=0"),), (), OrderSpec.for_alphabet("db", Z1), Z1)
    qa = QuotientAlgebra(gens, (2, 2), 2000)
    theta = {"z": W("z", Z1)}
    f = P("[z]*[z] + 3", Z1)
    assert evaluate_morphism(f, theta, qa) == P("[[z]*z] + [z*[z]] + 3", Z1)
    assert evaluate_morphism(OPoly.one(), theta, qa) == OPoly.one()


def test_morphism_respects_products():
    gens = GeneratorSet((parse_catalog("diffprime?c=1"),), (), DT1, Z1)
    qa = QuotientAlgebra(gens, (3, 1), 2000)
    theta = {"z": P("z + 1", Z1)}
    f, g = P("z", Z1), P("[z] - 2", Z1)
    lhs = evaluate_morphism(f * g, theta, qa)
    rhs = qa.nf_multiply(evaluate_morphism(f, theta, qa), evaluate_morphism(g, theta, qa))
    assert lhs == rhs


def test_morphism_requires_every_letter():
    gens = GeneratorSet((parse_catalog("diffprime?c=1"),), (), DT1, Z1)
    qa = QuotientAlgebra(gens, (2, 1), 2000)
    with pytest.raises(ValueError, match="no image"):
        evaluate_morphism(P("z", Z1), {}, qa)


def test_compositions_of_one_source_expands_it_once(monkeypatch):
    calls = []
    real = gsbasis.expand_instances

    def counted(*args, **kwargs):
        calls.append(args)
        return real(*args, **kwargs)

    monkeypatch.setattr(gsbasis, "expand_instances", counted)
    entry = parse_catalog("rb:6?lambda=1")
    recs = compositions(entry, entry, DB12, (2, 1), Z12)
    assert len(calls) == 1
    assert recs == compositions(entry, parse_catalog("rb:6?lambda=1"), DB12, (2, 1), Z12)
