"""Composition records, triviality verdicts, completeness reports, quotients."""

import gc
import types
import weakref
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
    RuleSet,
    all_words,
    check_gs,
    enumerate_irr,
    evaluate_morphism,
    is_trivial,
    parse_catalog,
    parse_opoly,
    parse_word,
)
from opalg import cli, gsbasis
from opalg.rewrite import TraceStep

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
    recs = GeneratorSet((), (), DB12, Z12).compositions(f, f, (3, 0))
    assert len(recs) == 1
    (r,) = recs
    assert r.kind == "intersection"
    assert r.w == W("z1*z1*z1")
    assert r.witness == "overlap k=1"
    assert r.value.is_zero()


def test_trivial_inclusion_kept_for_distinct_generators():
    f = P("z1*z2 - 1")
    g = P("2*z1*z2 - 2*z1")  # monicized before pairing
    recs = GeneratorSet((), (), DB12, Z12).compositions(f, g, (2, 0))
    incl = [r for r in recs if r.kind == "inclusion"]
    assert len(incl) == 2  # both directions share the leading word
    assert {r.witness for r in incl} == {"context @"}
    values = {str(r.value) for r in incl}
    assert values == {"z1 - 1", "-z1 + 1"}


def test_splitting_config_produces_five_records():
    entry = parse_catalog("diff:1")
    recs = GeneratorSet((entry,), (), DT12, Z12).compositions(entry, P("z1*z2 - 1"), (2, 1))
    assert len(recs) == 5
    assert {r.pair_kind for r in recs} <= {"schema-concrete", "concrete-schema"}


def test_splitting_pocket_record_is_conclusively_nontrivial():
    gens = splitting_set()
    entry = parse_catalog("diff:1")
    recs = gens.compositions(entry, P("z1*z2 - 1"), (2, 1))
    pocket = [r for r in recs if r.w == W("[z1*z2]")]
    assert len(pocket) == 1
    (r,) = pocket
    assert r.kind == "inclusion"
    assert r.witness == "context [@]"
    assert r.value == P("-[z1]*z2 - z1*[z2] + [1]")
    verdict = is_trivial(r.value, gens.ruleset((2, 1)), r.w, 2000)
    assert verdict.status == "not_trivial"
    assert verdict.conclusive
    assert verdict.residue == P("-[z1]*z2 - z1*[z2]")
    assert "NOT trivial" in verdict.to_text()


def test_records_sort_deterministically():
    entry = parse_catalog("diff:1")
    a = GeneratorSet((entry,), (), DT12, Z12).compositions(entry, P("z1*z2 - 1"), (2, 1))
    b = GeneratorSet((entry,), (), DT12, Z12).compositions(entry, P("z1*z2 - 1"), (2, 1))
    assert [r.headline() for r in a] == [r.headline() for r in b]


# -- triviality ---------------------------------------------------------------


def test_is_trivial_rejects_monomials_at_or_above_anchor():
    rules = splitting_set().ruleset((2, 1))
    with pytest.raises(ValueError):
        is_trivial(P("z1*z2"), rules, W("z1*z2"), 100)
    with pytest.raises(ValueError):
        is_trivial(P("z1*z2*z1"), rules, W("z1*z2"), 100)


def test_is_trivial_refuses_a_rule_set_without_an_order():
    with pytest.raises(ValueError, match="order"):
        is_trivial(OPoly.zero(), RuleSet((), None, (2, 1)), W("z1*z2"), 100)


def test_is_trivial_zero_input():
    v = is_trivial(OPoly.zero(), splitting_set().ruleset((2, 1)), W("z1*z2"), 100)
    assert v.status == "trivial" and v.conclusive


def test_is_trivial_fuel_exhaustion_is_unresolved():
    v = is_trivial(P("z1*z2 - 1"), splitting_set().ruleset((3, 1)), W("z1*z2*z1"), 0)
    assert v.status == "unresolved"
    assert not v.conclusive
    assert "fuel" in v.note


def test_is_trivial_conclusive_refusal_inside_bounds():
    h = P("[1]*[z1] - [z1]*[1]")
    v = is_trivial(h, averaging_set().ruleset((1, 2)), W("[[z1]]"), 2000)
    assert v.status == "not_trivial"
    assert v.residue == h


def test_is_trivial_residue_escaping_bounds_is_unresolved():
    gens = GeneratorSet((), (P("z1*z2 - [[1]]"),), DB12, Z12)
    rules = gens.ruleset((4, 0))
    h = P("[[1]] - 1")
    v = is_trivial(h, rules, W("z1*z2*z1"), 100)
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


def test_quotient_keeps_no_composition_record_alive():
    def live():
        return sum(isinstance(o, gsbasis.CompositionRecord) for o in gc.get_objects())

    gc.collect()
    before = live()
    qa = QuotientAlgebra(rb_commutator_set(), (3, 2), 2000)
    gc.collect()
    assert live() == before
    assert qa.nf(P("z2*z1")) == P("z1*z2")


def _reachable(root, skip=(type, types.ModuleType, types.FunctionType)):
    """Every object the garbage collector can reach from ``root``, not
    following classes, modules or functions (which reach everything)."""
    seen = {id(root): root}
    todo = [root]
    while todo:
        for o in gc.get_referents(todo.pop()):
            if id(o) not in seen and not isinstance(o, skip):
                seen[id(o)] = o
                todo.append(o)
    return seen.values()


def test_check_gs_report_holds_no_trace():
    report = check_gs(rb_commutator_set(), (3, 2), 2000, route="raw")
    reached = list(_reachable(report))
    assert any(isinstance(o, gsbasis.CompositionRecord) for o in reached)
    assert not any(isinstance(o, TraceStep) for o in reached)
    assert report.counts["trivial"] and all(r.verdict.steps == () for r in report.records)


def test_check_gs_leaves_no_cyclic_garbage():
    # what a check builds for itself (the record scan's memo of bracket
    # factor hits among it) is freed by reference counting alone
    check_gs(rb_commutator_set(), (2, 1), 100)
    gc.collect()
    gc.disable()
    try:
        for route in ("auto", "raw"):
            check_gs(rb_commutator_set(), (3, 2), 2000, route=route)
        assert gc.collect() == 0
    finally:
        gc.enable()


def test_check_gs_command_frees_every_rule_set(monkeypatch, capsys, tmp_path):
    # the memo of word normal forms lives on its rule set: none outlives the call
    built = []
    init = RuleSet.__init__

    def recording_init(self, *args, **kwargs):
        init(self, *args, **kwargs)
        built.append(weakref.ref(self))

    monkeypatch.setattr(RuleSet, "__init__", recording_init)
    argv = ["check-gs", "--catalog", "rb:6?lambda=1", "--gens", "z2*z1 - z1*z2", "--bounds", "3,2"]
    assert cli.main(argv + ["--report", str(tmp_path / "report.json")]) == 0
    assert "result: PASS" in capsys.readouterr().out
    assert built and [ref() for ref in built] == [None] * len(built)


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
    recs = GeneratorSet((entry,), (), DB12, Z12).compositions(entry, entry, (2, 1))
    assert len(calls) == 1
    again = parse_catalog("rb:6?lambda=1")
    assert recs == GeneratorSet((entry, again), (), DB12, Z12).compositions(entry, again, (2, 1))


def test_per_item_types_have_no_instance_dict():
    # one slot layout per generator, record, redex and step: a per-instance
    # dict would cost more than the fields it holds
    from opalg.opi import check_lm_no_subword, check_lm_stability
    from opalg.rewrite import ConcreteRule, RuleSet, SchemaRule, check_rb_type, normal_form

    entry = parse_catalog("diff:1")
    gens = GeneratorSet((entry,), (P("z1*z2 - 1"),), DT12, Z12)
    report = check_gs(gens, (2, 1), 2000)
    rules = gens.ruleset((2, 1))
    # check_gs verdicts keep no trace; the step comes from is_trivial
    record = next(r for r in report.records if r.verdict is not None and is_trivial(r.value, rules, r.w, 2000).steps)
    step = is_trivial(record.value, rules, record.w, 2000).steps[0]
    concrete = next(r for r in rules.rules if isinstance(r, ConcreteRule))
    schema = next(r for r in rules.rules if isinstance(r, SchemaRule))
    phi = entry.opis[0]
    reduced = normal_form(P("[z1*z2]"), rules, 100)
    items = [
        gens.expanded((2, 1))[0],
        record,
        record.verdict,
        step,
        step.context,
        rules.find_redex(W("[z1*z2]")),
        reduced,
        concrete,
        schema,
        report,
        check_rb_type(parse_catalog("rb:1"), Z12, (1, 1), 100),
        check_lm_no_subword(phi, "dt"),
        check_lm_stability(phi, DT12),
    ]
    for item in items:
        assert item is not None
        assert not hasattr(item, "__dict__"), type(item).__name__
