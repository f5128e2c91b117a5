"""Rule sets, reduction, traces, and the two structural templates."""

import os
import random
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

from conftest import CATALOG_SELECTORS, Z1, Z12
from opalg import (
    OPI,
    CatalogEntry,
    ConcreteRule,
    GeneratorSet,
    OPoly,
    OrderSpec,
    RuleSet,
    check_diff_type,
    check_rb_type,
    normal_form,
    parse_catalog,
    parse_opoly,
    render_opoly,
)
from opalg.opi import MAX_EXPANSION_WORDS
from opalg.terms import Word, all_words, count_words, iter_slices, parse_word, render
from reference import normal_form_random, random_word

DB = OrderSpec.for_alphabet("db", Z12)
DT = OrderSpec.for_alphabet("dt", Z12)


def W(text, alphabet=Z12):
    return parse_word(text, alphabet)


def P(text, alphabet=Z12):
    return parse_opoly(text, alphabet)


def schema_poly(text, variables=("x1", "x2")):
    return parse_opoly(text, None, extra_letters=tuple(variables))


def rules_for(selector, bounds=(2, 2), alphabet=Z12, concrete=()):
    entry = parse_catalog(selector)
    order = OrderSpec.for_alphabet(entry.preset, alphabet)
    gens = GeneratorSet((entry,), tuple(parse_opoly(t, alphabet) for t in concrete), order, alphabet)
    return gens.ruleset(bounds), order


# -- rule construction --------------------------------------------------------


def test_concrete_rule_rejects_unit_pattern():
    with pytest.raises(ValueError):
        ConcreteRule("g0", W("1"), OPoly.zero())


def test_concrete_rule_rejects_self_reference():
    with pytest.raises(ValueError):
        ConcreteRule("g0", W("z1"), P("z1 + z2"))


def test_ordered_ruleset_materializes_degenerate_instances():
    rules, _ = rules_for("diff:1", bounds=(2, 1))
    ids = [r.rule_id for r in rules.rules]
    assert ids[0] == "diff:1"
    assert any(i.startswith("diff:1[") for i in ids)


def test_ordered_ruleset_flags_unit_ideal():
    phi = OPI("skew", ("x1", "x2"), schema_poly("x1*x2 - 2*x2*x1"))
    entry = CatalogEntry("skew", "skew", (phi,), "db", (), False, False)
    expanded = GeneratorSet((entry,), (), DB, Z12).expanded((2, 0))
    with pytest.raises(ValueError, match="nonzero constant"):
        RuleSet.ordered(DB, (2, 0), opis=(phi,), generators=expanded)


def test_concrete_generator_with_constant_lead_refused():
    expanded = GeneratorSet((), (P("2"),), DB, Z12).expanded((2, 0))
    with pytest.raises(ValueError, match="constant leading monomial"):
        RuleSet.ordered(DB, (2, 0), opis=(), generators=expanded)
    with pytest.raises(ValueError):
        GeneratorSet((), (OPoly.zero(),), DB, Z12)


# -- single steps and redex order --------------------------------------------


def test_one_step_insertion_sample():
    rules, order = rules_for("rb:1")
    f = P("[z1]*[z2]")
    res = normal_form(f, rules, 1)
    assert res.poly == P("[z1*[z2]]")
    assert [step.rule_id for step in res.steps] == ["rb:1"]


def test_redexes_scan_positions_left_to_right():
    rules, _ = rules_for("diffprime?c=1", bounds=(2, 2), alphabet=Z1)
    w = W("[z]*[z]", Z1)
    positions = [str(r.context) for r in rules.iter_redexes(w)]
    assert positions == ["@*[z]", "[z]*@"]


def test_guarded_schema_rule_skips_degenerate_slices():
    # at a unit assignment the true leading monomial moves elsewhere, so the
    # schema rule must not fire on the nominal pattern
    rules, _ = rules_for("diff:1", bounds=(2, 1))
    w = W("[z1]")  # matches [x1*x2] only with a unit in one variable
    hits = [r for r in rules.iter_redexes(w) if r.rule_id == "diff:1"]
    assert hits == []


def test_degenerate_instance_rule_covers_the_gap():
    rules, _ = rules_for("diff:1", bounds=(2, 1))
    w = W("[1]*z1")
    res = normal_form(OPoly.from_word(w), rules, 50)
    assert res.poly.is_zero()


# -- normal forms -------------------------------------------------------------


def test_insertion_normal_form_recursive():
    rules, order = rules_for("nijenhuis", bounds=(2, 3))
    res = normal_form(P("[z1]*[z2]"), rules, 100)
    assert res.poly == P("[[z1]*z2] + [z1*[z2]] - [[z1*z2]]")
    assert not res.exhausted


def test_normal_form_fuel_exhaustion_reported():
    rules, _ = rules_for("nijenhuis", bounds=(2, 3))
    res = normal_form(P("[z1]*[z2]"), rules, 0)
    assert res.exhausted
    assert res.poly == P("[z1]*[z2]")


def test_normal_form_trace_replays():
    rules, order = rules_for("rb:6?lambda=1", bounds=(2, 2))
    res = normal_form(P("[z1]*[z2] + [z2]*[z1]"), rules, 100, want_trace=True)
    assert res.steps
    text = res.trace_text()
    assert "rule rb:6" in text
    assert "x1=" in text


def test_trace_suppressed_on_request():
    rules, _ = rules_for("rb:1")
    res = normal_form(P("[z1]*[z2]"), rules, 100, want_trace=False)
    assert res.steps == ()


def test_collapse_family_erases_brackets():
    rules, _ = rules_for("diffprime?c=1", bounds=(3, 3), alphabet=Z1)
    res = normal_form(P("[[z]*z]", Z1), rules, 100)
    assert res.poly == P("z*z", Z1)


def test_collapse_family_scales_by_parameter():
    rules, _ = rules_for("diffprime?c=2", bounds=(3, 3), alphabet=Z1)
    res = normal_form(P("[[z]]", Z1), rules, 100)
    assert res.poly == P("4*z", Z1)


def test_commutator_rule_applies_inside_brackets():
    rules, _ = rules_for("rb:6?lambda=0", bounds=(2, 2), concrete=("z2*z1 - z1*z2",))
    res = normal_form(P("[z2*z1]"), rules, 100)
    assert res.poly == P("[z1*z2]")


def test_reduction_strictly_descends():
    rules, order = rules_for("rb:6?lambda=1", bounds=(3, 2))
    f = P("[z1]*[z2]*z1")
    res = normal_form(f, rules, 500, want_trace=True)
    lm = f.leading(order)[0]
    for w in res.poly.support():
        assert order.compare(w, lm) < 0


_NON_DESCENDING = """
from opalg import Alphabet, ConcreteRule, OrderSpec, RuleSet, normal_form, parse_opoly, parse_word
z12 = Alphabet(("z1", "z2"))
rule = ConcreteRule("up", parse_word("z1", z12), parse_opoly("z1*z1", z12))
try:
    normal_form(parse_opoly("z1", z12), RuleSet([rule], OrderSpec.for_alphabet("db", z12)), 5)
except RuntimeError as exc:
    print(exc)
"""


def test_descent_check_survives_optimized_interpreter():
    # python -O strips assert statements; the descent check must not be one
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ, PYTHONPATH=src)
    proc = subprocess.run(
        [sys.executable, "-O", "-c", _NON_DESCENDING],
        capture_output=True, text=True, timeout=60, env=env,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "non-descending step: z1*z1 !< z1 via up"


# -- randomized strategies ----------------------------------------------------


def test_random_strategy_agrees_with_leftmost():
    rules, _ = rules_for("rb:6?lambda=1", bounds=(3, 2), concrete=("z2*z1 - z1*z2",))
    for seed in range(30):
        rng = random.Random(seed)
        f = OPoly.from_word(random_word(rng, Z12, 3, 2)) + OPoly.from_word(
            random_word(rng, Z12, 3, 2), Fraction(-2)
        )
        base = normal_form(f, rules, 10000).poly
        for salt in (101, 202):
            out = normal_form_random(f, rules, 10000, random.Random(seed * 7 + salt)).poly
            assert out == base


# -- structural templates -----------------------------------------------------


def test_insertion_template_accepts_every_shipped_item():
    for item in range(1, 15):
        sel = f"rb:{item}" if item <= 5 else f"rb:{item}?lambda=1"
        rep = check_rb_type(parse_catalog(sel), Z12, (2, 1), 2000)
        assert rep.passed, rep.to_text()


def test_insertion_template_rejects_nested_bracket_pair():
    phi = OPI("bad", ("x1", "x2"), schema_poly("[x1]*[x2] - [[x1]*[x2]]"))
    rep = check_rb_type(phi, Z12, (2, 1), 2000)
    assert not rep.passed
    failed = {label for label, ok, _ in rep.conditions if not ok}
    assert "(b) no forbidden subword" in failed


def test_insertion_template_rejects_broken_associativity():
    phi = OPI("scaled", ("x1", "x2"), schema_poly("[x1]*[x2] - 2*[x1*[x2]]"))
    rep = check_rb_type(phi, Z12, (2, 1), 2000)
    assert not rep.passed
    failed = {label for label, ok, _ in rep.conditions if not ok}
    assert "(d) associativity closure" in failed


def test_insertion_template_rejects_wrong_lead():
    phi = parse_catalog("diff:1").opis[0]
    rep = check_rb_type(phi, Z12, (2, 1), 2000)
    assert not rep.passed


def test_splitting_template_accepts_shipped_items():
    for sel in ("diff:1", "diff:2", "diff:3?l00=1,l01=1", "diff:4", "diff:5", "diff:6"):
        rep = check_diff_type(parse_catalog(sel), Z12, (2, 1), 2000)
        assert rep.passed, rep.to_text()


def test_splitting_template_rejects_wide_bracket():
    phi = OPI("wide", ("x1", "x2"), schema_poly("[x1*x2] - [x1*x2]*[1]"))
    rep = check_diff_type(phi, Z12, (2, 1), 2000)
    assert not rep.passed
    failed = {label for label, ok, _ in rep.conditions if not ok}
    assert any("(b)" in label for label in failed)


def test_splitting_template_rejects_broken_cocycle():
    phi = OPI("sym", ("x1", "x2"), schema_poly("[x1*x2] - x1*[x2] - x2*[x1]"))
    rep = check_diff_type(phi, Z12, (3, 1), 2000)
    assert not rep.passed
    failed = {label for label, ok, _ in rep.conditions if not ok}
    assert any("cocycle" in label for label in failed)


def test_template_reports_render():
    rep = check_rb_type(parse_catalog("rb:1"), Z12, (2, 1), 2000)
    text = rep.to_text()
    assert "PASSED" in text
    assert "(c) termination at bounds" in text


def test_audits_refuse_a_scope_over_the_expansion_limit():
    # (2,7) holds 286,486 words; the termination probe alone would walk all of them
    pool = count_words(2, 2, 7)
    assert pool > MAX_EXPANSION_WORDS
    for audit, sel in ((check_rb_type, "rb:1"), (check_diff_type, "diff:1")):
        with pytest.raises(ValueError, match=f"{pool} words, over the limit of {MAX_EXPANSION_WORDS}"):
            audit(parse_catalog(sel), Z12, (2, 7), 2000)


def test_type_report_json_dict():
    rep = check_diff_type(parse_catalog("diff:1"), Z12, (2, 1), 0)
    assert rep.to_json_dict() == {
        "opi": "diff:1",
        "family": "bracket-of-product",
        "bounds": [2, 1],
        "fuel": 0,
        "conditions": [
            {"label": "shape", "ok": True, "detail": "expansion map with 2 term(s)"},
            {"label": "(a) linearity", "ok": True, "detail": "multilinear by construction"},
            {"label": "(b) no forbidden subword", "ok": True, "detail": "no bracket factor has a product inside"},
            {"label": "(c) termination at bounds", "ok": False, "detail": "[z1*z1]"},
        ],
        "passed": False,
    }


# -- schema matches read the expanded instances -------------------------------

SLICE_WORDS = all_words(Z12, 3, 2)


def matches_as_without_index(rules):
    """Assert that every slice of ``SLICE_WORDS`` a rule of ``rules`` can
    match matches as in the same rule set without an instance index, which
    instantiates, guards and scales every schema match: the same rule ids,
    assignments and replacements, in the same order.  Returns how many
    matches the index answered."""
    bare = RuleSet(rules.rules, rules.order, rules.bounds)
    assert not bare._instances
    seen = set()
    read = 0
    for w in SLICE_WORDS:
        for level, i, j, _ in iter_slices(w, rules._lengths, rules._open_from):
            sl = level[i:j]
            if sl in seen:
                continue
            seen.add(sl)
            got = rules._match_slice(sl)
            assert got == bare._match_slice(sl), render(Word(sl))
            g = rules._instances.get(Word(sl))
            read += sum(
                g is not None and sigma is not None and g.opi.name == rule_id and g.values == tuple(v for _, v in sigma)
                for rule_id, sigma, _ in got
            )
    return read


@pytest.mark.parametrize("bounds", [(2, 2), (3, 2)])
def test_schema_matches_read_the_expanded_instance_as_instantiating_would(bounds):
    read = 0
    for selector in CATALOG_SELECTORS:
        for concrete in ((), ("z2*z1 - z1*z2",)):
            rules, _ = rules_for(selector, bounds, concrete=concrete)
            read += matches_as_without_index(rules)
    assert read > 1000


def test_a_dropped_duplicate_instance_is_instantiated():
    # rb:6[x1=z1, x2=z2] is this concrete generator, so the expansion keeps
    # the concrete one and indexes no instance at its lead
    dup = "[z1]*[z2] - [z1*[z2]] - [[z1]*z2] - [z1*z2]"
    rules, _ = rules_for("rb:6?lambda=1", (3, 2), concrete=(dup,))
    lead = W("[z1]*[z2]")
    assert lead not in rules._instances
    (schema, concrete) = rules._match_slice(lead.factors)
    assert schema[:2] == ("rb:6", (("x1", W("z1")), ("x2", W("z2"))))
    assert concrete[0] == "g0" and schema[2] == concrete[2] == OPoly.from_word(lead) - P(dup)
    assert matches_as_without_index(rules) > 0


def test_a_lead_that_aligns_two_ways_reads_only_its_own_instance():
    # [x1*z1*x2] meets [z1*z1*z1] three ways, with three distinct instances
    # of first; the index keeps the first of them, and second's instances
    # at the same values lose to first's in the index
    xs = ("x1", "x2")
    first = OPI("first", xs, schema_poly("[x1*z1*x2] - [x1]*x2"))
    second = OPI("second", xs, schema_poly("[x1*z1*x2] - x2*[x1]"))
    entry = CatalogEntry("pair", "pair", (first, second), "db", (), True, True)
    rules = GeneratorSet((entry,), (), DB, Z12).ruleset((3, 2))
    lead = W("[z1*z1*z1]")
    g = rules._instances[lead]
    assert (g.opi, g.values) == (first, (W("1"), W("z1*z1")))
    matches = rules._match_slice(lead.factors)
    assert [(rule_id, tuple(render(v) for _, v in sigma)) for rule_id, sigma, _ in matches] == [
        (name, values) for name in ("first", "second") for values in (("1", "z1*z1"), ("z1", "z1"), ("z1*z1", "1"))
    ]
    assert len({str(rhs) for _, _, rhs in matches}) == 5  # second at x2=1 is first at x2=1
    assert matches_as_without_index(rules) > 0
