"""``normal_form`` and the redex search against the unmemoized code they replaced.

A rule set remembers the matches of each factor slice and each word's
first redex, and ``normal_form`` picks the greatest reducible monomial
without sorting the polynomial and reduces in one term dict.  The
references below are the code before that: every step sorts the
polynomial in the rule set's order, searches each word from the top with
the rule loop run afresh on every slice, and builds the next polynomial
from immutable parts, so no memo reaches them.  Both must agree on the
result, every trace step and the ``exhausted`` flag, at every fuel up to
the end of the reduction, and the redex search must agree word by word.
Without a trace, an ordered rule set answers from its memoized word
normal forms; the stepwise path is the reference for that memo, and
``check_gs``'s verdicts must be ``is_trivial``'s without its trace.
"""

import pytest
from hypothesis import given, seed, settings
from hypothesis import strategies as st

import opalg.rewrite as rewrite
from conftest import CATALOG_SELECTORS, Z12, opolys
from opalg import (
    ConcreteRule,
    GeneratorSet,
    OPoly,
    OrderSpec,
    ReductionResult,
    RuleSet,
    all_words,
    check_diff_type,
    check_gs,
    check_rb_type,
    is_trivial,
    normal_form,
    parse_catalog,
    parse_opoly,
    parse_word,
)
from opalg.rewrite import Redex, TraceStep
from opalg.terms import Word, align_factors, iter_slices, render, slice_context, substitute

FUEL = 500
WORDS = all_words(Z12, 3, 2)


def reference_redexes(rules, w):
    """Every redex of ``w``, each rule tried afresh on every slice."""
    for level, i, j, frames in iter_slices(w):
        sl = level[i:j]
        slice_word = None
        for rule in rules.rules:
            if isinstance(rule, ConcreteRule):
                if sl == rule.lhs.factors:
                    q = slice_context(level, i, j, frames)
                    yield Redex(rule.rule_id, q, None, rule.rhs)
                continue
            for sigma in align_factors(rule.lhs.factors, sl, rule.opi.variables, rule.nonempty):
                if slice_word is None:
                    slice_word = Word(sl)
                rhs = rules._rhs_for_schema(rule, slice_word, [sigma[v] for v in rule.opi.variables])
                if rhs is None:
                    continue
                yield Redex(
                    rule.rule_id,
                    slice_context(level, i, j, frames),
                    tuple((v, sigma[v]) for v in rule.opi.variables),
                    rhs,
                )


def reference_apply(f, w, c, rdx, order):
    replacement = substitute(rdx.context, rdx.rhs)
    if order is not None and replacement:
        hi = replacement.leading_monomial(order)
        if order.compare(hi, w) >= 0:
            raise RuntimeError(f"non-descending step: {render(hi)} !< {render(w)} via {rdx.rule_id}")
    return f - OPoly.from_word(w, c) + replacement.scale(c)


def reference_one_step(f, rules, index=0):
    for w, c in f.items(rules.order):
        rdx = next(reference_redexes(rules, w), None)
        if rdx is not None:
            step = TraceStep(index, rdx.rule_id, rdx.context, rdx.sigma, c, w)
            return reference_apply(f, w, c, rdx, rules.order), step
    return None


def reference_reducible(f, rules):
    return any(next(reference_redexes(rules, w), None) is not None for w, _ in f.items(rules.order))


def reference_normal_form(f, rules, fuel):
    steps = []
    cur = f
    for k in range(fuel):
        hit = reference_one_step(cur, rules, index=k)
        if hit is None:
            return ReductionResult(cur, tuple(steps), False)
        cur, st = hit
        steps.append(st)
    return ReductionResult(cur, tuple(steps), reference_reducible(cur, rules))


def assert_agree(f, rules, fuel):
    want = reference_normal_form(f, rules, fuel)
    got = normal_form(f, rules, fuel)
    assert (got.poly, got.steps, got.exhausted) == (want.poly, want.steps, want.exhausted)
    return want


def _ordered(selector, concrete):
    entry = parse_catalog(selector)
    order = OrderSpec.for_alphabet(entry.preset, Z12)
    gens = GeneratorSet((entry,), tuple(parse_opoly(g, Z12) for g in concrete), order, Z12)
    return gens.ruleset((3, 2))


def _raw(audit, selector):
    """The raw rule set ``audit`` builds for its termination and closure probes."""
    caught = []
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(rewrite, "_probe", lambda rep, alphabet, rules, *rest, **kw: caught.append(rules))
        audit(parse_catalog(selector), Z12, (2, 1), FUEL)
    (rules,) = caught
    return rules


# built once: every test below shares these rule sets and their memos
RULE_SETS = {
    "rb:6?lambda=1 + commutator": _ordered("rb:6?lambda=1", ["z2*z1 - z1*z2"]),
    "diff:1 + z1*z2 - 1": _ordered("diff:1", ["z1*z2 - 1"]),
    "averaging": _ordered("averaging", []),
    "raw rb:10?lambda=1": _raw(check_rb_type, "rb:10?lambda=1"),
    "raw diff:1": _raw(check_diff_type, "diff:1"),
}


@pytest.mark.parametrize("name", sorted(RULE_SETS))
def test_every_bounded_word_reduces_like_the_sorted_scan(name):
    rules = RULE_SETS[name]
    reduced = 0
    for w in WORDS:
        reduced += bool(assert_agree(OPoly.from_word(w), rules, FUEL).steps)
    assert reduced, f"{name}: no word within (3,2) is reducible"


def test_two_rule_sets_on_the_same_words_keep_their_own_memos():
    # fresh rule sets, run turn by turn on the same words: a memo shared
    # across rule sets would hand one of them the other's redexes
    first = _ordered("rb:6?lambda=1", ["z2*z1 - z1*z2"])
    second = _ordered("rb:6?lambda=0", [])
    for w in WORDS:
        f = OPoly.from_word(w)
        for rules in (first, second, first):
            assert_agree(f, rules, FUEL)


@seed(7411)
@settings(max_examples=300)
@given(st.sampled_from(sorted(RULE_SETS)), opolys(max_terms=5))
def test_random_polynomials_agree_at_every_fuel(name, f):
    rules = RULE_SETS[name]
    full = assert_agree(f, rules, FUEL)
    for fuel in range(len(full.steps) + 2):
        assert_agree(f, rules, fuel)


def test_descent_check_fires_when_the_memo_serves_the_redex():
    # the first call searches z1, the later ones read its redex from the memo;
    # the check is a RuntimeError, so it holds under python -O as well
    rule = ConcreteRule("up", parse_word("z1", Z12), parse_opoly("z1*z1", Z12))
    rules = RuleSet([rule], OrderSpec.for_alphabet("db", Z12))
    for f in ("z1", "z1", "z2 + 3*z1"):
        with pytest.raises(RuntimeError, match=r"non-descending step: z1\*z1 !< z1 via up"):
            normal_form(parse_opoly(f, Z12), rules, 5)
    # a single step goes through the same check
    with pytest.raises(RuntimeError, match="non-descending step"):
        normal_form(parse_opoly("z1", Z12), rules, 1)
    assert rules.find_redex(parse_word("z1", Z12)).rule_id == "up"


# fresh rule sets, so each test below fills the memos it then reads
FRESH = {
    "rb:6?lambda=1 + commutator": lambda: _ordered("rb:6?lambda=1", ["z2*z1 - z1*z2"]),
    "rb:6?lambda=1": lambda: _ordered("rb:6?lambda=1", []),
    "diff:1 + z1*z2 - 1": lambda: _ordered("diff:1", ["z1*z2 - 1"]),
    "diff:1": lambda: _ordered("diff:1", []),
    "averaging": lambda: _ordered("averaging", []),
    "diffprime?c=2": lambda: _ordered("diffprime?c=2", []),
    "raw rb:6?lambda=1": lambda: _raw(check_rb_type, "rb:6?lambda=1"),
    "raw diff:1": lambda: _raw(check_diff_type, "diff:1"),
}


@pytest.mark.parametrize("name", sorted(FRESH))
def test_memoized_redex_search_matches_the_rule_loop(name):
    # the first pass fills the slice and redex memos, the second reads them
    rules = FRESH[name]()
    found = 0
    for _ in range(2):
        for w in WORDS:
            want = list(reference_redexes(rules, w))
            assert list(rules.iter_redexes(w)) == want, render(w)
            assert rules.find_redex(w) == (want[0] if want else None), render(w)
            found += len(want)
    assert found, f"{name}: no redex within (3,2)"
    assert rules._slices



# -- the memoized normal forms against the stepwise path ----------------------------
#
# Without a trace, an ordered rule set sums memoized word normal forms; the
# stepwise path is the reference.  Both must give the same polynomial, the
# same ``exhausted`` flag and the same error at every fuel from 0 to the
# end of the reduction, asked in ascending and then descending fuel on one
# shared rule set, so a memo entry written at one fuel answers the others.


def both_paths(f, rules, fuel):
    def run(want_trace):
        try:
            res = normal_form(f, rules, fuel, want_trace=want_trace)
        except RuntimeError as exc:
            return str(exc)
        return res.poly, res.exhausted

    memo, stepwise = run(False), run(True)
    assert memo == stepwise, (str(f), fuel)
    return stepwise


def every_fuel_up_and_down(f, rules):
    steps = len(normal_form(f, rules, FUEL).steps)
    fuels = list(range(steps + 2))
    for fuel in fuels + fuels[::-1]:
        both_paths(f, rules, fuel)
    return steps


ORDERED = sorted(name for name in FRESH if not name.startswith("raw"))


@pytest.mark.parametrize("name", ORDERED)
def test_memoized_normal_forms_match_the_stepwise_path_at_every_fuel(name):
    rules = FRESH[name]()
    steps = [every_fuel_up_and_down(OPoly.from_word(w), rules) for w in WORDS]
    assert any(steps), f"{name}: no word within (3,2) is reducible"
    assert rules._normal


MEMO_SETS = {name: FRESH[name]() for name in ORDERED}


@seed(7412)
@settings(max_examples=200)
@given(st.sampled_from(ORDERED), opolys(max_terms=5))
def test_memoized_normal_forms_of_random_polynomials(name, f):
    every_fuel_up_and_down(f, MEMO_SETS[name])


@pytest.mark.parametrize("selector", CATALOG_SELECTORS)
def test_check_gs_verdicts_are_is_trivial_without_its_trace(selector):
    # every record at (2,2), of the identity alone and with the commutator:
    # check_gs judges through the memo, is_trivial through the steps
    entry = parse_catalog(selector)
    order = OrderSpec.for_alphabet(entry.preset, Z12)
    judged = 0
    for concrete in ((), (parse_opoly("z2*z1 - z1*z2", Z12),)):
        gens = GeneratorSet((entry,), concrete, order, Z12)
        rules = gens.ruleset((2, 2))
        for fuel in (FUEL, 1):
            for r in check_gs(gens, (2, 2), fuel, route="raw").records:
                want = is_trivial(r.value, rules, r.w, fuel)
                got = r.verdict
                assert (got.status, got.residue, got.note, got.steps) == (want.status, want.residue, want.note, ())
                judged += 1
        for r in check_gs(gens, (2, 2), FUEL, route="raw").records:
            every_fuel_up_and_down(r.value, rules)
    assert judged or selector == "reynolds?n=4"


def test_raw_rule_sets_keep_stepping():
    rules = FRESH["raw rb:6?lambda=1"]()
    for w in WORDS:
        both_paths(OPoly.from_word(w), rules, FUEL)
    assert not rules._normal


def test_memo_fill_meets_the_descent_check():
    # z2 -> z1 descends and z1 -> z1*z1 does not: the memo path gives the
    # stepwise error where the steps reach it, and the stepwise partial
    # result where fuel runs out first
    down = ConcreteRule("down", parse_word("z2", Z12), parse_opoly("z1", Z12))
    up = ConcreteRule("up", parse_word("z1", Z12), parse_opoly("z1*z1", Z12))
    rules = RuleSet([down, up], OrderSpec.for_alphabet("db", Z12))
    z2 = parse_opoly("z2", Z12)
    assert both_paths(z2, rules, 0) == (z2, True)
    assert both_paths(z2, rules, 1) == (parse_opoly("z1", Z12), True)
    for fuel in (2, 5, 2, 1):
        both_paths(z2, rules, fuel)
    with pytest.raises(RuntimeError, match=r"non-descending step: z1\*z1 !< z1 via up"):
        normal_form(z2, rules, 5, want_trace=False)
    assert not rules._normal


def test_a_long_chain_fills_without_recursion():
    # 1,089 commutator steps, each leaving one word: the memo fills them on
    # an explicit stack, past the interpreter's default recursion limit
    commutator = _ordered("rb:6?lambda=1", ["z2*z1 - z1*z2"])
    f = parse_opoly("*".join(["z2"] * 33 + ["z1"] * 33), Z12)
    res = normal_form(f, commutator, 2000, want_trace=False)
    assert res == ReductionResult(parse_opoly("*".join(["z1"] * 33 + ["z2"] * 33), Z12), (), False)
    assert commutator._normal[next(iter(f._terms))][0] == 33 * 33
