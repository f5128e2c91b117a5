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
"""

import pytest
from hypothesis import given, seed, settings
from hypothesis import strategies as st

import opalg.rewrite as rewrite
from conftest import Z12, opolys
from opalg import (
    ConcreteRule,
    GeneratorSet,
    OPoly,
    OrderSpec,
    ReductionResult,
    RuleSet,
    all_words,
    check_diff_type,
    check_rb_type,
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

