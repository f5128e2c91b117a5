"""The one slice walker against the recursive scans it replaced.

``terms.iter_slices`` owns the scan order of redex search, occurrences,
schema matching, the adjacent-pair scans and record indexing.  Each scan
below is a copy of the code that walked the slices by itself before; the
walker-based version must return the same list, in the same order, on
every word of ``all_words(Z12, 3, 2)``.
"""

import pytest

from conftest import Z1, Z12
from opalg import OPI, GeneratorSet, OPoly, OrderSpec, RuleSet, parse_catalog, parse_opoly
from opalg.opi import check_lm_no_subword
from opalg.rewrite import ConcreteRule, Redex, _scan_adjacent_nonunit_brackets
from opalg.terms import (
    COUNT_CEILING,
    HOLE,
    Context,
    Word,
    _align,
    align_factors,
    all_words,
    count_text,
    count_words,
    iter_occurrences,
    iter_slices,
    parse_word,
    render,
    schema_occurrences,
    slice_context,
    word_tuples,
)

WORDS = all_words(Z12, 3, 2)


# -- reference copies of the recursive scans ------------------------------------


def reference_redexes(rules, w):
    fs = w.factors
    n = len(fs)
    for i in range(n):
        for j in range(i + 1, n + 1):
            sl = fs[i:j]
            wrap = fs[:i] + (HOLE,) + fs[j:]
            for rule in rules.rules:
                if isinstance(rule, ConcreteRule):
                    if sl == rule.lhs.factors:
                        yield Redex(rule.rule_id, Context(Word(wrap)), None, rule.rhs)
                else:
                    slice_word = None
                    for sigma in align_factors(
                        rule.lhs.factors, sl, frozenset(rule.opi.variables), rule.nonempty
                    ):
                        if slice_word is None:
                            slice_word = Word(sl)
                        rhs = rules._rhs_for_schema(rule, slice_word, [sigma[v] for v in rule.opi.variables])
                        if rhs is None:
                            continue
                        yield Redex(
                            rule.rule_id,
                            Context(Word(wrap)),
                            tuple((v, sigma[v]) for v in rule.opi.variables),
                            rhs,
                        )
    for idx, f in enumerate(fs):
        if isinstance(f, Word):
            for rdx in reference_redexes(rules, f):
                outer = Word(fs[:idx] + (rdx.context.word,) + fs[idx + 1 :])
                yield Redex(rdx.rule_id, Context(outer), rdx.sigma, rdx.rhs)


def reference_occurrences(w, u):
    k = len(u.factors)
    fs = w.factors
    for i in range(len(fs) - k + 1):
        if fs[i : i + k] == u.factors:
            yield Context(Word(fs[:i] + (HOLE,) + fs[i + k :]))
    for j, f in enumerate(fs):
        if isinstance(f, Word):
            for q in reference_occurrences(f, u):
                yield Context(Word(fs[:j] + (q.word,) + fs[j + 1 :]))


def reference_schema_occurrences(w, schema, variables, nonempty):
    vs = frozenset(variables)
    ne = frozenset(nonempty)
    fs = w.factors
    n = len(fs)
    for i in range(n + 1):
        for j in range(i + 1, n + 1):
            for sigma in _align(schema.factors, fs[i:j], vs, ne, {}):
                yield Context(Word(fs[:i] + (HOLE,) + fs[j:])), sigma
    for j, f in enumerate(fs):
        if isinstance(f, Word):
            for q, sigma in reference_schema_occurrences(f, schema, vs, ne):
                yield Context(Word(fs[:j] + (q.word,) + fs[j + 1 :])), sigma


def reference_adjacent_nonunit_brackets(w):
    fs = w.factors
    for i in range(len(fs) - 1):
        a, b = fs[i], fs[i + 1]
        if (
            isinstance(a, Word)
            and isinstance(b, Word)
            and not a.is_unit()
            and not b.is_unit()
        ):
            return f"[{render(a)}]*[{render(b)}]"
    for f in fs:
        if isinstance(f, Word):
            hit = reference_adjacent_nonunit_brackets(f)
            if hit:
                return hit
    return None


def reference_adjacent_variables(w, vset):
    fs = w.factors
    for i in range(len(fs) - 1):
        a, b = fs[i], fs[i + 1]
        if isinstance(a, str) and isinstance(b, str) and a in vset and b in vset:
            return f"{a}*{b}"
    for f in fs:
        if isinstance(f, Word):
            hit = reference_adjacent_variables(f, vset)
            if hit:
                return hit
    return None


# -- the walker itself ------------------------------------------------------------


def test_iter_slices_order_on_a_nested_word():
    w = parse_word("z1*[z2*[z1]]*z2", Z12)
    got = [(render(Word(level[i:j])), len(frames)) for level, i, j, frames in iter_slices(w)]
    assert got == [
        ("z1", 0), ("z1*[z2*[z1]]", 0), ("z1*[z2*[z1]]*z2", 0),
        ("[z2*[z1]]", 0), ("[z2*[z1]]*z2", 0), ("z2", 0),
        ("z2", 1), ("z2*[z1]", 1), ("[z1]", 1),
        ("z1", 2),
    ]
    assert list(iter_slices(Word(()))) == []


def test_slice_context_plugs_back_to_the_word():
    count = 0
    for w in WORDS:
        for level, i, j, frames in iter_slices(w):
            assert slice_context(level, i, j, frames).plug(Word(level[i:j])) == w
            count += 1
    assert count > len(WORDS)


@pytest.mark.parametrize("letters, bounds", [(("z",), (3, 3)), (("z1", "z2"), (3, 2)), (("a", "b", "c"), (2, 2))])
def test_count_words_matches_all_words(letters, bounds):
    assert count_words(len(letters), *bounds) == len(all_words(letters, *bounds))


JOINT_CASES = [(Z12, 2, (3, 2)), (Z12, 3, (2, 1)), (Z12, 3, (2, 2)), (Z12, 3, (3, 1))]
# one letter without brackets: the closed form
JOINT_CASES += [(Z1, arity, (max_z, 0)) for arity in (1, 2, 3) for max_z in (0, 1, 6)]


@pytest.mark.parametrize(
    "alphabet, arity, bounds",
    JOINT_CASES,
    ids=[f"{'' if a is Z12 else 'z-'}{k}-bounds{i}" for i, (a, k, _) in enumerate(JOINT_CASES)],
)
def test_count_words_matches_jointly_bounded_tuples(alphabet, arity, bounds):
    want = sum(1 for _ in word_tuples(alphabet, *bounds, arity))
    assert count_words(len(alphabet), *bounds, arity=arity) == want


def reference_count_words(n_letters, max_z, max_op, arity=1):
    """``count_words`` as it was before it could stop early: the whole
    table, filled row by row."""
    exact = [[0] * (max_op + 1) for _ in range(max_z + 1)]
    exact[0][0] = 1
    for p in range(max_op + 1):
        for z in range(max_z + 1):
            if z or p:
                exact[z][p] = (n_letters * exact[z - 1][p] if z else 0) + sum(
                    exact[a][b] * exact[z - a][p - 1 - b] for a in range(z + 1) for b in range(p)
                )
    joint = exact
    for _ in range(arity - 1):
        joint = [
            [
                sum(joint[a][b] * exact[z - a][p - b] for a in range(z + 1) for b in range(p + 1))
                for p in range(max_op + 1)
            ]
            for z in range(max_z + 1)
        ]
    return sum(map(sum, joint))


def test_count_words_is_exact_up_to_the_ceiling():
    over = 0
    for n_letters in (1, 2, 3):
        for max_z in range(8):
            for max_op in range(8):
                for arity in (1, 2, 3):
                    want = reference_count_words(n_letters, max_z, max_op, arity)
                    got = count_words(n_letters, max_z, max_op, arity)
                    if want <= COUNT_CEILING:
                        assert got == want, (n_letters, max_z, max_op, arity)
                        assert count_text(got) == str(want)
                    else:
                        assert got == COUNT_CEILING + 1, (n_letters, max_z, max_op, arity)
                        assert count_text(got) == f"more than {COUNT_CEILING}"
                        over += 1
    assert over > 100


@pytest.mark.parametrize("bounds", [(400, 400), (60, 60), (0, 10**6), (10**6, 0), (10**40, 10**40)])
def test_count_words_stops_soon_over_the_ceiling(bounds):
    for arity in (1, 3):
        assert count_words(2, *bounds, arity=arity) == COUNT_CEILING + 1


# -- exhaustive agreement ---------------------------------------------------------

REDEX_CASES = [
    ("rb:6?lambda=1", ["z2*z1 - z1*z2"]),
    ("diff:1", ["z1*z2 - 1"]),
    ("averaging", []),
    ("diffprime?c=2", []),
]


@pytest.mark.parametrize("selector, concrete", REDEX_CASES, ids=[sel for sel, _ in REDEX_CASES])
def test_redexes_agree_with_recursive_scan(selector, concrete):
    entry = parse_catalog(selector)
    order = OrderSpec.for_alphabet(entry.preset, Z12)
    gens = GeneratorSet((entry,), tuple(parse_opoly(t, Z12) for t in concrete), order, Z12)
    ordered = gens.ruleset((3, 2))
    total = 0
    for rules in (ordered, RuleSet.raw(ordered.rules)):
        for w in WORDS:
            got = list(rules.iter_redexes(w))
            assert got == list(reference_redexes(rules, w)), render(w)
            total += len(got)
    assert total


def test_occurrences_agree_with_recursive_scan():
    patterns = [u for u in all_words(Z12, 2, 1) if not u.is_unit()]
    total = 0
    for w in WORDS:
        for u in patterns:
            got = list(iter_occurrences(w, u))
            assert got == list(reference_occurrences(w, u)), (render(w), render(u))
            total += len(got)
    assert total


LEADING_SCHEMAS = sorted(
    {
        (phi.lm(parse_catalog(sel).preset), phi.variables)
        for sel in ("rb:1", "diff:1", "diffprime", "averaging", "reynolds?n=3")
        for phi in parse_catalog(sel).opis
    },
    key=lambda t: render(t[0]),
)


@pytest.mark.parametrize("all_nonempty", [False, True])
def test_schema_occurrences_agree_with_recursive_scan(all_nonempty):
    total = 0
    for schema, variables in LEADING_SCHEMAS:
        nonempty = variables if all_nonempty else ()
        for w in WORDS:
            got = schema_occurrences(w, schema, variables, nonempty=nonempty)
            want = list(reference_schema_occurrences(w, schema, variables, nonempty))
            assert got == want, (render(w), render(schema))
            total += len(got)
    assert total


def test_adjacent_nonunit_bracket_scan_agrees_with_recursive_scan():
    got = [_scan_adjacent_nonunit_brackets(w) for w in WORDS]
    assert got == [reference_adjacent_nonunit_brackets(w) for w in WORDS]
    assert any(got) and not all(got)


def test_adjacent_variable_scan_agrees_with_recursive_scan():
    """``check_lm_no_subword`` on every schema word over x1..x3 and one
    letter within (3,2) in which no variable repeats."""
    variables = ("x1", "x2", "x3")
    vset = frozenset(variables)
    witnesses = []
    for w in all_words(variables + ("z1",), 3, 2):
        letters = [level[i] for level, i, j, _ in iter_slices(w) if j - i == 1]
        present = tuple(v for v in variables if v in letters)
        if not present or any(letters.count(v) > 1 for v in present):
            continue
        phi = OPI("probe", present, OPoly.from_word(w))
        rep = check_lm_no_subword(phi, "db")
        assert rep.witness == reference_adjacent_variables(w, vset), render(w)
        assert rep.ok == (rep.witness is None)
        witnesses.append(rep.witness)
    assert any(witnesses) and not all(witnesses)
