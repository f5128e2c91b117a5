"""The indexed record enumerator against the all-pairs reference scan.

``indexed_records`` replaces a scan that called ``pair_compositions`` on
every pair of generators.  The composition lemma fixes which intersection
and inclusion records exist, so the scan is an exact oracle: both must
list the same records, field for field and in the same order.  A second
oracle uses neither: it walks every bounded word and derives the records
at each place where two leading words overlap or nest.
"""

import hashlib
import json

import pytest
from hypothesis import given, seed
from hypothesis import strategies as st

from conftest import CATALOG_SELECTORS, Z12, nonzero_opolys
from opalg import (
    GeneratorSet,
    OPoly,
    OrderSpec,
    all_words,
    check_gs,
    parse_catalog,
    parse_opoly,
    render,
    render_opoly,
)
from opalg.gsbasis import _record_sort_key, indexed_records, pair_compositions
from opalg.terms import HOLE, Context, Word, substitute

DB12 = OrderSpec.for_alphabet("db", Z12)

BOUNDS = [(2, 1), (2, 2), (3, 2)]
COMMUTATOR = parse_opoly("z2*z1 - z1*z2", Z12)

# sha256 of the records array of the check-gs report for rb:6?lambda=1 plus
# the commutator at (4,3), fuel 10^4, as canonical JSON; recorded with the
# all-pairs scan before the index replaced it
RB_COMMUTATOR_43_RECORDS_SHA256 = "3f4c5f030fdba441c89342bee65d43a5ce4d9407ab4cf9a599f4320b34537366"


def as_tuples(records):
    return [
        (r.kind, r.left_id, r.right_id, render(r.w), r.witness, r.pair_kind, render_opoly(r.value))
        for r in records
    ]


def all_pairs(left, right, bounds):
    """The reference: ``pair_compositions`` over every pair, then sorted."""
    records = []
    if right is None:
        for i, a in enumerate(left):
            for b in left[i:]:
                records += pair_compositions(a, b, bounds, same=(a is b))
    else:
        for a in left:
            for b in right:
                records += pair_compositions(a, b, bounds)
    records.sort(key=_record_sort_key)
    return records


def assert_agree(left, right, bounds):
    want = as_tuples(all_pairs(left, right, bounds))
    assert as_tuples(indexed_records(left, right, bounds)) == want
    return len(want)


@pytest.mark.parametrize("selector", CATALOG_SELECTORS)
def test_check_gs_records_match_all_pairs_scan(selector):
    entry = parse_catalog(selector)
    order = OrderSpec.for_alphabet(entry.preset, Z12)
    for concrete in ((), (COMMUTATOR,)):
        gens = GeneratorSet((entry,), concrete, order, Z12)
        for bounds in BOUNDS:
            assert_agree(gens.expanded(bounds), None, bounds)


def reference_compositions(gens, f, g, bounds):
    left = gens._as_generators(f, "f", bounds)
    right = gens._as_generators(g, "g", bounds)
    if [x.poly for x in left] == [y.poly for y in right]:
        return all_pairs(left, None, bounds)
    return all_pairs(left, right, bounds)


@pytest.mark.parametrize("selector", CATALOG_SELECTORS)
def test_compositions_match_all_pairs_scan(selector):
    entry = parse_catalog(selector)
    gens = GeneratorSet((entry,), (), OrderSpec.for_alphabet(entry.preset, Z12), Z12)
    for bounds in BOUNDS:
        for f, g in ((entry, COMMUTATOR), (COMMUTATOR, entry), (entry, entry)):
            got = gens.compositions(f, g, bounds)
            assert as_tuples(got) == as_tuples(reference_compositions(gens, f, g, bounds))


def test_shared_generator_ids_keep_the_scan_order():
    # both entries name their identity rb:6, so records from different
    # pairs can share a sort key; ties must break as the scan broke them
    # (overlaps of [x]*[y] need operator degree 3)
    one, zero = parse_catalog("rb:6?lambda=1"), parse_catalog("rb:6?lambda=0")
    bounds = (2, 3)
    left = GeneratorSet((one,), (), DB12, Z12).expanded(bounds)
    right = GeneratorSet((zero,), (), DB12, Z12).expanded(bounds)
    want = all_pairs(left, right, bounds)
    keys = [_record_sort_key(r) for r in want]
    assert len(set(keys)) < len(keys)
    both = GeneratorSet((one, zero), (), DB12, Z12)
    assert as_tuples(both.compositions(one, zero, bounds)) == as_tuples(want)
    assert assert_agree(both.expanded(bounds), None, bounds) > 0


def test_unit_leading_word_is_refused_like_the_scan():
    gens = GeneratorSet((), (parse_opoly("z1*z2 - 1", Z12), parse_opoly("3", Z12)), DB12, Z12)
    expanded = gens.expanded((2, 1))
    for run in (lambda: all_pairs(expanded, None, (2, 1)), lambda: indexed_records(expanded, None, (2, 1))):
        with pytest.raises(ValueError, match="occurrences of the unit"):
            run()


def _bracketed(f):
    return any(m.op_degree for m in f.support())


_SETS = st.lists(nonzero_opolys(max_z=3, max_op=2, max_terms=3).filter(_bracketed), min_size=1, max_size=6)


@seed(2103)
@given(_SETS, _SETS, st.sampled_from(BOUNDS + [(4, 3)]))
def test_random_bracketed_sets_match_all_pairs_scan(left_polys, right_polys, bounds):
    left = GeneratorSet((), tuple(left_polys), DB12, Z12).expanded(bounds)
    right = GeneratorSet((), tuple(right_polys), DB12, Z12).expanded(bounds)
    assert_agree(left, None, bounds)
    assert_agree(left, right, bounds)


def test_rb_commutator_records_at_4_3_are_pinned():
    gens = GeneratorSet((parse_catalog("rb:6?lambda=1"),), (COMMUTATOR,), DB12, Z12)
    report = check_gs(gens, (4, 3), 10_000).to_json_dict()
    assert report["counts"] == {
        "not_trivial": 0,
        "skipped": 351,
        "total": 981,
        "trivial": 630,
        "unresolved": 0,
    }
    blob = json.dumps(report["records"], sort_keys=True, separators=(",", ":"))
    assert hashlib.sha256(blob.encode("utf-8")).hexdigest() == RB_COMMUTATOR_43_RECORDS_SHA256


def _nestings(factors):
    """``(context factors, slice)`` for every nonempty factor slice at every depth."""
    n = len(factors)
    for i in range(n):
        for j in range(i + 1, n + 1):
            yield factors[:i] + (HOLE,) + factors[j:], factors[i:j]
    for k, f in enumerate(factors):
        if isinstance(f, Word):
            for inner, sl in _nestings(f.factors):
                yield factors[:k] + (Word(inner),) + factors[k + 1 :], sl


def derived_records(gens, bounds):
    """The records of ``gens`` paired with themselves, found word by word:
    at each bounded word where one leading word ends on a proper prefix of
    another (intersection), or where one leading word is the word and the
    other sits inside it (inclusion, but not a generator in itself)."""
    by_lm = {}
    for i, g in enumerate(gens):
        by_lm.setdefault(g.lm.factors, []).append(i)

    def row(kind, a, b, w, witness, value):
        sides = "-".join("concrete" if g.kind == "concrete" else "schema" for g in (a, b))
        return (kind, a.gen_id, b.gen_id, render(w), witness, sides, render_opoly(value))

    out = []
    for w in all_words(Z12, *bounds):
        fw = w.factors
        n = len(fw)
        # w = x*y*z with x, y, z nonempty, a.lm = x*y and b.lm = y*z
        for s in range(1, n - 1):
            for p in range(s + 1, n):
                for a in (gens[i] for i in by_lm.get(fw[:p], ())):
                    for b in (gens[j] for j in by_lm.get(fw[s:], ())):
                        x, z = OPoly.from_word(Word(fw[:s])), OPoly.from_word(Word(fw[p:]))
                        out.append(row("intersection", a, b, w, f"overlap k={p - s}", a.poly * z - x * b.poly))
        for i in by_lm.get(fw, ()):
            for qf, sl in _nestings(fw):
                q = Context(Word(qf))
                for j in by_lm.get(sl, ()):
                    if i != j or not q.is_trivial():
                        a, b = gens[i], gens[j]
                        out.append(row("inclusion", a, b, w, f"context {q}", a.poly - substitute(q, b.poly)))
    return sorted(out)


_DERIVED_CASES = [
    (sel, gens, bounds)
    for sel, gens in (("rb:6?lambda=1", "z2*z1 - z1*z2"), ("diff:1", "z1*z2 - 1"))
    for bounds in ((2, 2), (3, 2))
]
# rb:6 leading words [x]*[y] overlap only from operator degree 3
_DERIVED_CASES.append(("rb:6?lambda=1", "z2*z1 - z1*z2", (2, 3)))


@pytest.mark.parametrize("selector, concrete, bounds", _DERIVED_CASES)
def test_indexed_records_match_records_derived_word_by_word(selector, concrete, bounds):
    entry = parse_catalog(selector)
    order = OrderSpec.for_alphabet(entry.preset, Z12)
    gens = GeneratorSet((entry,), (parse_opoly(concrete, Z12),), order, Z12).expanded(bounds)
    want = derived_records(gens, bounds)
    assert want
    assert sorted(as_tuples(indexed_records(gens, None, bounds))) == want
