"""Acceptance gate: one test per shipped guarantee, at its stated budget.

Each test pins the exact configuration (alphabet, order, bounds, fuel) it
promises, checks results against independent oracles where one exists, and
asserts the stated wall-clock ceiling.
"""

import os
import random
import subprocess
import sys
import time
from fractions import Fraction
from pathlib import Path

from conftest import Z1, Z12, ReferenceOrder
from opalg import (
    GeneratorSet,
    OPoly,
    OrderSpec,
    QuotientAlgebra,
    Word,
    all_words,
    check_gs,
    check_lm_stability,
    check_rb_type,
    enumerate_irr,
    is_trivial,
    normal_form,
    parse_catalog,
    parse_opoly,
    parse_word,
    schema_occurrences,
)
from opalg.cli import main
from reference import check_order_axioms, normal_form_random, random_word

DB12 = OrderSpec.for_alphabet("db", Z12)
DT12 = OrderSpec.for_alphabet("dt", Z12)


def P(text, alphabet=Z12):
    return parse_opoly(text, alphabet)


def W(text, alphabet=Z12):
    return parse_word(text, alphabet)


def test_unit_generator_breaks_the_splitting_family_with_one_witness():
    """diff:1 (a=1) with g = z1*z2 - 1 under dt at bounds (2,1): exactly one
    record survives reduction, conclusively, in under a second."""
    t0 = time.monotonic()
    entry = parse_catalog("diff:1")
    g = P("z1*z2 - 1")
    gens = GeneratorSet((entry,), (g,), DT12, Z12)
    recs = gens.compositions(entry, g, (2, 1))
    rules = gens.ruleset((2, 1))
    survivors = []
    for r in recs:
        verdict = is_trivial(r.value, rules, r.w, 10_000)
        if verdict.status != "trivial":
            survivors.append((r, verdict))
    assert len(survivors) == 1
    rec, verdict = survivors[0]
    assert rec.kind == "inclusion"
    assert rec.w == W("[z1*z2]")
    assert verdict.status == "not_trivial"
    assert verdict.conclusive
    assert verdict.residue == P("-[z1]*z2 - z1*[z2]")
    assert time.monotonic() - t0 < 1.0


def test_all_insertion_items_satisfy_the_structural_template():
    """All 14 bracket-pair catalog items, both weights where weighted (23
    configurations), pass the four-condition template at bounds (2,1) with
    fuel 10^4 in under five minutes."""
    t0 = time.monotonic()
    selectors = [f"rb:{i}" for i in range(1, 6)]
    selectors += [f"rb:{i}?lambda={v}" for i in range(6, 15) for v in (0, 1)]
    assert len(selectors) == 23
    for sel in selectors:
        report = check_rb_type(parse_catalog(sel), Z12, (2, 1), 10_000)
        assert report.passed, f"{sel}:\n{report.to_text()}"
    assert time.monotonic() - t0 < 300


def test_insertion_plus_commutator_is_boundedly_complete():
    """Weighted insertion (both weights) plus z2*z1 - z1*z2 under db with
    z1 < z2: the completeness check at (3,2) finds no surviving record,
    in under five minutes."""
    t0 = time.monotonic()
    for lam in (0, 1):
        entry = parse_catalog(f"rb:6?lambda={lam}")
        gens = GeneratorSet((entry,), (P("z2*z1 - z1*z2"),), DB12, Z12)
        report = check_gs(gens, (3, 2), 10_000)
        assert report.passed, report.to_text()
        assert report.counts["not_trivial"] == 0
        assert report.counts["unresolved"] == 0
    assert time.monotonic() - t0 < 300


def test_completeness_check_surfaces_the_splitting_witness(capsys):
    """The configuration with the known surviving record fails check-gs at
    (2,1) with exit code 1 and reports exactly that witness."""
    code = main(
        [
            "check-gs",
            "--catalog",
            "diff:1",
            "--gens",
            "z1*z2 - 1",
            "--bounds",
            "2,1",
        ]
    )
    out = capsys.readouterr().out
    assert code == 1
    assert "result: FAIL" in out
    gens = GeneratorSet((parse_catalog("diff:1"),), (P("z1*z2 - 1"),), DT12, Z12)
    report = check_gs(gens, (2, 1), 10_000)
    assert not report.passed
    bad = [r for r in report.records if r.verdict and r.verdict.status == "not_trivial"]
    assert len(bad) == 1
    assert bad[0].w == W("[z1*z2]")
    assert bad[0].verdict.residue == P("-[z1]*z2 - z1*[z2]")


def test_reduction_is_strategy_independent_across_families():
    """Five families, 200 seeded random polynomials each (letters <= 3,
    operators <= 2), leftmost-greatest vs two seeded randomized strategies:
    identical normal forms, in under ten minutes."""
    t0 = time.monotonic()
    configs = (
        ("rb:6?lambda=1", ("z2*z1 - z1*z2",), "db"),
        ("nijenhuis", (), "db"),
        ("averaging", (), "dt"),
        ("reynolds?n=4", (), "dt"),
        ("diffprime?c=1", (), "dt"),
    )
    coeffs = (Fraction(1), Fraction(-1), Fraction(2), Fraction(-1, 2))
    for ci, (sel, concrete, preset) in enumerate(configs):
        order = OrderSpec.for_alphabet(preset, Z12)
        entry = parse_catalog(sel)
        gens = GeneratorSet((entry,), tuple(P(t) for t in concrete), order, Z12)
        rules = gens.ruleset((3, 2))
        for i in range(200):
            rng = random.Random(10_000 * ci + i)
            f = OPoly.zero()
            for _ in range(rng.randint(1, 3)):
                f = f + OPoly.from_word(
                    random_word(rng, Z12, 3, 2), coeffs[rng.randrange(len(coeffs))]
                )
            base = normal_form(f, rules, 10_000)
            assert not base.exhausted
            for salt in (17, 71):
                alt = normal_form_random(f, rules, 10_000, random.Random(i * 100 + salt))
                assert not alt.exhausted
                assert alt.poly == base.poly, f"{sel}: strategy mismatch on {f}"
    assert time.monotonic() - t0 < 600


def _adjacent_brackets(w: Word) -> bool:
    fs = w.factors
    for a, b in zip(fs, fs[1:]):
        if isinstance(a, Word) and isinstance(b, Word):
            return True
    return any(isinstance(f, Word) and _adjacent_brackets(f) for f in fs)


def test_weighted_insertion_small_stratum_is_exhaustively_consistent():
    """Weighted insertion over one letter, every word at bounds (2,2):
    normal forms live on the irreducibles, reduction is idempotent, and the
    irreducible enumeration equals a brute-force pattern filter."""
    order = OrderSpec.for_alphabet("db", Z1)
    gens = GeneratorSet((parse_catalog("rb:6?lambda=1"),), (), order, Z1)
    qa = QuotientAlgebra(gens, (2, 2), 10_000)
    irr = qa.irr_basis()
    oracle = tuple(w for w in all_words(Z1, 2, 2) if not _adjacent_brackets(w))
    assert set(irr) == set(oracle)
    irr_set = set(irr)
    for w in all_words(Z1, 2, 2):
        nf = qa.nf(OPoly.from_word(w))
        assert set(nf.support()) <= irr_set
        assert qa.nf(nf) == nf


def _erase(w: Word) -> Word:
    out = []
    for f in w.factors:
        if isinstance(f, Word):
            out.extend(_erase(f).factors)
        else:
            out.append(f)
    return Word(tuple(out))


def test_erasure_family_normal_forms_scale_bracket_erasure():
    """100 seeded random words: the c=2 family reduces a word to c^(operator
    count) times its bracket erasure; at c=1 the quotient operator action is
    erasure itself."""
    entry = parse_catalog("diffprime?c=2")
    gens = GeneratorSet((entry,), (), DT12, Z12)
    rules = gens.ruleset((3, 4))
    rng = random.Random(424)
    seen_ops = set()
    for _ in range(100):
        w = random_word(rng, Z12, 3, 3)
        seen_ops.add(w.op_degree)
        res = normal_form(OPoly.from_word(w), rules, 10_000)
        assert not res.exhausted
        expected = OPoly.from_word(_erase(w), Fraction(2) ** w.op_degree)
        assert res.poly == expected
    assert max(seen_ops) >= 2  # the sample actually exercises nesting

    one = GeneratorSet((parse_catalog("diffprime?c=1"),), (), DT12, Z12)
    qa = QuotientAlgebra(one, (3, 3), 10_000)
    for _ in range(30):
        w = random_word(rng, Z12, 3, 2)
        assert qa.nf_operator(OPoly.from_word(w)) == OPoly.from_word(_erase(w))


def test_order_audits_and_leading_term_stability():
    """10^4 randomized axiom trials pass for both presets at (3,2); both
    presets agree with the graded positional order on bracket-free words
    exhaustively to 4 letters; every catalog identity keeps its leading
    monomial stable at (2,1) on its declared domain."""
    for preset in ("db", "dt"):
        order = OrderSpec.for_alphabet(preset, Z12)
        violations = check_order_axioms(order, Z12, (3, 2), trials=10_000, seed=29)
        assert not violations, violations

    deglex = ReferenceOrder("deglex", Z12)
    flat = [w for w in all_words(Z12, 4, 0)]
    for u in flat:
        for v in flat:
            want = deglex.compare(u, v)
            for preset in ("db", "dt"):
                got = OrderSpec.for_alphabet(preset, Z12).compare(u, v)
                assert (got > 0) == (want > 0) and (got < 0) == (want < 0)

    selectors = [f"rb:{i}" for i in range(1, 6)]
    selectors += [f"rb:{i}?lambda={v}" for i in range(6, 15) for v in (0, 1)]
    selectors += ["nijenhuis", "diff:1", "diff:2", "diff:3", "diff:4", "diff:5", "diff:6"]
    selectors += ["diffprime?c=1", "averaging", "reynolds?n=4"]
    for sel in selectors:
        entry = parse_catalog(sel)
        order = OrderSpec.for_alphabet(entry.preset, Z12)
        for phi in entry.opis:
            rep = check_lm_stability(phi, order, include_units=entry.units_stable)
            assert rep.passed, f"{sel}/{phi.name}: {rep.violations}"


def test_certified_families_match_pattern_exclusion_bases():
    """Averaging and the n=4 telescoping family pass the completeness check
    at (2,2); their irreducible words equal pattern-exclusion oracles."""
    avg = GeneratorSet((parse_catalog("averaging"),), (), DT12, Z12)
    rep = check_gs(avg, (2, 2), 10_000)
    assert rep.passed, rep.to_text()

    shapes = ("[[x1]*x2]", "[x1*[x2]]", "[[x1]]*[x2]")
    patterns = [parse_word(s, None, extra_letters=("x1", "x2")) for s in shapes]

    def hits_shape(w: Word) -> bool:
        return any(schema_occurrences(w, p, ("x1", "x2")) for p in patterns)

    got = enumerate_irr(avg, (2, 2))
    oracle = {w for w in all_words(Z12, 2, 2) if not hits_shape(w)}
    assert set(got) == oracle
    assert len(got) == 113

    rey = GeneratorSet((parse_catalog("reynolds?n=4"),), (), DT12, Z12)
    rep = check_gs(rey, (2, 2), 10_000)
    assert rep.passed
    # the smallest leading shape already spends three operators, so every
    # word in this stratum is irreducible
    assert set(enumerate_irr(rey, (2, 2))) == set(all_words(Z12, 2, 2))


def test_reports_are_byte_identical_across_runs(tmp_path):
    """Every command, run twice with the same inputs, produces
    byte-identical stdout, stderr, exit code, and report files."""
    base = [sys.executable, "-m", "opalg.cli"]
    env = dict(os.environ, PYTHONPATH=str(Path(__file__).resolve().parents[1] / "src"))
    cases = [
        ["nf", "--catalog", "nijenhuis", "--trace", "[z1]*[z2]"],
        ["compare", "[z1*z2]", "z1*[z2]"],
        ["instantiate", "--catalog", "rb:6?lambda=1", "x1=z1", "x2=1"],
        ["compositions", "--catalog", "diff:1", "--gens", "z1*z2 - 1", "--bounds", "2,1"],
        ["check-gs", "--catalog", "diff:1", "--gens", "z1*z2 - 1", "--bounds", "2,1"],
        ["check-type", "--catalog", "rb:1", "--bounds", "2,1"],
        ["basis", "--catalog", "diffprime?c=1", "--alphabet", "z", "--bounds", "2,1"],
        ["quotient-eval", "--catalog", "rb:6?lambda=0", "--alphabet", "z", "[z]*[z]"],
        ["demo", "splitting-unit"],
        ["catalog"],
    ]
    for case in cases:
        outs = []
        report = None
        if case[0] in ("check-gs", "check-type"):
            report = tmp_path / f"{case[0]}.json"
        for _ in (0, 1):
            argv = base + case
            if report is not None:
                argv = argv + ["--report", str(report)]  # same path; bytes read per run
            proc = subprocess.run(argv, capture_output=True, timeout=300, env=env)
            blob = report.read_bytes() if report else b""
            outs.append((proc.returncode, proc.stdout, proc.stderr, blob))
        assert outs[0] == outs[1], f"non-deterministic output for {case[0]}"
