"""The stability verdict does not depend on the bounds.

``check_lm_stability`` decides symbolically, splitting the variables into
unit cases where a monomial stays open, so it builds no word pool and its
verdict holds at every bound.  ``diff:5`` used to be enumerated, and with
two letters at ``(3,2)`` its 685,584 assignments were refused as not
decided.
"""

import random
import time

import pytest

from conftest import Z12, instantiate_word
from opalg import OrderSpec, check_lm_stability, instantiate, opi, parse_catalog
from opalg.cli import main
from opalg.terms import UNIT, all_words
from reference import random_word

DT = OrderSpec.for_alphabet("dt", Z12)
DIFF5 = parse_catalog("diff:5").opis[0]


@pytest.mark.parametrize("bounds", [(2, 1), (6, 3)])
def test_diff5_verdict_holds_on_seeded_assignments_at_any_bound(bounds):
    # the report takes no bounds; its pass must hold on assignments drawn
    # far outside anything an enumeration could reach
    rep = check_lm_stability(DIFF5, DT)
    assert rep.passed and rep.enumerated == 0 and len(rep.certified) == 5
    lead = DIFF5.lm("dt")
    vset = frozenset(DIFF5.variables)
    rng = random.Random(20261018)
    for _ in range(300):
        sigma = {x: random_word(rng, Z12, *bounds) for x in DIFF5.variables}
        if rng.random() < 0.2:
            sigma[rng.choice(DIFF5.variables)] = UNIT
        inst = instantiate(DIFF5, sigma)
        if not inst.is_zero():
            assert inst.leading_monomial(DT) == instantiate_word(lead, sigma, vset), sigma


def test_certified_identity_is_not_counted(monkeypatch):
    # neither a certified identity nor a split one builds or counts a word
    def refuse(*args, **kwargs):
        raise AssertionError("stability built a word pool")

    monkeypatch.setattr(opi, "word_tuples", refuse)
    monkeypatch.setattr(opi, "count_words", refuse)
    calls = all_words.cache_info()
    for sel, preset in (("rb:6?lambda=1", "db"), ("diff:1", "dt"), ("diff:5", "dt"), ("reynolds?n=4", "dt")):
        for phi in parse_catalog(sel).opis:
            rep = check_lm_stability(phi, OrderSpec.for_alphabet(preset, Z12))
            assert rep.enumerated == 0 and not rep.undecided
    after = all_words.cache_info()
    assert (after.hits, after.misses) == (calls.hits, calls.misses)


def test_check_gs_falls_back_to_the_raw_route(capsys):
    # the shape hypothesis still fails, so the route is raw; stability is ok
    t0 = time.monotonic()
    code = main(["check-gs", "--catalog", "diff:5", "--bounds", "3,2"])
    elapsed = time.monotonic() - t0
    out = capsys.readouterr().out
    assert code == 0
    assert elapsed < 1.0
    assert "route: raw (every record reduced)" in out
    assert "  diff:5: leading-monomial stability (units included): ok (5 certified, 0 enumerated)" in out.splitlines()
    assert "not decided" not in out
    assert out.rstrip().endswith("result: PASS")
