"""The stability enumeration is counted before any word is built.

A leading monomial that ``_schema_cmp`` leaves open sends the identity to
exhaustive enumeration.  More assignments than ``MAX_EXPANSION_WORDS`` are
refused, and ``check-gs`` records the refusal as a failed hypothesis, so the
run falls back to the raw route instead of exiting 2.
"""

import time

import pytest

from conftest import Z12
from opalg import OrderSpec, check_lm_stability, parse_catalog
from opalg.cli import main
from opalg.opi import MAX_EXPANSION_WORDS
from opalg.terms import count_words

DT = OrderSpec.for_alphabet("dt", Z12)
DIFF5 = parse_catalog("diff:5").opis[0]


def test_direct_call_over_the_limit_raises_before_enumerating():
    domain = count_words(2, 3, 2) ** 2
    assert domain > MAX_EXPANSION_WORDS
    t0 = time.monotonic()
    with pytest.raises(ValueError, match=f"not decided: {domain} assignments, over the limit of {MAX_EXPANSION_WORDS}"):
        check_lm_stability(DIFF5, DT, Z12, (3, 2))
    assert time.monotonic() - t0 < 1.0


def test_certified_identity_is_not_counted():
    # rb:6 is certified symbolically, so its domain is never counted
    phi = parse_catalog("rb:6?lambda=1").opis[0]
    rep = check_lm_stability(phi, OrderSpec.for_alphabet("db", Z12), Z12, (4, 4))
    assert rep.passed and rep.enumerated == 0


def test_check_gs_falls_back_to_the_raw_route(capsys):
    t0 = time.monotonic()
    code = main(["check-gs", "--catalog", "diff:5", "--bounds", "3,2"])
    elapsed = time.monotonic() - t0
    out = capsys.readouterr().out
    assert code == 0
    assert elapsed < 5.0
    assert "route: raw (every record reduced)" in out
    assert (
        "  diff:5: leading-monomial stability (units included): FAIL "
        f"(not decided: 685584 assignments, over the limit of {MAX_EXPANSION_WORDS})"
    ) in out.splitlines()
    assert out.rstrip().endswith("result: PASS")
