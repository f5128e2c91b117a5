"""The certified route against the raw route on the whole catalog.

``route="auto"`` skips schema-schema records when the certified-family
hypotheses hold; ``route="raw"`` reduces every record.  Both enumerate the
same records, so every record the certified route reduces must get the
raw route's verdict, and the two must reach the same result.  The one
known exception is listed with its residue count, so any new
disagreement, or a change in the known one, fails here.
"""

import pytest

from conftest import CATALOG_SELECTORS, Z12
from opalg import GeneratorSet, OrderSpec, check_gs, parse_catalog

FUEL = 2000

# averaging at (2,2): the certified route PASSes, while the raw route finds
# conclusive residues from unit collisions such as [1]*[u] - [u]*[1]
KNOWN_DISAGREEMENTS = {("averaging", (2, 2)): 12}


@pytest.mark.parametrize("bounds", [(2, 1), (2, 2)])
@pytest.mark.parametrize("selector", CATALOG_SELECTORS)
def test_certified_and_raw_routes_agree(selector, bounds):
    entry = parse_catalog(selector)
    gens = GeneratorSet((entry,), (), OrderSpec.for_alphabet(entry.preset, Z12), Z12)
    auto = check_gs(gens, bounds, FUEL, route="auto")
    raw = check_gs(gens, bounds, FUEL, route="raw")
    assert [r.headline() for r in auto.records] == [r.headline() for r in raw.records]
    for a, r in zip(auto.records, raw.records):
        if not a.skipped:
            assert a.verdict.status == r.verdict.status, a.headline()
    residues = KNOWN_DISAGREEMENTS.get((selector, bounds))
    if residues is None:
        assert auto.passed == raw.passed, (auto.to_text(), raw.to_text())
    else:
        assert auto.passed and not raw.passed
        assert raw.counts["not_trivial"] == residues
        assert raw.counts["unresolved"] == 0
