"""Byte-for-byte pin of what every catalog selector resolves to.

``tests/golden/catalog.txt`` holds, for each selector below, either the
resolved entry (key, family, preset, params, the two flags, and each
identity's name, variables, body in insertion order and rendered body)
or the text of the error that refuses it, followed by ``catalog_help()``.
The selectors cover every family and item, the rb weights and the c of
rb:13 and rb:14, every diff parameter refusal, the diff:3 weights, the
reynolds limits and malformed selectors.  Print the current text with
``PYTHONPATH=src python tests/test_catalog_golden.py``.
"""

import sys
from pathlib import Path

from opalg import catalog_help, parse_catalog, render

GOLDEN = Path(__file__).resolve().parent / "golden" / "catalog.txt"

ACCEPTED = (
    [f"rb:{i}" for i in range(1, 6)]
    + [f"rb:{i}{p}" for i in range(6, 15) for p in ("", "?lambda=0", "?lambda=1", "?lambda=-1/2")]
    + ["rb:13?c=2", "rb:13?lambda=1,c=3", "rb:13?c=0,lambda=1", "rb:14?c=-1/2", "rb:14?c=2,lambda=-1/2"]
    + [" rb:6 ? lambda = 1 ", "rb:6?lambda=2/4", "rb:6?lambda=-0"]
    + ["nijenhuis"]
    + [f"diff:{i}" for i in range(1, 7)]
    + ["diff:1?a=1,b=0,c=5", "diff:1?a=0", "diff:1?c=-1/2", "diff:2?b=2", "diff:2?a=0,b=-1", "diff:2?b=0"]
    + ["diff:4?a=1,b=2", "diff:4?b=-1/2", "diff:5?a=2", "diff:5?a=0", "diff:6?a=-1/2", "diff:6?a=0"]
    + ["diff:3?l00=1,l01=1", "diff:3?l10=2", "diff:3?l01=1,l00=-1", "diff:3?l00=1,l02=0"]
    + ["diff:3?l00=0,l01=1", "diff:3?l11=0,l00=1", "diff:3?l00=1,l01=1,l10=1"]
    + ["diffprime", "diffprime?c=2", "diffprime?c=0", "diffprime?c=-1/2"]
    + ["averaging"]
    + ["reynolds", "reynolds?n=2", "reynolds?n=3", "reynolds?n=8/2", "reynolds?n=32"]
)

REFUSED = (
    # diff parameters the weight relation or preset dt cannot take
    ["diff:1?a=1,b=1,c=0", "diff:1?a=2,b=1,c=2", "diff:1?a=2", "diff:1?d=1"]
    + ["diff:2?a=1,b=1", "diff:2?a=1", "diff:2?c=1"]
    + ["diff:3?l11=1", "diff:3?l02=1", "diff:3?l20=-1", "diff:3?l02=0", "diff:3?l00=0"]
    + ["diff:3?l07=1,bogus=2", "diff:3?a=1", "diff:3?l0=1", "diff:3?l000=1", "diff:3?L00=1"]
    # weight names take ASCII digits only, as numbers do
    + ["diff:3?l00=1,l\u0660\u0660=2", "diff:3?l\u06601=1"]
    + ["diff:4?c=1", "diff:5?b=1", "diff:6?lambda=1"]
    # the reynolds limits
    + ["reynolds?n=1", "reynolds?n=0", "reynolds?n=-2", "reynolds?n=5/2", "reynolds?n=33"]
    + ["reynolds?n=1000", "reynolds?m=3", "reynolds:2", "reynolds?n=4,n=5"]
    # malformed selectors: items, families, parameters
    + ["", " ", "?", ":", "?lambda=1", ":6", "rb", "rb:", "rb:0", "rb:15", "rb:99", "rb:-1"]
    + ["rb:x", "rb:1.0", "rb:+6", "rb:1_4", "rb:6:1", "rb:٣", "RB:6", "frobenius", "diff", "diff:7"]
    + ["diff:0", "nijenhuis:", "nijenhuis:1", "averaging:1", "diffprime:1", "averaging?x=1", "nijenhuis?lambda=0"]
    + ["rb:1?lambda=1", "rb:5?lambda=1", "rb:6?mu=1", "rb:12?c=1", "rb:6?c=1,lambda=1,mu=2"]
    + ["rb:6?lambda", "rb:6?lambda=", "rb:6?lambda=x", "rb:6?lambda=1.5", "rb:6?lambda=1/0"]
    + ["rb:6?lambda=+1", "rb:6?lambda=1e3", "rb:6?=1", "rb:6??lambda=1", "rb:6?lambda=1,"]
    + ["rb:6?lambda=1,lambda=2", "rb:6?lambda=1, lambda=1", "diffprime?c=1,c=2"]
)


def _entry_text(sel: str) -> str:
    try:
        e = parse_catalog(sel)
    except ValueError as exc:
        return f"refused: {exc}\n"
    lines = [
        f"key: {e.key}",
        f"family: {e.family}",
        f"preset: {e.preset}",
        f"params: {e.params!r}",
        f"asserted_gs: {e.asserted_gs}",
        f"units_stable: {e.units_stable}",
    ]
    for phi in e.opis:
        lines.append(f"opi {phi.name} ({', '.join(phi.variables)})")
        lines.append("  terms: " + " | ".join(f"{c!r} {render(w)}" for w, c in phi.body._terms.items()))
        lines.append(f"  body: {phi.body}")
    return "\n".join(lines) + "\n"


def golden_text() -> str:
    blocks = [f"## {sel!r}\n{_entry_text(sel)}" for sel in ACCEPTED + REFUSED]
    blocks.append(f"## catalog_help()\n{catalog_help()}\n")
    return "".join(blocks)


def test_catalog_entries_match_golden():
    assert golden_text() == GOLDEN.read_text(encoding="utf-8")


def test_every_family_and_item_is_covered():
    resolved = {parse_catalog(sel).opis[0].name for sel in ACCEPTED}
    names = {f"rb:{i}" for i in range(1, 15)} | {f"diff:{i}" for i in range(1, 7)}
    names |= {"nijenhuis", "diffprime", "averaging:A", "reynolds:2"}
    assert names <= resolved


if __name__ == "__main__":
    sys.stdout.write(golden_text())
