"""Byte-for-byte pin of both structural audits' text reports.

``tests/golden/check_type.txt`` holds ``to_text()`` of ``check_rb_type``
and ``check_diff_type`` on every shipped rb, nijenhuis, diff and diffprime
configuration and on identities that fail each audit condition, each
case under both audits.  Print the current text with
``PYTHONPATH=src python tests/test_check_type_golden.py``.
"""

import sys
from pathlib import Path

from opalg import OPI, Alphabet, check_diff_type, check_rb_type, parse_catalog, parse_opoly

GOLDEN = Path(__file__).resolve().parent / "golden" / "check_type.txt"
Z12 = Alphabet(("z1", "z2"))

SHIPPED = (
    [f"rb:{i}" for i in range(1, 6)]
    + [f"rb:{i}?lambda={v}" for i in range(6, 15) for v in (0, 1)]
    + ["nijenhuis"]
    + [f"diff:{i}" for i in range(1, 7)]
    + ["diff:3?l00=1,l01=1", "diffprime", "diffprime?c=2"]
)

# (name, variables, body): each breaks a different condition of one audit
FAILING = (
    ("nested-pair", ("x1", "x2"), "[x1]*[x2] - [[x1]*[x2]]"),
    ("scaled", ("x1", "x2"), "[x1]*[x2] - 2*[x1*[x2]]"),
    ("wide", ("x1", "x2"), "[x1*x2] - [x1*x2]*[1]"),
    ("broken-cocycle", ("x1", "x2"), "[x1*x2] - x1*[x2] - x2*[x1]"),
    ("non-bracket-residual", ("x1", "x2"), "[x1]*[x2] - x1*[x2]"),
    ("arity-3", ("x1", "x2", "x3"), "[x1]*[x2]*x3 - [x1*x2*x3]"),
    ("missing-lead", ("x1", "x2"), "[x1]*x2 - x1*[x2]"),
)


def _cases():
    for sel in SHIPPED:
        yield sel, parse_catalog(sel), (2, 1), 2000
    for name, variables, body in FAILING:
        phi = OPI(name, variables, parse_opoly(body, None, extra_letters=variables))
        yield name, phi, (2, 1), 2000
        if name == "broken-cocycle":
            yield name, phi, (3, 1), 2000
    # too little fuel: termination or closure stops at the first word that runs dry
    yield "rb:6?lambda=1", parse_catalog("rb:6?lambda=1"), (2, 1), 3
    yield "rb:1", parse_catalog("rb:1"), (2, 2), 0
    yield "diff:1", parse_catalog("diff:1"), (2, 1), 0
    yield "diff:1", parse_catalog("diff:1"), (2, 1), 1


def golden_text() -> str:
    blocks = []
    for label, candidate, bounds, fuel in _cases():
        for audit in (check_rb_type, check_diff_type):
            rep = audit(candidate, Z12, bounds, fuel)
            blocks.append(f"## {audit.__name__} {label}\n{rep.to_text()}\n")
    return "".join(blocks)


def test_audit_reports_match_golden():
    assert golden_text() == GOLDEN.read_text(encoding="utf-8")


if __name__ == "__main__":
    sys.stdout.write(golden_text())
