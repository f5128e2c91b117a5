"""Digest pin of ``check-gs`` and the other generator-set commands.

``tests/golden/check_gs.txt`` holds one line per CLI call: the arguments,
the exit code, the record counts of the JSON report, and the sha256 of
stdout, of stderr and of the canonical report JSON (sorted keys, no
blanks).  The report path is masked in stdout, so the digests do not
depend on where the checkout lives.  The calls are ``check-gs`` on every
catalog selector of ``conftest.CATALOG_SELECTORS``, alone and with the
commutator, at (2,1) and (2,2), on both routes; then ``nf --trace``,
``compositions``, ``basis``, ``quotient-eval`` and every demo.  Print the
current text with ``PYTHONPATH=src python tests/test_check_gs_golden.py``.
"""

import contextlib
import hashlib
import io
import json
import os
import sys
import tempfile
from pathlib import Path

from conftest import CATALOG_SELECTORS

from opalg.cli import main

GOLDEN = Path(__file__).resolve().parent / "golden" / "check_gs.txt"
COMMUTATOR = "z2*z1 - z1*z2"
REPORT = "<report>"


def _argvs():
    for sel in CATALOG_SELECTORS:
        for gens in ((), ("--gens", COMMUTATOR)):
            for bounds in ("2,1", "2,2"):
                for route in ("auto", "raw"):
                    yield ["check-gs", "--catalog", sel, *gens, "--bounds", bounds, "--route", route, "--report", REPORT]
    rb_comm = ["--catalog", "rb:6?lambda=1", "--gens", COMMUTATOR]
    yield ["nf", "--trace", *rb_comm, "[z2]*[z1]*z2*z1"]
    yield ["nf", "--trace", "--catalog", "diff:1", "[z1*z2]*[z2*z1]"]
    yield ["nf", "--trace", "--catalog", "averaging", "[[z1]*z2]*[z1]"]
    yield ["nf", "--trace", "--catalog", "nijenhuis", "--fuel", "3", "[z1]*[z2]*[z1]"]
    yield ["nf", "--trace", "--gens", COMMUTATOR, "--gens", "z1*z1 - z1", "z2*z1*z2*z1"]
    yield ["compositions", "--catalog", "diff:1", "--gens", "z1*z2 - 1", "--bounds", "2,1"]
    yield ["compositions", "--catalog", "rb:6", "--bounds", "2,1"]
    yield ["compositions", "--gens", COMMUTATOR, "--gens", "z1*z1 - z1", "--bounds", "3,0"]
    yield ["compositions", "--catalog", "averaging", "--gens", "z1*z1", "--bounds", "2,1"]
    yield ["basis", *rb_comm, "--bounds", "2,2"]
    yield ["basis", "--catalog", "diff:1", "--bounds", "3,1"]
    yield ["basis", "--gens", "z1*z1", "--gens", "z2*z2", "--bounds", "4,0"]
    yield ["quotient-eval", *rb_comm, "--bounds", "3,2", "[z2]*[z1] + 2*z2*z1"]
    yield ["quotient-eval", "--catalog", "diff:1", "--gens", "z1*z2 - 1", "--bounds", "2,1", "z1*z2"]
    yield ["quotient-eval", "--catalog", "rb:1", "--bounds", "2,1", "[z1]*[z2]*[z1]"]
    for demo in ("splitting-unit", "rb-commutator", "averaging", "reynolds"):
        yield ["demo", demo]


def _sha(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def _line(argv, tmp: str) -> str:
    path = os.path.join(tmp, "report.json")
    real = [path if a == REPORT else a for a in argv]
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(real)
    counts = report = "-"
    if REPORT in argv and os.path.exists(path):
        with open(path, encoding="utf-8") as fh:
            doc = json.load(fh)
        os.remove(path)
        counts = ",".join(f"{k}={v}" for k, v in sorted(doc["counts"].items()))
        report = _sha(json.dumps(doc, sort_keys=True, separators=(",", ":")))
    stdout = out.getvalue().replace(path, REPORT)
    return " | ".join(
        [" ".join(argv), f"rc={code}", counts, f"out={_sha(stdout)}", f"err={_sha(err.getvalue())}", f"report={report}"]
    )


def golden_text() -> str:
    with tempfile.TemporaryDirectory() as tmp:
        return "".join(_line(argv, tmp) + "\n" for argv in _argvs())


def test_check_gs_outputs_match_golden():
    assert golden_text().splitlines() == GOLDEN.read_text(encoding="utf-8").splitlines()


if __name__ == "__main__":
    sys.stdout.write(golden_text())
