"""The three workloads: inputs from a seed, one timed pass, known answers.

Each workload is a class with

``__init__(seed, out_dir)``
    set-up: everything before the first timed operation;
``run_pass(clock)``
    one timed pass; returns ``(seconds, latencies_ms, outputs)`` with the
    latency of each timed op (one ``cli.main`` call on the check workloads,
    one ``nf_multiply``/``nf_operator`` call on ``quotient_table``);
``check(outputs)``
    the known-answer oracles for one pass, run outside the timed window;
    returns ``(attempted, failures)`` where ``failures`` names every
    mismatch;
``check_run()``
    run-level oracles (once per run, after the passes), same return shape.

Workload code calls traced ``opalg`` functions only through attributes
looked up at call time (``cli.main``, ``opalg.parse_catalog``,
``qa.nf_multiply``), so the tracer's wrappers are seen when tracing is on.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import os
import random

import opalg
from opalg import OPoly, cli, parse_opoly, render, render_opoly

HERE = os.path.dirname(os.path.abspath(__file__))
with open(os.path.join(HERE, "expected.json"), encoding="utf-8") as _fh:
    EXPECTED = json.load(_fh)

FUEL = "10000"
Z12 = opalg.Alphabet(("z1", "z2"))


def records_digest(report: dict) -> str:
    """sha256 of the report's ``records`` array in canonical JSON."""
    blob = json.dumps(report["records"], sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode("utf-8")).hexdigest()


def _run_cli(argv: list[str]) -> tuple[int | None, str, str]:
    """``cli.main`` with stdout captured; an exception becomes its name."""
    buf = io.StringIO()
    try:
        with contextlib.redirect_stdout(buf):
            code = cli.main(argv)
    except Exception as exc:  # a raised exception is a failed op, not a crash
        return None, buf.getvalue(), f"{type(exc).__name__}: {exc}"
    return code, buf.getvalue(), ""


def _counts_line(text: str, prefix: str) -> dict[str, int]:
    for line in text.splitlines():
        if line.startswith(prefix):
            items = line[len(prefix):].split(",")
            return {k.strip(): int(v) for k, v in (it.split("=") for it in items)}
    return {}


def _pop_report(path: str):
    """The JSON report at ``path``, deleted after reading; an error text if
    it is missing or malformed."""
    try:
        with open(path, encoding="utf-8") as fh:
            report = json.load(fh)
        os.remove(path)
    except (OSError, ValueError) as e:
        return f"{type(e).__name__}: {e}"
    return report


class GsScaled:
    """``check-gs`` on ``rb:6?lambda=1`` + commutator at ``(4,3)``.

    One configuration; the seed does not change it (only names the report
    file).  Stresses instance expansion, rule compilation and the all-pairs
    record scan; reduction is small.
    """

    name = "gs_scaled"

    def __init__(self, seed: int, out_dir: str):
        self.report_path = os.path.join(out_dir, f"gs_scaled-seed{seed}.json")
        self.argv = [
            "check-gs", "--catalog", "rb:6?lambda=1", "--gens", "z2*z1 - z1*z2",
            "--bounds", "4,3", "--fuel", FUEL, "--report", self.report_path,
        ]

    def run_pass(self, clock):
        t0 = clock()
        code, out, exc = _run_cli(self.argv)
        seconds = clock() - t0
        return seconds, [seconds * 1e3], (code, out, exc, _pop_report(self.report_path))

    def check(self, got):
        exp = EXPECTED["gs_scaled"]
        code, out, exc, report = got
        bad: list[str] = []
        if exc:
            return 1, [f"gs_scaled: raised {exc}"]
        if code != 0:
            bad.append(f"gs_scaled: exit {code}, want 0")
        if "result: PASS" not in out.splitlines():
            bad.append("gs_scaled: no 'result: PASS' line")
        gens = _counts_line(out, "generators: ")
        if gens != exp["generators"]:
            bad.append(f"gs_scaled: generators {gens}, want {exp['generators']}")
        if isinstance(report, str):
            return 1, ["; ".join(bad + [f"gs_scaled: report unreadable: {report}"])]
        if report["counts"] != exp["counts"]:
            bad.append(f"gs_scaled: counts {report['counts']}, want {exp['counts']}")
        digest = records_digest(report)
        if digest != exp["records_sha256"]:
            bad.append(f"gs_scaled: records sha256 {digest}, want {exp['records_sha256']}")
        return 1, ["; ".join(bad)] if bad else []

    def check_run(self):
        return 0, []

    def digest(self, got) -> str:
        blob = json.dumps(list(got), sort_keys=True)
        return hashlib.sha256(blob.encode("utf-8")).hexdigest()


_RB_SELECTORS = [f"rb:{i}" for i in range(1, 6)] + [
    f"rb:{i}?lambda={v}" for i in range(6, 15) for v in (0, 1)
]
_DIFF_SELECTORS = [f"diff:{i}" for i in range(1, 7)]


class FamilyAudit:
    """The acceptance suite's family checks through ``cli.main``: 32 ops.

    The seed shuffles the order of the ops.  Most work is per identity:
    stability enumeration, ``instantiate``, template normal forms.
    """

    name = "family_audit"

    def __init__(self, seed: int, out_dir: str):
        self.split_report = os.path.join(out_dir, f"family_audit-seed{seed}.json")
        ops = [
            ("averaging", ["check-gs", "--catalog", "averaging", "--bounds", "2,2"]),
            ("reynolds?n=4", ["check-gs", "--catalog", "reynolds?n=4", "--bounds", "2,2"]),
            ("splitting", ["check-gs", "--catalog", "diff:1", "--gens", "z1*z2 - 1",
                           "--bounds", "2,1", "--report", self.split_report]),
        ]
        for sel in _RB_SELECTORS + _DIFF_SELECTORS:
            ops.append((sel, ["check-type", "--catalog", sel, "--bounds", "2,1"]))
        self.ops = [(label, argv + ["--fuel", FUEL]) for label, argv in ops]
        random.Random(seed).shuffle(self.ops)
        self.residue = parse_opoly(EXPECTED["family_audit"]["splitting_residue"], Z12)

    def run_pass(self, clock):
        results = []
        lat: list[float] = []
        t_start = clock()
        for label, argv in self.ops:
            t0 = clock()
            results.append((label, _run_cli(argv)))
            lat.append((clock() - t0) * 1e3)
        seconds = clock() - t_start
        return seconds, lat, (results, _pop_report(self.split_report))

    def check(self, got):
        results, split_report = got
        bad: list[str] = []
        for label, (code, out, exc) in results:
            if exc:
                bad.append(f"family_audit {label}: raised {exc}")
            elif label == "splitting":
                split_bad = self._check_splitting(code, out, split_report)
                if split_bad:
                    bad.append("; ".join(split_bad))
            elif label in ("averaging", "reynolds?n=4"):
                if code != 0 or "result: PASS" not in out.splitlines():
                    bad.append(f"family_audit {label}: exit {code}, want 0 and PASS")
            elif code != 0 or "  => PASSED" not in out.splitlines():
                bad.append(f"family_audit {label}: exit {code}, want 0 and PASSED")
        return len(results), bad

    def _check_splitting(self, code, out, report):
        bad = []
        exp = EXPECTED["family_audit"]
        if code != 1 or "result: FAIL" not in out.splitlines():
            bad.append(f"family_audit splitting: exit {code}, want 1 and FAIL")
        if isinstance(report, str):
            return bad + [f"family_audit splitting: report unreadable: {report}"]
        hits = [r for r in report["records"] if r.get("status") == "not_trivial"]
        if len(hits) != 1:
            return bad + [f"family_audit splitting: {len(hits)} not_trivial records, want 1"]
        if hits[0]["w"] != exp["splitting_w"]:
            bad.append(f"family_audit splitting: witness at {hits[0]['w']}, want {exp['splitting_w']}")
        if parse_opoly(hits[0]["residue"], Z12) != self.residue:
            bad.append(f"family_audit splitting: residue {hits[0]['residue']}")
        return bad

    def check_run(self):
        return 0, []

    def digest(self, got) -> str:
        results, split_report = got
        h = hashlib.sha256()
        for label, (code, out, exc) in sorted(results, key=lambda r: r[0]):
            h.update(f"{label}\0{code}\0{out}\0{exc}\0".encode("utf-8"))
        h.update(json.dumps(split_report, sort_keys=True).encode("utf-8"))
        return h.hexdigest()


class QuotientTable:
    """Normal forms of every in-bounds product of two basis words and of
    every in-bounds ``[u]``, behind ``rb:6?lambda=1`` + commutator at
    ``(3,3)``.  Set-up builds the ``QuotientAlgebra`` and its basis.

    The seed shuffles the order of the ops and draws the associativity
    sample; results are digested in canonical order, so the digest does
    not depend on the seed.
    """

    name = "quotient_table"
    bounds = (3, 3)
    triples = 100

    def __init__(self, seed: int, out_dir: str):
        order = opalg.OrderSpec.for_alphabet("db", Z12)
        gens = opalg.GeneratorSet(
            entries=(opalg.parse_catalog("rb:6?lambda=1"),),
            concrete=(parse_opoly("z2*z1 - z1*z2", Z12),),
            order=order,
            alphabet=Z12,
        )
        self.qa = opalg.QuotientAlgebra(gens, self.bounds, 10_000)
        self.basis = self.qa.irr_basis()
        self.basis_set = frozenset(self.basis)
        d, p = self.bounds
        ops = []
        for u in self.basis:
            for v in self.basis:
                if u.z_degree + v.z_degree <= d and u.op_degree + v.op_degree <= p:
                    ops.append(("mul", OPoly.from_word(u), OPoly.from_word(v)))
        for u in self.basis:
            if u.op_degree + 1 <= p:
                ops.append(("op", OPoly.from_word(u), None))
        self.order_idx = list(range(len(ops)))
        random.Random(seed).shuffle(self.order_idx)
        self.ops = ops
        self.sample = self._draw_triples(random.Random(seed + 1))

    def _draw_triples(self, rng):
        # Uniform over in-bounds basis triples without rejection: pick a
        # (degree class) triple by its weight, then a word in each class.
        d, p = self.bounds
        classes: dict[tuple[int, int], list] = {}
        for w in self.basis:
            classes.setdefault((w.z_degree, w.op_degree), []).append(w)
        keys = sorted(classes)
        combos, weights = [], []
        for a in keys:
            for b in keys:
                for c in keys:
                    if a[0] + b[0] + c[0] <= d and a[1] + b[1] + c[1] <= p:
                        combos.append((a, b, c))
                        weights.append(len(classes[a]) * len(classes[b]) * len(classes[c]))
        out = []
        for a, b, c in rng.choices(combos, weights=weights, k=self.triples):
            out.append(tuple(rng.choice(classes[k]) for k in (a, b, c)))
        return out

    def run_pass(self, clock):
        qa, ops = self.qa, self.ops
        results: list = [None] * len(ops)
        lat: list[float] = []
        t_start = clock()
        for i in self.order_idx:
            kind, f, g = ops[i]
            t0 = clock()
            try:
                r = qa.nf_multiply(f, g) if kind == "mul" else qa.nf_operator(f)
            except Exception as exc:  # BoundsExceeded or a defect: one failed op
                r = exc
            lat.append((clock() - t0) * 1e3)
            results[i] = r
        return clock() - t_start, lat, results

    def check(self, results):
        bad: list[str] = []
        for i, r in enumerate(results):
            if isinstance(r, Exception):
                bad.append(f"quotient_table op {i}: raised {type(r).__name__}: {r}")
            elif not set(r.support()) <= self.basis_set:
                bad.append(f"quotient_table op {i}: result {r} leaves the basis")
        exp = EXPECTED["quotient_table"]
        digest = self.digest(results)
        if digest != exp["results_sha256"]:
            bad.append(f"quotient_table: results sha256 {digest}, want {exp['results_sha256']}")
        return len(results) + 1, bad

    def check_run(self):
        exp = EXPECTED["quotient_table"]
        bad: list[str] = []
        if len(self.basis) != exp["basis_size"]:
            bad.append(f"quotient_table: basis has {len(self.basis)} words, want {exp['basis_size']}")
        if len(self.ops) != exp["ops"]:
            bad.append(f"quotient_table: {len(self.ops)} ops per pass, want {exp['ops']}")
        qa = self.qa
        for u, v, w in self.sample:
            fu, fv, fw = (OPoly.from_word(x) for x in (u, v, w))
            try:
                left = qa.nf_multiply(qa.nf_multiply(fu, fv), fw)
                right = qa.nf_multiply(fu, qa.nf_multiply(fv, fw))
            except Exception as exc:
                bad.append(f"quotient_table assoc ({render(u)}, {render(v)}, {render(w)}): "
                           f"raised {type(exc).__name__}: {exc}")
                continue
            if left != right:
                bad.append(f"quotient_table assoc ({render(u)}, {render(v)}, {render(w)}): "
                           f"{left} != {right}")
        return 2 + len(self.sample), bad

    def digest(self, results) -> str:
        """sha256 of every result, rendered, in canonical op order."""
        h = hashlib.sha256()
        for r in results:
            h.update(repr(r).encode("utf-8") if isinstance(r, Exception) else
                     render_opoly(r).encode("utf-8"))
            h.update(b"\n")
        return h.hexdigest()


WORKLOADS = {w.name: w for w in (GsScaled, FamilyAudit, QuotientTable)}
