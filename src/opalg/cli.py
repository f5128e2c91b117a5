"""Command-line front end.

Commands:
  nf             reduce a polynomial to its normal form
  compare        compare two words under the active order
  instantiate    substitute concrete words into a catalog identity
  compositions   list interaction records between two generator sources
  check-gs       bounded completeness check for a generator set
  check-type     structural audit of a catalog family against its template
  basis          irreducible words within bounds, ascending
  quotient-eval  normal-form arithmetic gated by a passing check
  demo           canned walkthroughs with fixed configurations

Exit codes: 0 success/pass, 1 verified failure or unresolved outcome,
2 usage or parse errors.  A reader that closes stdout early (``| head``)
ends the run with 1 and nothing on stderr.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from functools import cache

from .gsbasis import (
    BoundsExceeded,
    GeneratorSet,
    QuotientAlgebra,
    check_gs,
    enumerate_irr,
    is_trivial,
)
from .opi import catalog_help, instantiate, parse_catalog
from .orders import PRESETS, OrderSpec
from .poly import parse_opoly, render_opoly
from .rewrite import check_diff_type, check_rb_type, normal_form
from .terms import Alphabet, ParseError, parse_integer, parse_word, render

def _integer_flag(text: str) -> int:
    # flag text is read by the same number rule as every other number
    try:
        return parse_integer(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"must be an integer, got {text!r}") from None


def _read_gens(path: str, alphabet: Alphabet):
    with open(path, "r", encoding="utf-8") as fh:
        for ln, raw in enumerate(fh, 1):
            line = raw.strip()
            if line and not line.startswith("#"):
                try:
                    poly = parse_opoly(line, alphabet)
                except ValueError as exc:
                    raise ValueError(f"{path}:{ln}: {exc}") from None
                yield poly


class Env:
    """The run that a command's flags describe.  Only the settings of the
    flags the command takes are set: ``compare`` has no ``bounds``."""

    def __init__(self, ns: argparse.Namespace):
        letters = tuple(p.strip() for p in ns.alphabet.split(",") if p.strip())
        if not letters:
            raise ValueError("alphabet must list at least one letter")
        self.alphabet = Alphabet(letters)

        self.entries = tuple(parse_catalog(s) for s in ns.catalog or ())

        if "order" in ns:
            preset = ns.order
            if preset is None:
                presets = {e.preset for e in self.entries}
                preset = presets.pop() if len(presets) == 1 else "db"
            if preset not in PRESETS:
                raise ValueError(f"unknown order preset {preset!r}; choose from {', '.join(PRESETS)}")
            self.order = OrderSpec.for_alphabet(preset, self.alphabet)

        if "gens" in ns:
            self.concrete = tuple(parse_opoly(t, self.alphabet) for t in ns.gens or ())
            if ns.gens_file:
                self.concrete += tuple(_read_gens(ns.gens_file, self.alphabet))

        if "bounds" in ns:
            d, _, p = ns.bounds.partition(",")
            try:
                self.bounds = (parse_integer(d), parse_integer(p))
            except ValueError:
                raise ValueError(f"bounds must be 'D,P' integers, got {ns.bounds!r}") from None
            if self.bounds[0] < 0 or self.bounds[1] < 0:
                raise ValueError("bounds must be nonnegative")
        if "fuel" in ns:
            if ns.fuel < 0:
                raise ValueError(f"--fuel must be at least 0, got {ns.fuel}")
            self.fuel = ns.fuel

    def generator_set(self) -> GeneratorSet:
        if not self.entries and not self.concrete:
            raise ValueError("no generators: pass --catalog and/or --gens/--gens-file")
        return GeneratorSet(self.entries, self.concrete, self.order, self.alphabet)


def _add_fuel(p: argparse.ArgumentParser) -> None:
    p.add_argument("--fuel", type=_integer_flag, default=2000, help="reduction step budget (default %(default)s)")


def _add_common(
    p: argparse.ArgumentParser, *, order: bool = True, gens: bool = True, bounds: bool = True, fuel: bool = True
) -> None:
    # every command that takes these flags takes --alphabet and --catalog;
    # the others are registered only where the command reads them
    p.add_argument("--alphabet", default="z1,z2", help="comma-separated letters, lowest first (default %(default)s)")
    if order:
        p.add_argument("--order", help="order preset: db or dt (default: from catalog, else db)")
    p.add_argument("--catalog", action="append", help="catalog selector, repeatable (see 'demo --list' examples)")
    if gens:
        p.add_argument("--gens", action="append", help="concrete generator polynomial, repeatable")
        p.add_argument("--gens-file", dest="gens_file", help="file with one generator polynomial per line")
    if bounds:
        p.add_argument(
            "--bounds", default="2,2", help="stratum bounds 'D,P': letter degree, operator degree (default %(default)s)"
        )
    if fuel:
        _add_fuel(p)


@cache
def _build_parser() -> argparse.ArgumentParser:
    # built on the first call and kept: parse_args never changes the
    # parser, and each call gets a fresh namespace and fresh append lists
    top = argparse.ArgumentParser(
        prog="opalg",
        description="Bracketed-word rewriting: orders, identities, compositions, bounded checks.",
    )
    sub = top.add_subparsers(dest="cmd", required=True, metavar="command")

    p = sub.add_parser("nf", help="reduce a polynomial to normal form")
    _add_common(p)
    p.add_argument("expr", help="polynomial, e.g. '[z1]*[z2] - 2*[z1*z2]'")
    p.add_argument("--trace", action="store_true", help="print each reduction step")

    p = sub.add_parser("compare", help="compare two words under the active order")
    _add_common(p, gens=False, bounds=False, fuel=False)
    p.add_argument("left")
    p.add_argument("right")

    p = sub.add_parser("instantiate", help="substitute words into a catalog identity")
    _add_common(p, gens=False, bounds=False, fuel=False)
    p.add_argument("--name", help="identity name when the entry bundles several (e.g. averaging:A)")
    p.add_argument("assign", nargs="+", help="assignments like x1=z1 x2=[z2]")

    p = sub.add_parser("compositions", help="list interaction records between two sources")
    _add_common(p)

    p = sub.add_parser("check-gs", help="bounded completeness check")
    _add_common(p)
    p.add_argument("--route", choices=("auto", "raw"), default="auto", help="raw forces reducing every record")
    p.add_argument("--report", help="write the full report as JSON to this path")

    p = sub.add_parser("check-type", help="audit a catalog family against its defining template")
    _add_common(p, order=False, gens=False)
    p.add_argument("--report", help="write the audit as JSON to this path")

    p = sub.add_parser("basis", help="irreducible words within bounds, ascending")
    _add_common(p, fuel=False)

    p = sub.add_parser("quotient-eval", help="normal-form arithmetic behind a passing check")
    _add_common(p)
    p.add_argument("expr", help="polynomial to evaluate in the quotient")

    p = sub.add_parser("demo", help="canned walkthroughs")
    p.add_argument("which", nargs="?", choices=tuple(_DEMOS))
    p.add_argument("--list", action="store_true", help="list available demos")
    _add_fuel(p)

    p = sub.add_parser("catalog", help="list catalog families and parameters")
    return top


# ---------------------------------------------------------------------------
# command bodies


def _cmd_nf(ns) -> int:
    env = Env(ns)
    f = parse_opoly(ns.expr, env.alphabet)
    in_z = max((m.z_degree for m in f.support()), default=0)
    in_op = max((m.op_degree for m in f.support()), default=0)
    rules = env.generator_set().ruleset((max(env.bounds[0], in_z), max(env.bounds[1], in_op)))
    res = normal_form(f, rules, env.fuel, want_trace=ns.trace)
    if ns.trace:
        trace = res.trace_text()
        if trace:
            print(trace)
    print(f"normal form: {render_opoly(res.poly, env.order)}")
    if res.exhausted:
        print(f"fuel {env.fuel} exhausted; the result above is not fully reduced")
        return 1
    return 0


def _cmd_compare(ns) -> int:
    env = Env(ns)
    u = parse_word(ns.left, env.alphabet)
    v = parse_word(ns.right, env.alphabet)
    c = env.order.compare(u, v)
    sym = "<" if c < 0 else (">" if c > 0 else "=")
    print(f"{render(u)} {sym} {render(v)}   under {env.order.describe()}")
    return 0


def _cmd_instantiate(ns) -> int:
    env = Env(ns)
    if len(env.entries) != 1:
        raise ValueError("instantiate needs exactly one --catalog entry")
    entry = env.entries[0]
    opis = entry.opis
    if ns.name:
        opis = tuple(phi for phi in opis if phi.name == ns.name)
        if not opis:
            raise ValueError(
                f"no identity named {ns.name!r} in {entry.key}; "
                f"available: {', '.join(phi.name for phi in entry.opis)}"
            )
    elif len(opis) > 1:
        raise ValueError(
            f"{entry.key} bundles {len(opis)} identities; pick one with --name "
            f"({', '.join(phi.name for phi in opis)})"
        )
    phi = opis[0]
    sigma = {}
    for item in ns.assign:
        var, eq, text = item.partition("=")
        if not eq:
            raise ValueError(f"assignment {item!r} is not var=word")
        var = var.strip()
        if var in sigma:
            raise ValueError(f"variable {var} is assigned twice")
        sigma[var] = parse_opoly(text, env.alphabet)
    inst = instantiate(phi, sigma)
    print(f"identity: {phi.name} with variables {', '.join(phi.variables)}")
    print(f"instance: {render_opoly(inst, env.order)}")
    if inst.is_zero():
        print("leading monomial: none (the instance vanishes)")
    else:
        lm, _ = inst.leading(env.order)
        print(f"leading monomial: {render(lm)}")
    return 0


def _cmd_compositions(ns) -> int:
    env = Env(ns)
    sources: list = list(env.entries) + list(env.concrete)
    if not sources:
        raise ValueError("no generators: pass --catalog and/or --gens/--gens-file")
    if len(sources) == 1:
        left, right = sources[0], sources[0]
    elif len(sources) == 2:
        left, right = sources
    else:
        raise ValueError("compositions takes one or two sources (catalog entries or polynomials)")
    # one generator set expands each catalog entry once, for the records
    # and for the rule set that reduces them
    gens = env.generator_set()
    recs = gens.compositions(left, right, env.bounds)
    rules = gens.ruleset(env.bounds)
    print(f"{len(recs)} record(s) at bounds {env.bounds} under {env.order.describe()}")
    worst = 0
    for r in recs:
        verdict = is_trivial(r.value, rules, r.w, env.fuel)
        print(f"- {r.headline()}")
        print(f"  value = {render_opoly(r.value, env.order)}")
        print(f"  {verdict.to_text()}")
        if verdict.status != "trivial":
            worst = 1
    return worst


def _check_report_path(path: str | None) -> None:
    """Refuse, before any check runs, a report path that is empty, names a
    directory, or lies in a directory that is missing or not writable; an
    existing report file is left untouched."""
    if path is None:
        return
    if not path or os.path.isdir(path):
        raise ValueError(f"cannot write the report to {path!r}: not a file name")
    folder = os.path.dirname(path) or "."
    if not os.path.isdir(folder) or not os.access(folder, os.W_OK):
        raise ValueError(f"cannot write the report to {path}: {folder} is not a writable directory")


def _emit(report, path: str | None) -> int:
    """Print a check report, write its JSON to ``path`` if given, and
    return the exit code of its verdict."""
    print(report.to_text())
    if path:
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(report.to_json_dict(), fh, indent=2, sort_keys=True)
            fh.write("\n")
        print(f"report written to {path}")
    return 0 if report.passed else 1


def _cmd_check_gs(ns) -> int:
    _check_report_path(ns.report)
    env = Env(ns)
    # no name holds the generator set, so its expansion and rule-set memos
    # are freed before the report is printed and written
    return _emit(check_gs(env.generator_set(), env.bounds, env.fuel, route=ns.route), ns.report)


def _cmd_check_type(ns) -> int:
    _check_report_path(ns.report)
    env = Env(ns)
    if len(env.entries) != 1:
        raise ValueError("check-type needs exactly one --catalog entry")
    entry = env.entries[0]
    # looked up by name at call time, so perfbench's tracer sees each call
    if entry.family in ("rb", "nijenhuis"):
        return _emit(check_rb_type(entry, env.alphabet, env.bounds, env.fuel), ns.report)
    if entry.family == "diff":
        return _emit(check_diff_type(entry, env.alphabet, env.bounds, env.fuel), ns.report)
    raise ValueError(
        f"no structural template for family {entry.family!r}; check-type handles rb, nijenhuis, and diff"
    )


def _cmd_basis(ns) -> int:
    env = Env(ns)
    gens = env.generator_set()
    words = enumerate_irr(gens, env.bounds)
    print(f"{len(words)} irreducible word(s) at bounds {env.bounds}, ascending:")
    for w in words:
        print(f"  {render(w)}")
    return 0


def _cmd_quotient_eval(ns) -> int:
    env = Env(ns)
    gens = env.generator_set()
    try:
        qa = QuotientAlgebra(gens, env.bounds, env.fuel)
    except ValueError as exc:
        print(f"refused: {exc}")
        return 1
    f = parse_opoly(ns.expr, env.alphabet)
    out = qa.nf(f)
    print(f"normal form: {render_opoly(out, env.order)}")
    return 0


# name -> (blurb, the check-gs flags of its run); a demo prints that check
_DEMOS = {
    "splitting-unit": (
        "a splitting identity against z1*z2 - 1: fails with one witness at [z1*z2]",
        ("--catalog", "diff:1", "--gens", "z1*z2 - 1", "--bounds", "2,1"),
    ),
    "rb-commutator": (
        "weighted insertion family plus a commutator: bounded check passes",
        ("--catalog", "rb:6?lambda=1", "--gens", "z2*z1 - z1*z2", "--bounds", "3,2"),
    ),
    "averaging": (
        "averaging family: certified route with visibly skipped schema records",
        ("--catalog", "averaging", "--bounds", "2,2"),
    ),
    "reynolds": (
        "telescoping family: bounded check is vacuous at small operator degree",
        ("--catalog", "reynolds?n=4", "--bounds", "2,2"),
    ),
}


def _cmd_demo(ns) -> int:
    if ns.list or not ns.which:
        for name, (blurb, _) in _DEMOS.items():
            print(f"{name:14} {blurb}")
        return 0
    return _cmd_check_gs(_build_parser().parse_args(["check-gs", *_DEMOS[ns.which][1], f"--fuel={ns.fuel}"]))


def _cmd_catalog(ns) -> int:
    print(catalog_help())
    return 0


_COMMANDS = {
    "nf": _cmd_nf,
    "compare": _cmd_compare,
    "instantiate": _cmd_instantiate,
    "compositions": _cmd_compositions,
    "check-gs": _cmd_check_gs,
    "check-type": _cmd_check_type,
    "basis": _cmd_basis,
    "quotient-eval": _cmd_quotient_eval,
    "demo": _cmd_demo,
    "catalog": _cmd_catalog,
}


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        ns = parser.parse_args(argv)
    except SystemExit as exc:  # argparse already printed its message
        return int(exc.code or 0)
    try:
        code = _COMMANDS[ns.cmd](ns)
        sys.stdout.flush()
        return code
    except BoundsExceeded as exc:
        print(f"refused: {exc}", file=sys.stderr)
        return 1
    except BrokenPipeError:
        # stdout's reader is gone: send the unwritten rest to devnull, so
        # the flush at exit cannot fail again, and exit 1 as Python does
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 1
    except (ParseError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except RuntimeError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


def entry() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entry()
