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
2 usage or parse errors.
"""

from __future__ import annotations

import argparse
import json
import sys
from functools import cache

from .gsbasis import (
    BoundsExceeded,
    GeneratorSet,
    QuotientAlgebra,
    check_gs,
    compositions,
    enumerate_irr,
    is_trivial,
)
from .opi import catalog_help, instantiate, parse_catalog
from .orders import PRESETS, OrderSpec
from .poly import parse_opoly, render_opoly
from .rewrite import check_diff_type, check_rb_type, normal_form
from .terms import Alphabet, ParseError, parse_integer, parse_word, render

_DEFAULTS = {
    "alphabet": "z1,z2",
    "order": None,
    "bounds": "2,2",
    "fuel": 2000,
}

_LIST_KEYS = ("catalog", "gens")


def _read_config(path: str) -> dict:
    known = set(_DEFAULTS) | set(_LIST_KEYS) | {"gens_file"}
    out: dict = {}
    with open(path, "r", encoding="utf-8") as fh:
        for ln, raw in enumerate(fh, 1):
            line = raw.strip()
            if not line or line.startswith("#"):
                continue
            if "=" not in line:
                raise ValueError(f"{path}:{ln}: expected key=value, got {line!r}")
            key, _, val = line.partition("=")
            key = key.strip().replace("-", "_")
            if key not in known:
                raise ValueError(f"{path}:{ln}: unknown config key {key!r}")
            val = val.strip()
            if key in _LIST_KEYS:
                out[key] = [p.strip() for p in val.split(";") if p.strip()]
            elif key == "fuel":
                try:
                    out[key] = parse_integer(val)
                except ValueError:
                    raise ValueError(f"{path}:{ln}: {key} must be an integer, got {val!r}") from None
            else:
                out[key] = val
    return out


def _pick(ns: argparse.Namespace, config: dict, key: str):
    got = getattr(ns, key, None)
    if got is not None:
        return got
    if key in config:
        return config[key]
    return _DEFAULTS.get(key)


def _integer_flag(text: str) -> int:
    # flag text is read by the same number rule as config values
    try:
        return parse_integer(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"must be an integer, got {text!r}") from None


def _checked_fuel(fuel: int) -> int:
    if fuel < 0:
        raise ValueError(f"--fuel must be at least 0, got {fuel}")
    return fuel


class Env:
    """Resolved configuration shared by most commands."""

    def __init__(self, ns: argparse.Namespace):
        config = _read_config(ns.config) if getattr(ns, "config", None) else {}
        letters = tuple(p.strip() for p in _pick(ns, config, "alphabet").split(",") if p.strip())
        if not letters:
            raise ValueError("alphabet must list at least one letter")
        self.alphabet = Alphabet(letters)

        selectors = list(getattr(ns, "catalog", None) or config.get("catalog", []) or [])
        self.entries = tuple(parse_catalog(s) for s in selectors)

        preset = _pick(ns, config, "order")
        if preset is None:
            presets = {e.preset for e in self.entries}
            if len(presets) > 1:
                raise ValueError(
                    f"catalog entries of different presets ({', '.join(sorted(presets))}) "
                    "cannot share one generator set"
                )
            preset = presets.pop() if presets else "db"
        if preset not in PRESETS:
            raise ValueError(f"unknown order preset {preset!r}; choose from {', '.join(PRESETS)}")
        self.order = OrderSpec.for_alphabet(preset, self.alphabet)

        texts = list(getattr(ns, "gens", None) or config.get("gens", []) or [])
        gens_file = getattr(ns, "gens_file", None) or config.get("gens_file")
        if gens_file:
            with open(gens_file, "r", encoding="utf-8") as fh:
                for raw in fh:
                    line = raw.strip()
                    if line and not line.startswith("#"):
                        texts.append(line)
        self.concrete = tuple(parse_opoly(t, self.alphabet) for t in texts)

        bounds = _pick(ns, config, "bounds")
        d, _, p = bounds.partition(",")
        try:
            self.bounds = (parse_integer(d), parse_integer(p))
        except ValueError:
            raise ValueError(f"bounds must be 'D,P' integers, got {bounds!r}") from None
        if self.bounds[0] < 0 or self.bounds[1] < 0:
            raise ValueError("bounds must be nonnegative")
        self.fuel = _checked_fuel(_pick(ns, config, "fuel"))

    def generator_set(self) -> GeneratorSet:
        if not self.entries and not self.concrete:
            raise ValueError("no generators: pass --catalog and/or --gens/--gens-file")
        return GeneratorSet(self.entries, self.concrete, self.order, self.alphabet)


def _add_common(p: argparse.ArgumentParser) -> None:
    p.add_argument("--alphabet", help="comma-separated letters, lowest first (default z1,z2)")
    p.add_argument("--order", help="order preset: db or dt (default: from catalog, else db)")
    p.add_argument("--catalog", action="append", help="catalog selector, repeatable (see 'demo --list' examples)")
    p.add_argument("--gens", action="append", help="concrete generator polynomial, repeatable")
    p.add_argument("--gens-file", dest="gens_file", help="file with one generator polynomial per line")
    p.add_argument("--bounds", help="stratum bounds 'D,P': letter degree, operator degree (default 2,2)")
    p.add_argument("--fuel", type=_integer_flag, help="reduction step budget (default 2000)")
    p.add_argument("--config", help="file of key=value defaults; explicit flags win")


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
    _add_common(p)
    p.add_argument("left")
    p.add_argument("right")

    p = sub.add_parser("instantiate", help="substitute words into a catalog identity")
    _add_common(p)
    p.add_argument("--name", help="identity name when the entry bundles several (e.g. averaging:A)")
    p.add_argument("assign", nargs="+", help="assignments like x1=z1 x2=[z2]")

    p = sub.add_parser("compositions", help="list interaction records between two sources")
    _add_common(p)

    p = sub.add_parser("check-gs", help="bounded completeness check")
    _add_common(p)
    p.add_argument("--route", choices=("auto", "raw"), default="auto", help="raw forces reducing every record")
    p.add_argument("--report", help="write the full report as JSON to this path")

    p = sub.add_parser("check-type", help="audit a catalog family against its defining template")
    _add_common(p)
    p.add_argument("--report", help="write the audit as JSON to this path")

    p = sub.add_parser("basis", help="irreducible words within bounds, ascending")
    _add_common(p)

    p = sub.add_parser("quotient-eval", help="normal-form arithmetic behind a passing check")
    _add_common(p)
    p.add_argument("expr", help="polynomial to evaluate in the quotient")

    p = sub.add_parser("demo", help="canned walkthroughs")
    p.add_argument("which", nargs="?", choices=tuple(_DEMOS))
    p.add_argument("--list", action="store_true", help="list available demos")
    p.add_argument("--fuel", type=_integer_flag, help="reduction step budget (default 2000)")

    p = sub.add_parser("catalog", help="list catalog families and parameters")
    return top


# ---------------------------------------------------------------------------
# command bodies


def _cmd_nf(ns) -> int:
    env = Env(ns)
    f = parse_opoly(ns.expr, env.alphabet)
    gens = env.generator_set()
    in_z = max((m.z_degree for m in f.support()), default=0)
    in_op = max((m.op_degree for m in f.support()), default=0)
    scope = (max(env.bounds[0], in_z), max(env.bounds[1], in_op) + gens.max_gap())
    rules = gens.ruleset(scope)
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
    gens = env.generator_set()
    recs = compositions(left, right, env.order, env.bounds, env.alphabet)
    print(f"{len(recs)} record(s) at bounds {env.bounds} under {env.order.describe()}")
    worst = 0
    for r in recs:
        verdict = is_trivial(r.value, gens, r.w, env.fuel, rules=gens.ruleset(env.bounds))
        print(f"- {r.headline()}")
        print(f"  value = {render_opoly(r.value, env.order)}")
        print(f"  {verdict.to_text()}")
        if verdict.status != "trivial":
            worst = 1
    return worst


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
    env = Env(ns)
    gens = env.generator_set()
    return _emit(check_gs(gens, env.bounds, env.fuel, route=ns.route), ns.report)


def _cmd_check_type(ns) -> int:
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


# name -> (blurb, (order preset, catalog selector, concrete generators,
# bounds) of a check_gs walkthrough); splitting-unit has its own function
_DEMOS = {
    "splitting-unit": ("a splitting identity against z1*z2 - 1: one honest non-trivial record", None),
    "rb-commutator": (
        "weighted insertion family plus a commutator: bounded check passes",
        ("db", "rb:6?lambda=1", ("z2*z1 - z1*z2",), (3, 2)),
    ),
    "averaging": (
        "averaging family: certified route with visibly skipped schema records",
        ("dt", "averaging", (), (2, 2)),
    ),
    "reynolds": (
        "telescoping family: bounded check is vacuous at small operator degree",
        ("dt", "reynolds?n=4", (), (2, 2)),
    ),
}


def _demo_splitting_unit(fuel: int) -> int:
    alphabet = Alphabet(("z1", "z2"))
    order = OrderSpec.for_alphabet("dt", alphabet)
    entry = parse_catalog("diff:1")
    g = parse_opoly("z1*z2 - 1", alphabet)
    gens = GeneratorSet((entry,), (g,), order, alphabet)
    bounds = (2, 1)
    print(f"sources: {entry.key} and g = {render_opoly(g, order)}; bounds {bounds}; order dt")
    recs = compositions(entry, g, order, bounds, alphabet)
    rules = gens.ruleset(bounds)
    bad = 0
    for r in recs:
        verdict = is_trivial(r.value, gens, r.w, fuel, rules=rules)
        if verdict.status == "trivial":
            continue
        bad += 1
        print(f"{r.headline()}")
        print(f"  value   = {render_opoly(r.value, order)}")
        print(f"  residue = {render_opoly(verdict.residue, order)}")
        print("  verdict: NOT TRIVIAL" if verdict.status == "not_trivial" else "  verdict: unresolved")
    print(f"{len(recs)} record(s), {bad} surviving reduction")
    if bad:
        print("the unit generator degenerates the splitting at its units; no bounded basis here")
    return 1 if bad else 0


def _cmd_demo(ns) -> int:
    if ns.list or not ns.which:
        for name, (blurb, _) in _DEMOS.items():
            print(f"{name:14} {blurb}")
        return 0
    fuel = _checked_fuel(ns.fuel if ns.fuel is not None else _DEFAULTS["fuel"])
    setup = _DEMOS[ns.which][1]
    if setup is None:
        return _demo_splitting_unit(fuel)
    preset, selector, concrete, bounds = setup
    alphabet = Alphabet(("z1", "z2"))
    order = OrderSpec.for_alphabet(preset, alphabet)
    gens = GeneratorSet((parse_catalog(selector),), tuple(parse_opoly(t, alphabet) for t in concrete), order, alphabet)
    return _emit(check_gs(gens, bounds, fuel), None)


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
        return _COMMANDS[ns.cmd](ns)
    except BoundsExceeded as exc:
        print(f"refused: {exc}", file=sys.stderr)
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
