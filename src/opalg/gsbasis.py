"""Compositions, bounded completeness checks, and quotient arithmetic.

A generating set mixes schema families (identities instantiated over the
alphabet) with concrete polynomials.  Two generators interact through

* intersection records: their leading words overlap at top level, the
  shared word ``w`` being a proper suffix-prefix merge, and
* inclusion records: one leading word occurs inside the other at any
  depth (the plugged copy of the whole word is skipped for a generator
  against itself).

A record is trivial when its value reduces to zero under the rule set of
its stratum, compiled from the generators themselves, through anchors
below ``w``; a bounded check that reduces every in-bounds record
certifies the set on the bounded stratum, which is what quotient
arithmetic needs to be well defined there.

``check_gs`` has two routes.  The raw route reduces every record.  The
certified route applies when every schema family (i) is flagged as a
self-complete rewriting basis by its source, (ii) has a leading schema
with no adjacent variables, and (iii) keeps its leading monomial at all
assignments including units, and every concrete generator is
bracket-free; under those hypotheses schema-schema records are exactly
the input assumption and are reported as skipped rather than re-checked,
while everything touching a concrete generator is still reduced.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cmp_to_key
from typing import Mapping, Sequence, Union

from .opi import (
    OPI,
    CatalogEntry,
    Generator,
    _refuse_wide_pool,
    check_lm_no_subword,
    check_lm_stability,
    expand_instances,
)
from .orders import OrderSpec
from .poly import OPoly, render_opoly
from .rewrite import RuleSet, normal_form
from .terms import (
    Alphabet,
    Context,
    Word,
    all_words,
    iter_occurrences,
    iter_slices,
    render,
    slice_context,
    structural_key,
    substitute,
)

__all__ = [
    "BoundsExceeded",
    "CompositionRecord",
    "GSReport",
    "Generator",
    "GeneratorSet",
    "NotVerified",
    "QuotientAlgebra",
    "TrivialityResult",
    "check_gs",
    "enumerate_irr",
    "evaluate_morphism",
    "indexed_records",
    "is_trivial",
]


class BoundsExceeded(ValueError):
    """Raised when quotient arithmetic would leave the verified stratum."""


class NotVerified(ValueError):
    """Raised when quotient arithmetic is asked of a generator set whose
    completeness check does not pass."""


class GeneratorSet:
    """Catalog entries plus concrete polynomials under one order."""

    def __init__(
        self,
        entries: Sequence[CatalogEntry],
        concrete: Sequence[OPoly],
        order: OrderSpec,
        alphabet: Alphabet,
    ):
        presets = sorted({e.preset for e in entries})
        if len(presets) > 1:
            raise ValueError(
                f"catalog entries of different presets ({', '.join(presets)}) cannot share one generator set"
            )
        for e in entries:
            if e.preset != order.preset:
                raise ValueError(
                    f"catalog entry {e.key} declares preset {e.preset}; "
                    f"the active order is {order.preset} (pick the matching --order)"
                )
            for phi in e.opis:
                clash = [v for v in phi.variables if v in alphabet]
                if clash:
                    raise ValueError(
                        f"alphabet letters {','.join(clash)} collide with schema variables of {phi.name}"
                    )
        for i, g in enumerate(concrete):
            if g.is_zero():
                raise ValueError(f"concrete generator #{i} is zero")
        self.entries = tuple(entries)
        self.concrete = tuple(concrete)
        self.order = order
        self.alphabet = alphabet
        self._instances_cache: dict[tuple[CatalogEntry, tuple[int, int]], tuple[Generator, ...]] = {}
        self._expanded_cache: dict[tuple[int, int], tuple[Generator, ...]] = {}
        self._ruleset_cache: dict[tuple[int, int], RuleSet] = {}

    @property
    def opis(self) -> tuple[OPI, ...]:
        return tuple(phi for e in self.entries for phi in e.opis)

    def instances(self, entry: CatalogEntry, bounds: tuple[int, int]) -> tuple[Generator, ...]:
        """The bounded instances of ``entry``, expanded once per bounds for
        as long as the set lives."""
        got = self._instances_cache.get((entry, bounds))
        if got is None:
            got = self._instances_cache[entry, bounds] = expand_instances(entry.opis, self.alphabet, bounds, self.order)
        return got

    def expanded(self, bounds: tuple[int, int]) -> tuple[Generator, ...]:
        """The concrete generators, then each entry's instances, without
        repeating a polynomial."""
        got = self._expanded_cache.get(bounds)
        if got is not None:
            return got
        gens: list[Generator] = []
        seen: set[OPoly] = set()
        for i, g in enumerate(self.concrete):
            gen = _concrete(f"g{i}", g, self.order)
            if gen.poly not in seen:
                seen.add(gen.poly)
                gens.append(gen)
        for e in self.entries:
            for g in self.instances(e, bounds):
                if g.poly not in seen:
                    seen.add(g.poly)
                    gens.append(g)
        out = tuple(gens)
        self._expanded_cache[bounds] = out
        return out

    def ruleset(self, bounds: tuple[int, int]) -> RuleSet:
        got = self._ruleset_cache.get(bounds)
        if got is None:
            got = RuleSet.ordered(
                self.order,
                bounds,
                opis=self.opis,
                generators=self.expanded(bounds),
            )
            self._ruleset_cache[bounds] = got
        return got

    def compositions(self, f, g, bounds: tuple[int, int]) -> list[CompositionRecord]:
        """Every in-bounds intersection and inclusion record between two
        sources, sorted.  A source is a polynomial or a catalog entry, which
        this set expands to its bounded instances through its own cache.
        When both sources expand to the same polynomials they pair as one
        self-paired family, with no mirrored duplicates."""
        left = self._as_generators(f, "f", bounds)
        right = left if g is f else self._as_generators(g, "g", bounds)
        same = [x.poly for x in left] == [y.poly for y in right]
        return indexed_records(left, None if same else right, bounds)

    def _as_generators(self, obj, tag: str, bounds: tuple[int, int]) -> list[Generator]:
        if isinstance(obj, CatalogEntry):
            return list(self.instances(obj, bounds))
        if isinstance(obj, OPoly):
            return [_concrete(tag, obj, self.order)]
        raise TypeError(f"cannot treat {type(obj).__name__} as a generator source")


def _concrete(gen_id: str, g: OPoly, order: OrderSpec) -> Generator:
    """``g`` scaled monic as a concrete generator, its leading term read once."""
    lm, lc = g.leading(order)
    if not lc:
        raise ValueError("cannot monicize the zero polynomial")
    return Generator(gen_id, g.scale(Fraction(1) / lc), lm, "concrete")


# ---------------------------------------------------------------------------
# composition enumeration


@dataclass(slots=True)
class CompositionRecord:
    kind: str  # "intersection" | "inclusion"
    left_id: str
    right_id: str
    w: Word
    witness: str
    value: OPoly
    pair_kind: str
    verdict: "TrivialityResult | None" = None
    skipped: str = ""

    def headline(self) -> str:
        return (
            f"{self.kind} ({self.left_id}, {self.right_id}) at w = {render(self.w)} [{self.witness}]"
        )


def _side(kind: str) -> str:
    return "concrete" if kind == "concrete" else "schema"


def _pair_kind(a: Generator, b: Generator) -> str:
    return f"{_side(a.kind)}-{_side(b.kind)}"


def _fits(w: Word, bounds: tuple[int, int]) -> bool:
    return w.z_degree <= bounds[0] and w.op_degree <= bounds[1]


def _intersection(a: Generator, b: Generator, k: int, bounds: tuple[int, int]) -> CompositionRecord | None:
    # a's last k top-level factors are b's first k
    fa, fb = a.lm.factors, b.lm.factors
    w = Word(fa + fb[k:])
    if not _fits(w, bounds):
        return None
    u = Word(fb[k:])
    v = Word(fa[: len(fa) - k])
    return CompositionRecord(
        kind="intersection",
        left_id=a.gen_id,
        right_id=b.gen_id,
        w=w,
        witness=f"overlap k={k}",
        value=a.poly * OPoly.from_word(u) - OPoly.from_word(v) * b.poly,
        pair_kind=_pair_kind(a, b),
    )


def _inclusion(a: Generator, b: Generator, q: Context) -> CompositionRecord:
    # b's leading word inside a's: a.lm == q.plug(b.lm)
    return CompositionRecord(
        kind="inclusion",
        left_id=a.gen_id,
        right_id=b.gen_id,
        w=a.lm,
        witness=f"context {q}",
        value=a.poly - substitute(q, b.poly),
        pair_kind=_pair_kind(a, b),
    )


def _intersections(a: Generator, b: Generator, bounds: tuple[int, int]) -> list[CompositionRecord]:
    fa, fb = a.lm.factors, b.lm.factors
    out: list[CompositionRecord] = []
    for k in range(1, min(len(fa), len(fb))):
        if fa[len(fa) - k :] == fb[:k]:
            rec = _intersection(a, b, k, bounds)
            if rec is not None:
                out.append(rec)
    return out


def _inclusions(a: Generator, b: Generator, bounds: tuple[int, int], same: bool) -> list[CompositionRecord]:
    if not _fits(a.lm, bounds):
        return []
    return [
        _inclusion(a, b, q)
        for q in iter_occurrences(a.lm, b.lm)
        if not (same and q.is_trivial())
    ]


def pair_compositions(
    a: Generator, b: Generator, bounds: tuple[int, int], *, same: bool = False
) -> list[CompositionRecord]:
    """All records between two generators (both directions when distinct).

    The per-pair reference: :func:`indexed_records` must list exactly the
    records that this yields over all pairs.
    """
    out = _intersections(a, b, bounds)
    if not same:
        out += _intersections(b, a, bounds)
    out += _inclusions(a, b, bounds, same)
    if not same:
        out += _inclusions(b, a, bounds, same)
    return out


def _record_sort_key(r: CompositionRecord):
    return (structural_key(r.w), r.kind, r.left_id, r.right_id, r.witness)


def _scan(outer: Sequence[Generator], inner: Sequence[Generator], bounds: tuple[int, int], same: bool):
    """``(i, j, phase, record)`` for each intersection ``(outer[i], inner[j])``
    (phase 0) and each inclusion of ``inner[j]``'s leading word in
    ``outer[i]``'s (phase 1), looked up in indexes over ``inner``.  With
    ``same`` the lists are one, and a leading word is not included in
    itself through the bare hole."""
    # the per-pair scan refuses here too, inside iter_occurrences
    if any(b.lm.is_unit() for b in inner) and any(_fits(a.lm, bounds) for a in outer):
        raise ValueError("occurrences of the unit are everywhere; refusing")
    # proper prefixes index their generators by leading-word degrees, so
    # only the groups that fit the room left by an overlap are visited
    by_word: dict[tuple, list[int]] = {}
    by_prefix: dict[tuple, dict[tuple[int, int], list[int]]] = {}
    for j, b in enumerate(inner):
        fb = b.lm.factors
        by_word.setdefault(fb, []).append(j)
        degrees = (b.lm.z_degree, b.lm.op_degree)
        for k in range(1, len(fb)):
            by_prefix.setdefault(fb[:k], {}).setdefault(degrees, []).append(j)
    # an inclusion is a slice of some inner leading word's breadth
    breadths = {len(fb) for fb in by_word}
    for i, a in enumerate(outer):
        fa = a.lm.factors
        n = len(fa)
        for k in range(1, n):
            groups = by_prefix.get(fa[n - k :])
            if not groups:
                continue
            # w = a.lm * b.lm with the shared factors counted once
            shared = Word(fa[n - k :])
            z_room = bounds[0] - a.lm.z_degree + shared.z_degree
            op_room = bounds[1] - a.lm.op_degree + shared.op_degree
            for (z, op), hits in groups.items():
                if z <= z_room and op <= op_room:
                    for j in hits:
                        yield i, j, 0, _intersection(a, inner[j], k, bounds)
        if not _fits(a.lm, bounds):
            continue
        for level, lo, hi, frames in iter_slices(a.lm, breadths):
            for j in by_word.get(level[lo:hi], ()):
                if same and i == j and not frames and hi - lo == n:
                    continue
                yield i, j, 1, _inclusion(a, inner[j], slice_context(level, lo, hi, frames))


def indexed_records(
    left: Sequence[Generator],
    right: Sequence[Generator] | None,
    bounds: tuple[int, int],
) -> list[CompositionRecord]:
    """Every in-bounds record between ``left`` and ``right`` (``None`` pairs
    ``left`` with itself), sorted.

    The result equals the all-pairs :func:`pair_compositions` scan, record
    for record and in the same order, but the cost follows the records
    found: leading words are indexed by factor tuple (inclusions) and by
    proper top-level prefix (intersections), and only hits are visited.
    """
    # Sort positions replay the scan's order, so ties of _record_sort_key
    # (possible when two generators share an id) break as they did there:
    # pair by pair, then intersections with either side on the left,
    # then inclusions into either side.
    keyed = []
    if right is None:
        for i, j, phase, rec in _scan(left, left, bounds, True):
            keyed.append(((min(i, j), max(i, j), 2 * phase + (i > j)), rec))
    else:
        for i, j, phase, rec in _scan(left, right, bounds, False):
            keyed.append(((i, j, 2 * phase), rec))
        for j, i, phase, rec in _scan(right, left, bounds, False):
            keyed.append(((i, j, 2 * phase + 1), rec))
    keyed.sort(key=lambda t: (_record_sort_key(t[1]), t[0]))
    return [rec for _, rec in keyed]


# ---------------------------------------------------------------------------
# triviality


@dataclass(slots=True)
class TrivialityResult:
    status: str  # "trivial" | "not_trivial" | "unresolved"
    residue: OPoly
    steps: tuple
    note: str = ""

    @property
    def conclusive(self) -> bool:
        return self.status in ("trivial", "not_trivial")

    def to_text(self) -> str:
        if self.status == "trivial":
            return f"trivial ({len(self.steps)} reduction step(s))"
        if self.status == "not_trivial":
            return f"NOT trivial: irreducible residue {self.residue} ({self.note})"
        return f"unresolved: {self.note}"


def is_trivial(h: OPoly, rules: RuleSet, w: Word, fuel: int) -> TrivialityResult:
    """Decide whether ``h`` rewrites to zero under ``rules`` through anchors
    below ``w``, comparing under ``rules.order``, and keep the reduction's
    trace in the verdict.

    ``rules`` is the rule set of the stratum the record was enumerated in
    (:meth:`GeneratorSet.ruleset`); a rule set without an order is refused.
    Every monomial of ``h`` must already lie below ``w``; reduction then
    keeps anchors below ``w``, so reaching zero is a sound certificate.
    A nonzero normal form whose monomials stay inside the rule set's
    verified bounds is a conclusive refusal: such a residue is a nonzero
    ideal element supported on irreducible words, which a complete bounded
    system cannot have.  Anything else (fuel out, residue escaping the
    verified bounds) stays unresolved.  :func:`check_gs` reaches the same
    status, residue and note without the trace.
    """
    return _judge(h, rules, w, fuel, want_trace=True)


def _judge(h: OPoly, rules: RuleSet, w: Word, fuel: int, want_trace: bool) -> TrivialityResult:
    """:func:`is_trivial`'s verdict; without ``want_trace`` the normal form
    may come from the rule set's memo and the verdict keeps no steps."""
    order = rules.order
    if order is None:
        raise ValueError("is_trivial needs a rule set compiled under an order")
    for m in h.support():
        if order.compare(m, w) >= 0:
            raise ValueError(
                f"monomial {render(m)} of the candidate is not below the shared word {render(w)}"
            )
    res = normal_form(h, rules, fuel, want_trace=want_trace)
    if res.poly.is_zero():
        return TrivialityResult("trivial", res.poly, res.steps)
    if res.exhausted:
        return TrivialityResult("unresolved", res.poly, res.steps, note=f"fuel {fuel} exhausted")
    vb = rules.bounds
    if vb is not None and all(_fits(m, vb) for m in res.poly.support()):
        return TrivialityResult(
            "not_trivial", res.poly, res.steps, note=f"residue within verified bounds {vb}"
        )
    return TrivialityResult(
        "unresolved", res.poly, res.steps, note="residue leaves the verified bounds"
    )


# ---------------------------------------------------------------------------
# the bounded completeness check


@dataclass(slots=True)
class GSReport:
    bounds: tuple[int, int]
    fuel: int
    route: str  # "hypothesis" | "raw"
    order_text: str
    generator_counts: dict
    hypothesis: list  # (name, ok, detail)
    records: list
    counts: dict
    passed: bool

    def to_text(self) -> str:
        lines = [
            f"completeness check at bounds {self.bounds}, fuel {self.fuel}",
            f"order: {self.order_text}",
            "generators: "
            + ", ".join(f"{k}={v}" for k, v in sorted(self.generator_counts.items())),
            f"route: {self.route}"
            + (
                " (schema-schema records covered by the certified-family hypotheses)"
                if self.route == "hypothesis"
                else " (every record reduced)"
            ),
        ]
        if self.hypothesis:
            lines.append("hypotheses:")
            for name, ok, detail in self.hypothesis:
                lines.append(f"  {name}: {'ok' if ok else 'FAIL'}" + (f" ({detail})" if detail else ""))
        lines.append(
            "records: "
            + ", ".join(f"{k}={v}" for k, v in sorted(self.counts.items()))
        )
        for r in self.records:
            if r.skipped:
                lines.append(f"  skipped {r.headline()}: {r.skipped}")
            elif r.verdict is not None and r.verdict.status != "trivial":
                lines.append(f"  {r.headline()}")
                lines.append(f"    value = {r.value}")
                lines.append(f"    {r.verdict.to_text()}")
        lines.append("result: " + ("PASS" if self.passed else "FAIL"))
        return "\n".join(lines)

    def to_json_dict(self) -> dict:
        recs = []
        for r in self.records:
            d = {
                "kind": r.kind,
                "left": r.left_id,
                "right": r.right_id,
                "w": render(r.w),
                "witness": r.witness,
                "pair": r.pair_kind,
                "value": render_opoly(r.value),
            }
            if r.skipped:
                d["status"] = "skipped"
                d["reason"] = r.skipped
            elif r.verdict is not None:
                d["status"] = r.verdict.status
                if r.verdict.status != "trivial":
                    d["residue"] = render_opoly(r.verdict.residue)
                    d["note"] = r.verdict.note
            recs.append(d)
        return {
            "bounds": list(self.bounds),
            "fuel": self.fuel,
            "route": self.route,
            "order": self.order_text,
            "generators": dict(sorted(self.generator_counts.items())),
            "hypotheses": [
                {"name": n, "ok": ok, "detail": detail} for n, ok, detail in self.hypothesis
            ],
            "records": recs,
            "counts": dict(sorted(self.counts.items())),
            "passed": self.passed,
        }


def _evaluate_hypotheses(gens: GeneratorSet) -> tuple[list, bool]:
    order = gens.order
    out: list = []
    ok_all = True
    for e in gens.entries:
        out.append(
            (
                f"{e.key}: source-asserted completeness",
                e.asserted_gs,
                "input assumption, not re-derived here",
            )
        )
        ok_all = ok_all and e.asserted_gs
    for phi in gens.opis:
        nos = check_lm_no_subword(phi, order.preset)
        out.append((f"{phi.name}: leading schema shape", nos.ok, nos.witness or nos.lm))
        ok_all = ok_all and nos.ok
    for phi in gens.opis:
        stab = check_lm_stability(phi, order, include_units=True)
        ok = stab.passed
        if stab.violations:
            detail = f"violation at {stab.violations[0][0]}"
        elif stab.undecided:
            detail = f"not decided: {stab.undecided[0][1]}"
        else:
            detail = f"{len(stab.certified)} certified, {stab.enumerated} enumerated"
        out.append((f"{phi.name}: leading-monomial stability (units included)", ok, detail))
        ok_all = ok_all and ok
    bracket_free = all(m.op_degree == 0 for g in gens.concrete for m in g.support())
    if gens.concrete:
        out.append(
            (
                "concrete generators bracket-free",
                bracket_free,
                "required so their records reduce classically",
            )
        )
        ok_all = ok_all and bracket_free
    return out, ok_all


def check_gs(
    generators: GeneratorSet,
    bounds: tuple[int, int],
    fuel: int,
    route: str = "auto",
) -> GSReport:
    """Enumerate every in-bounds record and decide the certification.

    ``route="auto"`` applies the certified-family argument when its
    hypotheses hold and reduces the rest; ``route="raw"`` reduces every
    record unconditionally.  Each reduced record gets :func:`is_trivial`'s
    status, residue and note, from the stratum rule set's memoized word
    normal forms, so a word shared by many records is reduced once; its
    verdict keeps no trace (``verdict.steps == ()``).
    """
    if route not in ("auto", "raw"):
        raise ValueError(f"route must be 'auto' or 'raw', got {route!r}")
    if fuel < 0:
        raise ValueError(f"fuel must be at least 0, got {fuel}")
    gens = generators
    expanded = gens.expanded(bounds)
    ruleset = gens.ruleset(bounds)

    hyp, hyp_ok = _evaluate_hypotheses(gens)
    use_hypothesis = route == "auto" and hyp_ok and bool(gens.opis)

    records = indexed_records(expanded, None, bounds)

    for r in records:
        if use_hypothesis and r.pair_kind == "schema-schema":
            r.skipped = "schema-schema record; covered by the certified-family hypotheses"
        else:
            r.verdict = _judge(r.value, ruleset, r.w, fuel, want_trace=False)

    counts = {
        "total": len(records),
        "skipped": sum(1 for r in records if r.skipped),
        "trivial": sum(1 for r in records if r.verdict and r.verdict.status == "trivial"),
        "not_trivial": sum(1 for r in records if r.verdict and r.verdict.status == "not_trivial"),
        "unresolved": sum(1 for r in records if r.verdict and r.verdict.status == "unresolved"),
    }
    passed = counts["not_trivial"] == 0 and counts["unresolved"] == 0
    kinds = {"concrete": 0, "schema": 0, "degenerate": 0}
    for a in expanded:
        kinds[a.kind] += 1
    return GSReport(
        bounds=bounds,
        fuel=fuel,
        route="hypothesis" if use_hypothesis else "raw",
        order_text=gens.order.describe(),
        generator_counts=kinds,
        hypothesis=hyp,
        records=records,
        counts=counts,
        passed=passed,
    )


# ---------------------------------------------------------------------------
# irreducibles and quotient arithmetic


def enumerate_irr(generators: GeneratorSet, bounds: tuple[int, int]) -> tuple[Word, ...]:
    """All irreducible words within bounds, ascending in the active order,
    read from the stratum's own rule set: a rule compiled only at wider
    bounds has a left side outside them, which no slice of an in-bounds
    word is.  A pool of more than ``MAX_EXPANSION_WORDS`` words is refused
    with a ``ValueError`` before any word is built."""
    rules = generators.ruleset(bounds)
    what = f"enumerating irreducible words at bounds {bounds} would build"
    _refuse_wide_pool(what, len(generators.alphabet.letters), *bounds)
    order = generators.order
    out = [w for w in all_words(generators.alphabet, *bounds) if rules.find_redex(w) is None]
    out.sort(key=cmp_to_key(order.compare))
    return tuple(out)


class QuotientAlgebra:
    """Arithmetic in normal forms over a boundedly verified presentation.

    Construction runs the completeness check and refuses a failing set;
    all inputs and results must stay inside the verified bounds, and any
    escape raises instead of truncating.
    """

    def __init__(self, generators: GeneratorSet, bounds: tuple[int, int], fuel: int):
        report = check_gs(generators, bounds, fuel)
        if not report.passed:
            raise NotVerified(
                f"generator set is not verified at bounds {bounds}; "
                f"quotient arithmetic refused (route {report.route})"
            )
        self.generators = generators
        self.bounds = bounds
        self.fuel = fuel
        self._rules = generators.ruleset(bounds)

    @property
    def order(self) -> OrderSpec:
        return self.generators.order

    def _validate(self, f: OPoly, label: str) -> None:
        for m in f.support():
            if not _fits(m, self.bounds):
                raise BoundsExceeded(
                    f"{label} contains {render(m)} outside verified bounds {self.bounds}"
                )

    def nf(self, f: OPoly) -> OPoly:
        """Normal form of an in-bounds polynomial; the class representative."""
        self._validate(f, "input")
        res = normal_form(f, self._rules, self.fuel, want_trace=False)
        if res.exhausted:
            raise RuntimeError(f"fuel {self.fuel} exhausted inside the verified stratum")
        self._validate(res.poly, "normal form")
        return res.poly

    def nf_multiply(self, f: OPoly, g: OPoly) -> OPoly:
        return self.nf(f * g)

    def nf_operator(self, f: OPoly) -> OPoly:
        return self.nf(f.apply_bracket())

    def irr_basis(self) -> tuple[Word, ...]:
        return enumerate_irr(self.generators, self.bounds)


def evaluate_morphism(
    f: OPoly,
    theta: Mapping[str, Union[Word, OPoly]],
    target: QuotientAlgebra,
) -> OPoly:
    """Image of ``f`` under the operator-preserving map sending each letter
    through ``theta``, computed entirely in target normal forms."""

    def letter_image(name: str) -> OPoly:
        try:
            img = theta[name]
        except KeyError:
            raise ValueError(f"letter {name!r} has no image under the morphism")
        return OPoly.from_word(img) if isinstance(img, Word) else img

    def word_image(w: Word) -> OPoly:
        acc = OPoly.one()
        for fct in w.factors:
            if isinstance(fct, str):
                acc = target.nf_multiply(acc, letter_image(fct))
            else:
                acc = target.nf_multiply(acc, target.nf_operator(word_image(fct)))
        return acc

    out = OPoly.zero()
    for w, c in f.items(reverse=False):
        out = out + word_image(w).scale(c)
    return target.nf(out)
