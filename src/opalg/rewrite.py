"""Rewriting of operated polynomials by concrete and schema rules.

Two modes share one engine:

* ordered mode carries an OrderSpec; schema rules are guarded (an
  instance fires only where its leading monomial is the matched word, so
  every step strictly descends), and the unstable bounded instances, which
  the caller has already expanded, join as concrete rules so nothing the
  guard rejects is lost;
* raw mode has no order and no guard; it implements the structural
  rewriting that the type checkers are defined by.

Redex search is position-major: slices come in the scan order that
:func:`opalg.terms.iter_slices` owns (top-level slices left to right,
shorter slices first at a given start, then bracket factors left to
right, recursively); at one position, rules apply in declared priority.

A rule set never changes after construction.  It records which slice
lengths its left sides can match, so redex search never slices a factor
run of any other length, and it remembers, for as long as it lives, the
rule matches of every factor slice it has scanned (a match depends on the
slice alone, so each slice runs the rule loop once) and each word's first
redex, or that the word is irreducible.  A schema match instantiates its
identity through the identity's compiled plan (:meth:`opalg.opi.OPI.instance`).
:func:`normal_form` picks each step's monomial without sorting the
polynomial: it skips words already known to be irreducible and searches
the rest greatest first.  It takes its steps in place on one term dict.

An ordered rule set also remembers the normal form of every reducible word
it has reduced, with a bound on the steps that took.  Reduction under an
order is linear, so :func:`normal_form` without a trace sums those word
normal forms when the bounds fit its fuel, and steps otherwise; traces and
raw rule sets always step.  Steps and memo fills compute each replacement
through :func:`_replacement`, the one place that checks descent.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from typing import Iterator, Sequence, Union

from .opi import OPI, CatalogEntry, Generator, _refuse_wide_pool
from .orders import OrderSpec
from .poly import OPoly, Scalar, _wrap
from .terms import (
    Alphabet,
    Context,
    Word,
    align_factors,
    all_words,
    iter_slices,
    render,
    slice_context,
    structural_key,
    word_tuples,
)

__all__ = [
    "ConcreteRule",
    "Redex",
    "ReductionResult",
    "RuleSet",
    "SchemaRule",
    "TraceStep",
    "TypeReport",
    "check_diff_type",
    "check_rb_type",
    "normal_form",
]


@dataclass(frozen=True, slots=True)
class ConcreteRule:
    """lhs word -> rhs polynomial, with rhs strictly below lhs when ordered."""

    rule_id: str
    lhs: Word
    rhs: OPoly

    def __post_init__(self):
        if self.lhs.is_unit():
            raise ValueError(
                f"rule {self.rule_id}: the unit as a left side would rewrite everything"
            )
        if self.rhs.coeff(self.lhs):
            raise ValueError(f"rule {self.rule_id}: lhs appears in rhs")


@dataclass(frozen=True, slots=True)
class SchemaRule:
    """Pattern rule backed by an OPI; each match instantiates the identity."""

    rule_id: str
    opi: OPI
    lhs: Word  # schema word over the OPI's variables
    nonempty: frozenset[str] = frozenset()


Rule = Union[ConcreteRule, SchemaRule]


@dataclass(frozen=True, slots=True)
class Redex:
    rule_id: str
    context: Context
    sigma: tuple[tuple[str, Word], ...] | None
    rhs: OPoly  # replacement for the slice


@dataclass(frozen=True, slots=True)
class TraceStep:
    index: int
    rule_id: str
    context: Context
    sigma: tuple[tuple[str, Word], ...] | None
    coeff: Scalar
    monomial: Word

    def to_text(self) -> str:
        if self.sigma:
            bindings = ", ".join(f"{v}={render(w)}" for v, w in self.sigma)
        else:
            bindings = "-"
        return f"step {self.index}: rule {self.rule_id}, context {self.context}, σ {bindings}"


@dataclass(slots=True)
class ReductionResult:
    poly: OPoly
    steps: tuple[TraceStep, ...]
    exhausted: bool

    def trace_text(self) -> str:
        return "\n".join(s.to_text() for s in self.steps)


_UNSEEN = object()


class RuleSet:
    """Prioritized rules plus the optional order that guards them.

    A rule set never changes after construction.  It records the slice
    lengths its rules can match (``_lengths`` exactly, and every length
    from ``_open_from`` up when a left side has a top-level variable), and
    it remembers, for as long as it lives, the matches of every factor
    slice it has scanned (which rule, with which assignment, replacing the
    slice by what), the first redex of every word it has searched and,
    under an order, the normal form of every word it has reduced without a
    trace (:func:`_fill_normal_forms`)."""

    __slots__ = ("rules", "order", "bounds", "_lengths", "_open_from", "_slices", "_redexes", "_normal", "__weakref__")

    def __init__(
        self,
        rules: Sequence[Rule],
        order: OrderSpec | None,
        bounds: tuple[int, int] | None = None,
    ):
        self.rules = tuple(rules)
        self.order = order
        self.bounds = bounds
        # the slice lengths some rule can match: a left side without a
        # top-level variable matches its own breadth only, one with a
        # top-level variable any breadth from its fixed factors plus its
        # nonempty top-level variables up
        self._lengths: set[int] = set()
        open_from = []
        for rule in self.rules:
            fs = rule.lhs.factors
            top = [f for f in fs if f in rule.opi.variables] if isinstance(rule, SchemaRule) else ()
            if top:
                open_from.append(len(fs) - len(top) + sum(f in rule.nonempty for f in top))
            else:
                self._lengths.add(len(fs))
        self._open_from = min(open_from, default=None)
        # slice factors -> (rule_id, sigma, rhs) per match, in priority order
        self._slices: dict[tuple, tuple[tuple, ...]] = {}
        # word -> first redex, or None when irreducible
        self._redexes: dict[Word, Redex | None] = {}
        # reducible word -> (step bound, normal form terms); ordered sets only
        self._normal: dict[Word, tuple[int, tuple[tuple[Word, Scalar], ...]]] = {}

    @classmethod
    def ordered(
        cls,
        order: OrderSpec,
        bounds: tuple[int, int],
        opis: Sequence[OPI],
        generators: Sequence[Generator],
    ) -> "RuleSet":
        """Compile guarded schema rules for ``opis`` plus one concrete rule per
        expanded generator that the guard does not cover.

        ``generators`` are the monic generators that
        :meth:`opalg.gsbasis.GeneratorSet.expanded` lists at ``bounds``:
        concrete polynomials and degenerate (unstable) instances become
        concrete rules in that order, stable instances are left to their
        schema rule.  A unit leading monomial on any of them presents the
        unit ideal and is refused."""
        rules: list[Rule] = [
            SchemaRule(rule_id=phi.name, opi=phi, lhs=phi.lm(order.preset)) for phi in opis
        ]
        for g in generators:
            if g.lm.is_unit():
                if g.kind == "concrete":
                    raise ValueError(
                        "generator with constant leading monomial presents the unit ideal"
                    )
                raise ValueError(
                    f"instance {g.gen_id} is a nonzero constant; the ideal is the unit ideal"
                )
            if g.kind != "schema":
                rules.append(ConcreteRule(g.gen_id, g.lm, OPoly.from_word(g.lm) - g.poly))
        return cls(rules, order, bounds)

    @classmethod
    def raw(cls, rules: Sequence[Rule]) -> "RuleSet":
        """The same rules without an order, so schema rules are unguarded."""
        return cls(rules, order=None)

    # -- redex search ----------------------------------------------------

    def _rhs_for_schema(self, rule: SchemaRule, slice_word: Word, values: Sequence[Word]) -> OPoly | None:
        inst = rule.opi.instance(values)
        if inst.is_zero():
            return None
        if self.order is not None:
            lm, lc = inst.leading(self.order)
            if lm != slice_word:
                return None
            inst = inst.scale(Fraction(1) / lc)
        else:
            lc = inst.coeff(slice_word)
            if lc != 1:
                # raw rules come from bodies with unit leading coefficient
                if not lc:
                    return None
                inst = inst.scale(Fraction(1) / lc)
        return OPoly.from_word(slice_word) - inst

    def _match_slice(self, sl: tuple) -> tuple[tuple, ...]:
        """Every rule match on the slice ``sl``, in declared priority, as
        ``(rule_id, sigma, rhs)``; a match depends on the slice
        alone, never on the word around it."""
        out = []
        slice_word = None
        for rule in self.rules:
            if isinstance(rule, ConcreteRule):
                if sl == rule.lhs.factors:
                    out.append((rule.rule_id, None, rule.rhs))
                continue
            variables = rule.opi.variables
            for sigma in align_factors(rule.lhs.factors, sl, variables, rule.nonempty):
                if slice_word is None:
                    slice_word = Word(sl)
                values = [sigma[v] for v in variables]
                rhs = self._rhs_for_schema(rule, slice_word, values)
                if rhs is not None:
                    out.append((rule.rule_id, tuple(zip(variables, values)), rhs))
        return tuple(out)

    def iter_redexes(self, w: Word) -> Iterator[Redex]:
        """Every redex in ``w``: slices in :func:`opalg.terms.iter_slices`
        order, rules in declared priority at each slice.  Slices of a
        length no rule can match are skipped unsliced; each other slice's
        matches are computed once per rule set."""
        slices = self._slices
        for level, i, j, frames in iter_slices(w, self._lengths, self._open_from):
            sl = level[i:j]
            matches = slices.get(sl)
            if matches is None:
                matches = slices[sl] = self._match_slice(sl)
            if matches:
                q = slice_context(level, i, j, frames)
                for rule_id, sigma, rhs in matches:
                    yield Redex(rule_id, q, sigma, rhs)

    def find_redex(self, w: Word) -> Redex | None:
        """The first redex of :meth:`iter_redexes`, searched once per word."""
        memo = self._redexes
        rdx = memo.get(w, _UNSEEN)
        if rdx is _UNSEEN:
            rdx = memo[w] = next(self.iter_redexes(w), None)
        return rdx


def _replacement(w: Word, rdx: Redex, order: OrderSpec | None) -> list[tuple[Word, Scalar]]:
    """The terms that replace ``w`` at ``rdx``, as ``(monomial, coefficient)``
    pairs.  Under an order each monomial must lie strictly below ``w``: this
    is the package's one descent check, run by every stepwise step and every
    memo fill, and a step that does not descend raises here."""
    plug = rdx.context.plug
    replacement = [(plug(m), d) for m, d in rdx.rhs._terms.items()]
    if order is not None and replacement:
        hi = order.max(m for m, _ in replacement)
        if order.compare(hi, w) >= 0:
            raise RuntimeError(
                f"non-descending step: {render(hi)} !< {render(w)} via {rdx.rule_id}"
            )
    return replacement


def _add_scaled(acc: dict[Word, Scalar], c: Scalar, terms) -> None:
    """Add ``c`` times the ``(word, coefficient)`` pairs ``terms`` to
    ``acc`` in place, dropping the terms that cancel."""
    for m, d in terms:
        s = c * d
        prev = acc.get(m)
        if prev is not None:
            s += prev
        if s:
            acc[m] = s
        else:
            del acc[m]


def _reduce_at(acc: dict[Word, Scalar], w: Word, rdx: Redex, order: OrderSpec | None) -> Scalar:
    """One reduction step in place: the term ``c*w`` of ``acc`` becomes ``c``
    times the redex's replacement, terms that cancel are dropped, and ``c``
    is returned.  A step that does not descend raises before ``acc``
    changes."""
    replacement = _replacement(w, rdx, order)
    c = acc.pop(w)
    _add_scaled(acc, c, replacement)
    return c


def _greatest_reducible(acc: dict[Word, Scalar], rules: RuleSet) -> tuple[Word, Redex] | None:
    """The greatest monomial of ``acc`` that has a redex, with that redex:
    descending under the rule set's order, or structurally descending in
    raw mode.  Words the rule set already knows to be irreducible are
    skipped unsearched; the others are searched greatest first, so exactly
    the words of a descending scan are searched."""
    known = rules._redexes
    cands = [w for w in acc if known.get(w, _UNSEEN) is not None]
    order = rules.order
    while cands:
        w = order.max(cands) if order is not None else max(cands, key=structural_key)
        rdx = rules.find_redex(w)
        if rdx is not None:
            return w, rdx
        cands.remove(w)
    return None


def _fill_normal_forms(rules: RuleSet, words) -> None:
    """Memoize, in ``rules._normal``, the normal form of every reducible
    word among ``words`` and of every reducible word their replacements
    reach, children before parents, on an explicit stack (a chain of
    thousands of steps needs no interpreter recursion).

    An entry is ``(bound, terms)``: ``terms`` the normal form as
    ``(word, coefficient)`` pairs and ``bound`` 1 plus the bounds of the
    replacement's words (0 for an irreducible word).  The stepwise path
    reduces each reducible word it reaches at most once, since everything
    it adds lies below the word it reduces, so ``bound`` bounds its step
    count on the word at any fuel.  Every replacement passes the descent
    check of :func:`_replacement`, which also makes the walk finite."""
    memo = rules._normal
    known = rules._redexes
    order = rules.order
    stack: list[tuple[Word, list | None]] = [
        (w, None) for w in words if w not in memo and known.get(w, _UNSEEN) is not None
    ]
    while stack:
        w, replacement = stack[-1]
        if replacement is None:
            rdx = None if w in memo else rules.find_redex(w)
            if rdx is None:
                stack.pop()
                continue
            replacement = _replacement(w, rdx, order)
            stack[-1] = (w, replacement)
            # a word reached twice is filled by its first visit; none is its
            # own descendant, as every replacement lies below its word
            stack.extend(
                (m, None) for m, _ in replacement if m not in memo and known.get(m, _UNSEEN) is not None
            )
            continue
        stack.pop()
        # every reducible word of the replacement is filled by now
        bound = 1
        acc: dict[Word, Scalar] = {}
        for m, d in replacement:
            b, terms = memo.get(m) or (0, ((m, 1),))
            bound += b
            _add_scaled(acc, d, terms)
        memo[w] = (bound, tuple(acc.items()))


def _memoized_normal_form(f: OPoly, rules: RuleSet, fuel: int) -> ReductionResult | None:
    """``f``'s normal form summed from the memoized normal forms of its
    words, or None when the stepwise path must answer: the summed bound
    exceeds ``fuel`` (the steps might not fit), or a fill met a step that
    does not descend (the stepwise path raises it at its own step, or runs
    out of fuel before it)."""
    try:
        _fill_normal_forms(rules, f._terms)
    except RuntimeError:
        return None
    memo = rules._normal
    bound = 0
    acc: dict[Word, Scalar] = {}
    for w, c in f._terms.items():
        b, terms = memo.get(w) or (0, ((w, 1),))
        bound += b
        _add_scaled(acc, c, terms)
    if bound > fuel:
        return None
    return ReductionResult(_wrap(acc), (), False)


def normal_form(f: OPoly, rules: RuleSet, fuel: int, *, want_trace: bool = True) -> ReductionResult:
    """Reduce ``f`` until irreducible or out of fuel: the greatest reducible
    monomial is reduced at its first redex, one step at a time, in one term
    dict, and ``exhausted`` says that fuel ran out on a reducible result.

    Under an order, reduction is a linear map that fixes irreducible words
    and sends a reducible word to the normal form of its replacement.  So
    when no trace is wanted, an ordered rule set answers from its memo of
    word normal forms (:func:`_fill_normal_forms`) whenever the memoized
    step bounds of ``f``'s words sum to at most ``fuel``; the result, and
    any error, are those of the stepwise path, which answers otherwise.  A
    raw rule set always steps."""
    if not want_trace and rules.order is not None:
        res = _memoized_normal_form(f, rules, fuel)
        if res is not None:
            return res
    steps: list[TraceStep] = []
    acc = dict(f._terms)
    order = rules.order
    for k in range(fuel):
        hit = _greatest_reducible(acc, rules)
        if hit is None:
            return ReductionResult(_wrap(acc), tuple(steps), False)
        w, rdx = hit
        c = _reduce_at(acc, w, rdx, order)
        if want_trace:
            steps.append(TraceStep(k, rdx.rule_id, rdx.context, rdx.sigma, c, w))
    still = _greatest_reducible(acc, rules) is not None
    return ReductionResult(_wrap(acc), tuple(steps), still)


# ---------------------------------------------------------------------------
# shape checks for the two rewriting families


@dataclass(slots=True)
class TypeReport:
    """Condition-by-condition outcome of a family membership check."""

    opi: str
    family: str
    bounds: tuple[int, int]
    fuel: int
    conditions: list = field(default_factory=list)  # (label, ok, detail)

    @property
    def passed(self) -> bool:
        return all(ok for _, ok, _ in self.conditions)

    def add(self, label: str, ok: bool, detail: str = "") -> None:
        self.conditions.append((label, ok, detail))

    def to_text(self) -> str:
        lines = [f"{self.family} check for {self.opi} at bounds {self.bounds}, fuel {self.fuel}"]
        for label, ok, detail in self.conditions:
            mark = "pass" if ok else "FAIL"
            lines.append(f"  {label}: {mark}" + (f" ({detail})" if detail else ""))
        lines.append("  => " + ("PASSED" if self.passed else "FAILED"))
        return "\n".join(lines)

    def to_json_dict(self) -> dict:
        return {
            "opi": self.opi,
            "family": self.family,
            "bounds": list(self.bounds),
            "fuel": self.fuel,
            "conditions": [{"label": label, "ok": ok, "detail": detail} for label, ok, detail in self.conditions],
            "passed": self.passed,
        }


def _open_audit(
    candidate: Union[OPI, CatalogEntry], family: str, pattern, alphabet: Alphabet, bounds: tuple[int, int], fuel: int
) -> tuple[OPI, TypeReport, tuple[Word, OPoly] | None]:
    """The candidate's single identity, its report, and the leading pattern
    ``pattern(x, y)`` with the rest ``lead - body / coeff(lead)``; the last
    is None after a shape FAIL (not two variables, or no such lead).  A
    scope whose word pool exceeds ``MAX_EXPANSION_WORDS`` is refused with a
    ``ValueError`` before any probe runs."""
    phi = candidate
    if isinstance(candidate, CatalogEntry):
        if len(candidate.opis) != 1:
            raise ValueError(f"{candidate.key}: family checks need a single identity")
        phi = candidate.opis[0]
    _refuse_wide_pool(f"auditing {phi.name} at bounds {bounds} would probe", len(alphabet), *bounds)
    rep = TypeReport(opi=phi.name, family=family, bounds=bounds, fuel=fuel)
    if phi.arity != 2:
        rep.add("shape", False, f"needs exactly 2 variables, got {phi.arity}")
        return phi, rep, None
    lead = pattern(*phi.variables)
    lc = phi.body.coeff(lead)
    if not lc:
        rep.add("shape", False, f"{phi.name}: expected leading pattern {render(lead)} is absent")
        return phi, rep, None
    return phi, rep, (lead, OPoly.from_word(lead) - phi.body.scale(Fraction(1) / lc))


def _map_is_clean(rep: TypeReport, kind: str, poly: OPoly, scan, clean: str) -> bool:
    """Shape pass for the extracted map, then (a) linearity and (b) the
    first forbidden subword ``scan`` finds in its monomials."""
    rep.add("shape", True, f"{kind} map with {len(poly)} term(s)")
    rep.add("(a) linearity", True, "multilinear by construction")
    witness = next(filter(None, map(scan, poly.support())), None)
    rep.add("(b) no forbidden subword", witness is None, witness or clean)
    return witness is None


def _probe(
    rep: TypeReport, alphabet: Alphabet, rules: "RuleSet", labels: tuple[str, str], sides, nonunit: bool = False
) -> None:
    """Termination: every word within the report's bounds reduces within
    its fuel.  Then closure: for every jointly bounded triple (nonunit
    only, if asked) the two ``sides(u, v, w)`` have equal normal forms.
    More triples than ``MAX_EXPANSION_WORDS`` are refused with a
    ``ValueError`` before either probe runs."""
    max_z, max_op = rep.bounds
    what = f"auditing {rep.opi} at bounds {rep.bounds} would probe closure on"
    _refuse_wide_pool(what, len(alphabet), max_z, max_op, arity=3, unit="jointly bounded triples")
    stuck = None
    for w in all_words(alphabet, max_z, max_op):
        if normal_form(OPoly.from_word(w), rules, rep.fuel, want_trace=False).exhausted:
            stuck = render(w)
            break
    rep.add(labels[0], stuck is None, stuck or "all bounded words reduce")
    if stuck is not None:
        return
    bad = None
    for u, v, w in word_tuples(alphabet, max_z, max_op, 3):
        if nonunit and (u.is_unit() or v.is_unit() or w.is_unit()):
            continue
        left, right = sides(u, v, w)
        res = normal_form(left - right, rules, rep.fuel, want_trace=False)
        if res.exhausted or not res.poly.is_zero():
            triple = f"({render(u)}, {render(v)}, {render(w)})"
            bad = f"fuel exhausted at {triple}" if res.exhausted else f"{triple} leaves {res.poly}"
            break
    clean = f"all jointly bounded {'nonunit ' if nonunit else ''}triples close"
    rep.add(labels[1], bad is None, bad or clean)


def _memoized_map(expr: OPI):
    """The two-variable map ``(a, b) -> expr[a, b]`` on words or
    polynomials, bilinear as :func:`opalg.opi.instantiate` is.  Each pair of
    words is instantiated once, through the identity's compiled plan, for
    as long as the returned function lives;
    a polynomial argument is expanded term by term and the weighted
    coefficients are merged in one dict."""
    memo: dict[tuple[Word, Word], OPoly] = {}

    def on_words(a: Word, b: Word) -> OPoly:
        got = memo.get((a, b))
        if got is None:
            got = memo[a, b] = expr.instance((a, b))
        return got

    def apply(a: Union[Word, OPoly], b: Union[Word, OPoly]) -> OPoly:
        if isinstance(a, Word) and isinstance(b, Word):
            return on_words(a, b)
        left = ((a, 1),) if isinstance(a, Word) else a._terms.items()
        right = ((b, 1),) if isinstance(b, Word) else b._terms.items()
        acc: dict[Word, Scalar] = {}
        for u, cu in left:
            for v, cv in right:
                weight = cu * cv
                for m, c in on_words(u, v)._terms.items():
                    if weight != 1:
                        c = weight * c
                    prev = acc.get(m)
                    acc[m] = c if prev is None else prev + c
        return _wrap({m: c for m, c in acc.items() if c})

    return apply


def _scan_adjacent_nonunit_brackets(w: Word) -> str | None:
    for level, i, j, _ in iter_slices(w, (2,)):
        a, b = level[i], level[i + 1]
        if isinstance(a, Word) and isinstance(b, Word) and a.factors and b.factors:
            return f"[{render(a)}]*[{render(b)}]"
    return None


def _scan_wide_bracket(w: Word) -> str | None:
    for f in w.factors:
        if isinstance(f, Word):
            if f.breadth >= 2:
                return f"[{render(f)}]"
            hit = _scan_wide_bracket(f)
            if hit:
                return hit
    return None


def check_rb_type(
    candidate: Union[OPI, CatalogEntry],
    alphabet: Alphabet,
    bounds: tuple[int, int],
    fuel: int,
) -> TypeReport:
    """Bracket-pair family membership: the identity must collapse a pair
    of bracket factors into one bracket, with a linear collapse map whose
    induced rewriting terminates at bounds and is associative up to
    rewriting (units included in the probe tuples, jointly budgeted)."""
    phi, rep, shaped = _open_audit(
        candidate, "bracket-pair", lambda x, y: Word((Word((x,)), Word((y,)))), alphabet, bounds, fuel
    )
    if shaped is None:
        return rep
    lead, rest = shaped
    inner_terms: list[tuple[Word, Scalar]] = []
    for m, c in rest.items(reverse=False):
        if m.breadth != 1 or not isinstance(m.factors[0], Word):
            rep.add("shape", False, f"residual term {render(m)} is not a single bracket")
            return rep
        inner_terms.append((m.factors[0], c))
    b_poly = OPoly(inner_terms)
    if not _map_is_clean(
        rep, "collapse", b_poly, _scan_adjacent_nonunit_brackets, "no adjacent brackets with nonunit inners"
    ):
        return rep
    b_map = _memoized_map(OPI(f"{phi.name}.collapse", phi.variables, b_poly))

    def sides(u: Word, v: Word, w: Word) -> tuple[OPoly, OPoly]:
        return b_map(b_map(u, v), w), b_map(u, b_map(v, w))

    rules = RuleSet.raw([SchemaRule(phi.name, phi, lead)])
    _probe(rep, alphabet, rules, ("(c) termination at bounds", "(d) associativity closure"), sides)
    return rep


def check_diff_type(
    candidate: Union[OPI, CatalogEntry],
    alphabet: Alphabet,
    bounds: tuple[int, int],
    fuel: int,
) -> TypeReport:
    """Bracket-of-product family membership: the identity expands the
    bracket of a product through a linear map with no wide brackets, and
    the induced rewriting (nontrivial splits only) satisfies the cocycle
    closure on jointly bounded nonunit triples."""
    phi, rep, shaped = _open_audit(
        candidate, "bracket-of-product", lambda x, y: Word((Word((x, y)),)), alphabet, bounds, fuel
    )
    if shaped is None:
        return rep
    lead, n_poly = shaped
    if not _map_is_clean(rep, "expansion", n_poly, _scan_wide_bracket, "no bracket factor has a product inside"):
        return rep
    n_map = _memoized_map(OPI(f"{phi.name}.expand", phi.variables, n_poly))

    def sides(u: Word, v: Word, w: Word) -> tuple[OPoly, OPoly]:
        return n_map(u * v, w), n_map(u, v * w)

    rules = RuleSet.raw([SchemaRule(phi.name, phi, lead, nonempty=frozenset(phi.variables))])
    _probe(rep, alphabet, rules, ("(c) termination at bounds", "(d) cocycle closure"), sides, nonunit=True)
    return rep
