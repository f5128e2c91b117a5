"""Operated polynomial identities (OPIs) and the built-in catalog.

An OPI is a multilinear polynomial in ordered schema variables
``x1, x2, ...``: every monomial of the body contains each variable exactly
once (at any depth).  Substituting words or polynomials for the variables
produces ordinary operated polynomials; the set of all word instances of a
family is the schema part of a generating set.

The catalog ships the bracket-pair families (``rb:1`` .. ``rb:14``,
``nijenhuis``), the bracket-of-product families (``diff:1`` .. ``diff:6``,
``diffprime``), and the derived ``averaging`` and ``reynolds`` families.
They are the rows of one table, ``_CATALOG``: each row gives a family's
item range, the order preset its leading schemas are meant for, whether
its leading monomials survive unit assignments, each item's parameters
with their defaults, the builder of its identities and its help line.
:func:`parse_catalog` resolves every selector through that table along
one path, and :func:`catalog_help` and the unknown-family error read
their family lists from it.  The bodies are rows of ``(coefficient, word
text)`` terms in the grammar :func:`opalg.terms.parse_word` reads and
``opalg catalog`` prints: the collapse maps of ``rb``, the expansion maps
of ``diff``, ``diffprime`` and the averaging laws.  The ``diff:3`` weights
and the ``reynolds`` bodies build the same text terms in code.  Each text
is parsed once.  Every entry is asserted to be a
self-complete rewriting basis (an input assumption that bounded checks
cannot establish on their own).
"""

from __future__ import annotations

import re
from collections import Counter
from dataclasses import dataclass, field
from fractions import Fraction
from functools import cache
from itertools import combinations, product
from math import prod
from typing import Callable, Mapping, Sequence, Union

from .orders import OrderSpec
from .poly import OPoly, Scalar, _wrap
from .terms import UNIT, Alphabet, Word, _compile, _splice, count_text, count_words, iter_slices, parse_integer, parse_rational, parse_word, render, var_counts, word_tuples

__all__ = [
    "MAX_EXPANSION_WORDS",
    "MAX_REYNOLDS_N",
    "OPI",
    "CatalogEntry",
    "Generator",
    "NoSubwordReport",
    "StabilityReport",
    "catalog_help",
    "check_lm_no_subword",
    "check_lm_stability",
    "expand_instances",
    "instantiate",
    "parse_catalog",
]

_IDENT_RE = re.compile(r"[A-Za-z][A-Za-z0-9_]*")


class OPI:
    """Named multilinear identity over ordered variables.  Its body is
    compiled once, on first use, into one splice plan per monomial
    (:func:`opalg.terms._compile`), and every instantiation runs through
    those plans (:meth:`instance`)."""

    __slots__ = ("name", "variables", "body", "_lm_cache", "_plan")

    def __init__(self, name: str, variables: Sequence[str], body: OPoly):
        vs = tuple(variables)
        if not vs:
            raise ValueError("an OPI needs at least one variable")
        if len(set(vs)) != len(vs):
            raise ValueError(f"duplicate variables in {vs}")
        for v in vs:
            if not _IDENT_RE.fullmatch(v):
                raise ValueError(f"bad variable name {v!r}")
        if body.is_zero():
            raise ValueError(f"OPI {name}: body is zero")
        vset = frozenset(vs)
        for m in body.support():
            counts = var_counts(m, vset)
            bad = [v for v in vs if counts.get(v, 0) != 1]
            if bad:
                raise ValueError(
                    f"OPI {name}: monomial {render(m)} is not multilinear in {','.join(bad)}"
                )
        self.name = name
        self.variables = vs
        self.body = body
        self._lm_cache: dict[str, Word] = {}
        self._plan: dict[Word, tuple] | None = None

    def _compiled(self) -> dict[Word, tuple]:
        """Body monomial -> ``(splice plan, coefficient)``, in body order,
        compiled on first use (see :func:`_compile`)."""
        plan = self._plan
        if plan is None:
            index = {v: k for k, v in enumerate(self.variables)}
            plan = self._plan = {m: (_compile(m, index), c) for m, c in self.body._terms.items()}
        return plan

    def instance(self, values: Sequence[Word]) -> OPoly:
        """The instance at word ``values``, given in variable order: every
        body monomial spliced through its compiled plan, coefficients of
        monomials that meet merged.  Nothing is validated; :func:`instantiate`
        is the checked entry.  The result may be zero."""
        acc: dict[Word, Scalar] = {}
        plans = self._compiled().values()
        for plan, c in plans:
            w = _splice(plan, values)
            prev = acc.get(w)
            acc[w] = c if prev is None else prev + c
        if len(acc) < len(plans):
            acc = {w: c for w, c in acc.items() if c}
        return _wrap(acc)

    def instance_word(self, m: Word, values: Sequence[Word]) -> Word:
        """The body monomial ``m`` at word ``values``, given in variable
        order, through the same plan as :meth:`instance`."""
        return _splice(self._compiled()[m][0], values)

    @property
    def arity(self) -> int:
        return len(self.variables)

    def order_for(self, preset: str) -> OrderSpec:
        """Order used to compare schema monomials: variables are the base."""
        return OrderSpec(preset, self.variables)

    def lm(self, preset: str) -> Word:
        """Leading schema monomial of the body under the preset."""
        got = self._lm_cache.get(preset)
        if got is None:
            got = self.body.leading_monomial(self.order_for(preset))
            self._lm_cache[preset] = got
        return got

    def __repr__(self) -> str:
        return f"OPI({self.name}: {self.body})"


def instantiate(phi: OPI, sigma: Mapping[str, Union[Word, OPoly]]) -> OPoly:
    """Substitute words or polynomials for the variables of ``phi``.

    Every variable must be assigned; the assignment is checked once.  The
    body is multilinear, so a polynomial value distributes: each choice of
    one term per value is a word assignment weighted by the product of the
    chosen coefficients, and a word value is a single assignment of weight
    1.  Each word assignment runs through the identity's compiled plan
    (:meth:`OPI.instance`, the entry every caller inside the package uses)
    and the weighted coefficients are merged in one dict.  The result may
    be zero (instances can cancel).
    """
    missing = [v for v in phi.variables if v not in sigma]
    if missing:
        raise ValueError(f"OPI {phi.name}: missing assignment for {','.join(missing)}")
    extra = [k for k in sigma if k not in phi.variables]
    if extra:
        raise ValueError(f"OPI {phi.name}: unknown variable(s) {','.join(sorted(extra))}")
    values = [sigma[v] for v in phi.variables]
    if all(isinstance(val, Word) for val in values):
        return phi.instance(values)
    choices = [((val, 1),) if isinstance(val, Word) else val._terms.items() for val in values]
    acc: dict[Word, Scalar] = {}
    for combo in product(*choices):
        weight = prod(c for _, c in combo)
        for w, c in phi.instance([w for w, _ in combo])._terms.items():
            if weight != 1:
                c = weight * c
            prev = acc.get(w)
            acc[w] = c if prev is None else prev + c
    return _wrap({w: c for w, c in acc.items() if c})


# ---------------------------------------------------------------------------
# instance enumeration


@dataclass(frozen=True, slots=True)
class Generator:
    """One expanded generator: a monic polynomial with provenance."""

    gen_id: str
    poly: OPoly
    lm: Word
    kind: str  # "concrete" | "schema" | "degenerate"


# Most words one variable may range over in expand_instances, and most
# words (and jointly bounded triples) a family audit in ``rewrite`` probes,
# each counted before any word is built.
# The pool grows exponentially with the operator budget: two letters give
# 26,089 words at (3,4), the largest pool the tests, demos and benchmark
# use, while ``nf`` under rb:6 on a 6-deep bracket word needs 67,267 (18 s
# on CPython 3.11, 2 vCPU x86).
MAX_EXPANSION_WORDS = 50_000


def _refuse_wide_pool(
    what: str, n_letters: int, max_z: int, max_op: int, arity: int = 1, unit: str = "words"
) -> None:
    """Count a pool with :func:`count_words`, before any word is built, and
    refuse one over ``MAX_EXPANSION_WORDS`` with a ``ValueError`` reading
    ``{what} {count} {unit}, over the limit of 50000``."""
    n = count_words(n_letters, max_z, max_op, arity)
    if n > MAX_EXPANSION_WORDS:
        raise ValueError(f"{what} {count_text(n)} {unit}, over the limit of {MAX_EXPANSION_WORDS}")


def expand_instances(
    opis: Sequence[OPI],
    alphabet: Alphabet,
    bounds: tuple[int, int],
    order: OrderSpec,
) -> tuple[Generator, ...]:
    """All nonzero word instances whose true leading monomial fits the
    bounds, as monic generators without duplicates, in a deterministic
    order.  An instance's id names the identity and its assignment, e.g.
    ``rb:1[x1=z1, x2=[z2]]``; its kind is ``schema`` when it leads with the
    instantiated leading schema, else ``degenerate``.

    The assignment net is sized so nothing is missed: instance z_degree is
    exact under multilinearity, and each monomial's op_degree is its schema
    op_degree plus the assignment total, so capping the total at
    ``max_op - min_schema_op`` covers every monomial that could lead.  When
    :func:`_lead_certificates` proves the leading schema above every other
    monomial under ``order`` (see there for the unit cases), the
    instantiated lead is every nonzero instance's leading word, so the
    total is capped at ``max_op - lead_op`` instead:
    the assignments this drops all lead out of bounds, and the ones kept
    come in the same order, since word pools are sorted independently of
    the bounds.  A wide net whose per-variable word pool exceeds
    ``MAX_EXPANSION_WORDS`` is refused with a ``ValueError`` before any
    word is built, whether or not the lead is certified.
    """
    max_z, max_op = bounds
    budgets = []
    for phi in opis:
        lead = phi.lm(order.preset)
        z_budget = max_z - (lead.z_degree - phi.arity)
        op_budget = max_op - min(m.op_degree for m in phi.body.support())
        if z_budget < 0 or op_budget < 0:
            continue
        what = f"expanding {phi.name} at bounds {bounds} would range each variable over"
        _refuse_wide_pool(what, len(alphabet), z_budget, op_budget)
        if not any(_lead_certificates(phi, order)[1:]):  # no violation, nothing open
            op_budget = max_op - lead.op_degree
            if op_budget < 0:
                continue
        budgets.append((phi, z_budget, op_budget))
    out: list[Generator] = []
    seen: set[OPoly] = set()
    for phi, z_budget, op_budget in budgets:
        schema_lm = phi.lm(order.preset)
        for values in word_tuples(alphabet, z_budget, op_budget, phi.arity):
            inst = phi.instance(values)
            if inst.is_zero():
                continue
            lm, lc = inst.leading(order)
            if lm.z_degree > max_z or lm.op_degree > max_op:
                continue
            monic = inst if lc == 1 else inst.scale(Fraction(1) / lc)
            if monic in seen:
                continue
            seen.add(monic)
            bindings = ", ".join(f"{v}={render(w)}" for v, w in zip(phi.variables, values))
            kind = "schema" if lm == phi.instance_word(schema_lm, values) else "degenerate"
            out.append(Generator(f"{phi.name}[{bindings}]", monic, lm, kind))
    return tuple(out)


# ---------------------------------------------------------------------------
# leading-schema checks


@dataclass(slots=True)
class NoSubwordReport:
    opi: str
    lm: str
    ok: bool
    witness: str | None = None


def check_lm_no_subword(phi: OPI, preset: str) -> NoSubwordReport:
    """Reject leading schemas with two adjacent variable factors anywhere.

    Instances of such a schema can swallow products of generator leading
    words, which is exactly what the certified route must exclude.
    """
    lm = phi.lm(preset)
    vset = frozenset(phi.variables)
    witness = next(
        (
            f"{level[i]}*{level[i + 1]}"
            for level, i, j, _ in iter_slices(lm, (2,))
            if level[i] in vset and level[i + 1] in vset
        ),
        None,
    )
    return NoSubwordReport(opi=phi.name, lm=render(lm), ok=witness is None, witness=witness)


@dataclass(slots=True)
class StabilityReport:
    """Outcome of the leading-monomial stability check.  ``enumerated`` is
    always 0 (the verdict is symbolic) and stays for the readers that count
    it."""

    opi: str
    certified: list = field(default_factory=list)  # (monomial text, reason)
    enumerated: int = 0
    violations: list = field(default_factory=list)  # (unit case, monomial text)
    undecided: list = field(default_factory=list)  # (unit case, monomial text)

    @property
    def passed(self) -> bool:
        return not self.violations and not self.undecided


def _schema_cmp(
    u: Word, v: Word, order: OrderSpec, vset: frozenset[str], nonunit: frozenset[str] = frozenset()
) -> tuple[int, str] | None:
    """``(sign, reason)`` when ``u·σ`` compares to ``v·σ`` with the same
    nonzero sign under every assignment σ of words to the variables in
    ``vset`` that sends no variable in ``nonunit`` to the unit, else None.

    Decided only where both sides carry the same multiset of variables
    (always so for two monomials of a multilinear body): then their
    z_degree and op_degree gaps do not depend on σ.  The breadth gap is a
    constant plus, per variable, its top-level count on ``u`` minus that on
    ``v`` times breadth(σ(x)), which is at least 1 for a variable in
    ``nonunit`` and at least 0 otherwise; its sign is decided when that
    range excludes 0.  With a gap of 0 under every σ the factors are walked
    in order: identical schema factors stay identical under σ, a letter
    against a bracket is settled by the order, two brackets decide exactly
    when their inner words do, and a variable at the first difference
    leaves the pair open.
    """
    if var_counts(u, vset) != var_counts(v, vset):
        return None
    if u.z_degree != v.z_degree:
        return (1 if u.z_degree > v.z_degree else -1), f"z_degree gap {abs(u.z_degree - v.z_degree)}"
    if u.op_degree != v.op_degree:
        return (1 if u.op_degree > v.op_degree else -1), f"op_degree gap {abs(u.op_degree - v.op_degree)}"
    top = Counter(f for f in u.factors if f in vset)
    top.subtract(f for f in v.factors if f in vset)
    signs = {d > 0 for d in top.values() if d}
    # the breadth gap when every top-level variable takes its least breadth
    least = u.breadth - v.breadth - sum(d for x, d in top.items() if x not in nonunit)
    if least and signs <= {least > 0}:
        wider = 1 if least > 0 else -1
        reason = f"breadth gap at least {abs(least)}" if signs else f"constant breadth {u.breadth} vs {v.breadth}"
        return (wider if order.preset == "db" else -wider), reason
    if signs:
        return None
    # equal breadth and equal top-level variables: neither side is a prefix
    for i, (f, g) in enumerate(zip(u.factors, v.factors), 1):
        if f == g:
            continue
        if f in vset or g in vset:
            return None
        if isinstance(f, str) or isinstance(g, str):
            return order._factor_cmp(f, g), f"{render(Word((f,)))} vs {render(Word((g,)))} at factor {i}"
        got = _schema_cmp(f, g, order, vset, nonunit)
        if got is None:
            return None
        return got[0], f"{got[1]} inside factor {i}"
    return None


def _lead_certificates(
    phi: OPI, order: OrderSpec, include_units: bool = True
) -> tuple[list[tuple[Word, str]], list[tuple[str, Word]], list[tuple[str, Word]]]:
    """``(certified, violations, undecided)``: whether every nonzero instance
    of ``phi`` leads with the instantiated leading schema.

    When :func:`_schema_cmp` proves every other monomial below the lead
    under every assignment, each is certified with its reason.  Otherwise
    each variable is split into two cases, σ(x) = 1 or σ(x) ≠ 1 (only the
    case without units when ``include_units`` is false), and each case
    substitutes its units with :meth:`OPI.instance`, merging coefficients.
    A case whose body vanishes holds.  A case whose lead cancels, or where
    a monomial is proved above the lead, is a violation naming the lead or
    that monomial.  Otherwise the lead is compared with each remaining
    monomial knowing the other variables are not units; a pair left open
    is undecided.  Entries from a split name their case, e.g. ``x1=1``.
    """
    lm = phi.lm(order.preset)
    vset = frozenset(phi.variables)
    verdicts = [(m, _schema_cmp(lm, m, order, vset)) for m in phi.body.support() if m != lm]
    if all(got and got[0] > 0 for _, got in verdicts):
        return [(m, got[1]) for m, got in verdicts], [], []
    certified: list[tuple[Word, str]] = []
    violations: list[tuple[str, Word]] = []
    undecided: list[tuple[str, Word]] = []
    for k in range(phi.arity + 1 if include_units else 1):
        for units in combinations(phi.variables, k):
            case = ", ".join(f"{x}=1" for x in units) or "no unit"
            values = [UNIT if x in units else Word((x,)) for x in phi.variables]
            body = phi.instance(values)
            if body.is_zero():
                continue
            lead = phi.instance_word(lm, values)
            nonunit = vset.difference(units)
            verdicts = [(m, _schema_cmp(lead, m, order, vset, nonunit)) for m in body.support() if m != lead]
            above = [m for m, got in verdicts if got and got[0] < 0]
            if above or not body.coeff(lead):
                violations.append((case, above[0] if above else lead))
                continue
            undecided += [(case, m) for m, got in verdicts if got is None]
            certified += [(m, f"{case}: {got[1]}") for m, got in verdicts if got]
    return certified, violations, undecided


def check_lm_stability(phi: OPI, order: OrderSpec, include_units: bool = True) -> StabilityReport:
    """Whether every nonzero instance leads with the instantiated leading
    schema, decided by :func:`_lead_certificates` at every bound at once;
    ``include_units=False`` asks only about assignments without units."""
    certified, violations, undecided = _lead_certificates(phi, order, include_units)
    return StabilityReport(
        opi=phi.name,
        certified=[(render(m), reason) for m, reason in certified],
        violations=[(case, render(m)) for case, m in violations],
        undecided=[(case, render(m)) for case, m in undecided],
    )


# ---------------------------------------------------------------------------
# catalog


@dataclass(frozen=True)
class CatalogEntry:
    """A resolved catalog selector: OPIs plus their order metadata."""

    key: str
    family: str
    opis: tuple[OPI, ...]
    preset: str
    params: tuple[tuple[str, Fraction], ...]
    asserted_gs: bool
    units_stable: bool


# Each body term is ``(coefficient, word text)`` in the package's own word
# grammar, parsed once by ``_word``.  A coefficient is an int or the name of
# a selector parameter; ``-name`` negates it.
_Terms = Sequence[tuple[Union[int, str], str]]

_XY = ("x1", "x2")

# rb:k is ``[x1]*[x2] - [B]`` for the collapse map B of item k, after Zheng,
# Gao, Guo and Sit, "Rota-Baxter type operators, rewriting systems and
# Groebner-Shirshov bases".
_RB_COLLAPSE: dict[int, _Terms] = {
    1: ((1, "x1*[x2]"),),
    2: ((1, "[x1]*x2"),),
    3: ((1, "x1*[x2]"), (1, "x2*[x1]")),
    4: ((1, "[x1]*x2"), (1, "[x2]*x1")),
    5: ((1, "x1*[x2]"), (1, "[x1]*x2"), (-1, "[x1*x2]")),
    6: ((1, "x1*[x2]"), (1, "[x1]*x2"), ("lambda", "x1*x2")),
    7: ((1, "x1*[x2]"), (-1, "x1*[1]*x2"), ("lambda", "x1*x2")),
    8: ((1, "[x1]*x2"), (-1, "x1*[1]*x2"), ("lambda", "x1*x2")),
    9: ((1, "x1*[x2]"), (1, "[x1]*x2"), (-1, "x1*[1]*x2"), ("lambda", "x1*x2")),
    10: ((1, "x1*[x2]"), (1, "[x1]*x2"), (-1, "x1*x2*[1]"), (-1, "x1*[1]*x2"), ("lambda", "x1*x2")),
    11: ((1, "x1*[x2]"), (1, "[x1]*x2"), (-1, "x1*[1]*x2"), (-1, "[x1*x2]"), ("lambda", "x1*x2")),
    12: ((1, "x1*[x2]"), (1, "[x1]*x2"), (-1, "x1*[1]*x2"), (-1, "[1]*x1*x2"), ("lambda", "x1*x2")),
    13: (("c", "x1*[1]*x2"), ("lambda", "x1*x2")),
    14: (("c", "x2*[1]*x1"), ("lambda", "x2*x1")),
}

# diff:k is ``[x1*x2] - N`` for the expansion map N of item k, after Guo, Sit
# and Zhang, "Differential type operators and Groebner-Shirshov bases"; the
# terms of diff:3 come from its weights (``_diff3_expansion``).
_DIFF_EXPANSION: dict[int, _Terms] = {
    1: (("a", "x1*[x2]"), ("a", "[x1]*x2"), ("b", "[x1]*[x2]"), ("c", "x1*x2")),
    # a*b^2 x2*x1, a [x2]*[x1], -a*b x2*[x1] and -a*b [x2]*x1 vanish: a != 0 is refused
    2: (("b", "x1*x2"),),
    4: ((1, "x1*[x2]"), (1, "[x1]*x2"), ("a", "x1*[1]*x2"), ("b", "x1*x2")),
    5: ((1, "[x1]*x2"), ("a", "x1*[1]*x2"), ("-a", "x1*x2*[1]")),
    6: ((1, "x1*[x2]"), ("a", "x1*[1]*x2"), ("-a", "[1]*x1*x2")),
}
# the parameter of diff:k that weighs a bracket-pair term, refused unless 0
_DIFF_BRACKET_PAIR = {1: "b", 2: "a"}

_DIFFPRIME = ((1, "[x1]"), ("-c", "x1"))

_AVERAGING: tuple[tuple[str, _Terms], ...] = (
    ("averaging:A", ((1, "[[x1]*x2]"), (-1, "[x1]*[x2]"))),
    ("averaging:B", ((1, "[x1*[x2]]"), (-1, "[x1]*[x2]"))),
    ("averaging:C", ((1, "[[x1]]*[x2]"), (-1, "[x1]*[[x2]]"))),
)


@cache
def _word(text: str) -> Word:
    return parse_word(text)


def _body(terms: _Terms, params: Mapping[str, Fraction]) -> OPoly:
    """The polynomial of ``terms``, in their order, at ``params``."""
    out = []
    for c, text in terms:
        if isinstance(c, str):
            c = -params[c[1:]] if c[0] == "-" else params[c]
        out.append((_word(text), c))
    return OPoly(out)


def _rb_opis(name: str, item: int, params: Mapping[str, Fraction]) -> tuple[OPI, ...]:
    collapse = _body(_RB_COLLAPSE[item], params).apply_bracket()
    return (OPI(name, _XY, OPoly.from_word(_word("[x1]*[x2]")) - collapse),)


def _diff3_expansion(params: Mapping[str, Fraction]) -> _Terms:
    # each weight lIJ puts I unit brackets before x1*x2 and J after
    terms = []
    for k, v in params.items():
        i, j = int(k[1]), int(k[2])
        if v and i + j > 1:
            raise ValueError(
                f"diff:3 weight {k}={v} is not supported by preset dt: "
                "two or more unit brackets outrank the bracket of the product"
            )
        terms.append((k, "*".join(["[1]"] * i + ["x1", "x2"] + ["[1]"] * j)))
    if not any(params.values()):
        raise ValueError("diff:3: all weights vanish")
    return terms


def _diff_opis(name: str, item: int, params: Mapping[str, Fraction]) -> tuple[OPI, ...]:
    if item == 1:
        a, b, c = params["a"], params["b"], params["c"]
        if a * a != a + b * c:
            raise ValueError(f"diff:1 needs a^2 = a + b*c; got a={a}, b={b}, c={c}")
    k = _DIFF_BRACKET_PAIR.get(item)
    if k and params[k]:
        raise ValueError(
            f"{name} with {k} != 0 is not supported by preset dt: "
            "the bracket-pair term would outrank the bracket of the product"
        )
    expansion = _diff3_expansion(params) if item == 3 else _DIFF_EXPANSION[item]
    return (OPI(name, _XY, OPoly.from_word(_word("[x1*x2]")) - _body(expansion, params)),)


def _reynolds_opi(n: int) -> OPI:
    vs = [f"x{i}" for i in range(1, n + 1)]
    wrapped = [f"[{v}]" for v in vs]
    terms = [(1, f"[{'*'.join(wrapped)}]"), (1, "*".join(wrapped))]
    terms += [(-1, f"[{'*'.join(wrapped[:i] + vs[i : i + 1] + wrapped[i + 1 :])}]") for i in range(n)]
    return OPI(f"reynolds:{n}", vs, _body(terms, {}))


# Largest n a ``reynolds?n=`` selector may ask for.  reynolds:k has no
# instance below operator bound k, and check-gs on reynolds?n=12 at (0,12)
# already takes 13 s (CPython 3.11, 2 vCPU x86); n=300 took 17 s at (1,1).
MAX_REYNOLDS_N = 32


def _reynolds_opis(name: str, item: int, params: Mapping[str, Fraction]) -> tuple[OPI, ...]:
    n = params["n"]
    if n.denominator != 1 or n < 2:
        raise ValueError(f"reynolds needs integer n >= 2, got {n}")
    if n > MAX_REYNOLDS_N:
        raise ValueError(f"reynolds n={n} is over the limit of {MAX_REYNOLDS_N}")
    return tuple(_reynolds_opi(k) for k in range(2, int(n) + 1))


@dataclass(frozen=True)
class _Family:
    """One row of the catalog table.  ``defaults(item)`` gives an item's
    parameters with their default values, or None for an item that takes
    ``lIJ`` weights instead (``l00=1`` when none is given); ``build(name,
    item, params)`` makes the identities from the merged parameters."""

    items: int  # largest item number; 0 when the family takes no item
    preset: str
    units_stable: bool  # whether every leading monomial survives unit assignments
    defaults: Callable[[int], dict[str, Fraction] | None]
    build: Callable[[str, int, dict[str, Fraction]], tuple[OPI, ...]]
    help: str


_CATALOG = {
    "rb": _Family(
        items=14,
        preset="db",
        units_stable=True,
        defaults=lambda item: (
            {} if item <= 5 else {"lambda": Fraction(0)} if item <= 12 else {"lambda": Fraction(0), "c": Fraction(1)}
        ),
        build=_rb_opis,
        help="bracket-pair collapse; optional lambda, c on 13/14",
    ),
    "nijenhuis": _Family(
        items=0,
        preset="db",
        units_stable=True,
        defaults=lambda _: {},
        build=lambda name, _, params: _rb_opis(name, 5, params),
        help="alias of rb:5",
    ),
    "diff": _Family(
        items=6,
        preset="dt",
        # the leading monomial shifts at unit assignments; those instances
        # join as degenerate rules
        units_stable=False,
        defaults={
            1: {"a": Fraction(1), "b": Fraction(0), "c": Fraction(0)},
            2: {"a": Fraction(0), "b": Fraction(1)},
            3: None,
            4: {"a": Fraction(0), "b": Fraction(0)},
            5: {"a": Fraction(1)},
            6: {"a": Fraction(1)},
        }.__getitem__,
        build=_diff_opis,
        help="bracket-of-product expansion; item parameters apply",
    ),
    "diffprime": _Family(
        items=0,
        preset="dt",
        units_stable=True,
        defaults=lambda _: {"c": Fraction(1)},
        build=lambda name, _, params: (OPI(name, ("x1",), _body(_DIFFPRIME, params)),),
        help="single-variable bracket collapse; parameter c",
    ),
    "averaging": _Family(
        items=0,
        preset="dt",
        units_stable=True,
        defaults=lambda _: {},
        build=lambda _, __, params: tuple(OPI(n, _XY, _body(t, params)) for n, t in _AVERAGING),
        help="three derived identities",
    ),
    "reynolds": _Family(
        items=0,
        preset="dt",
        units_stable=True,
        defaults=lambda _: {"n": Fraction(4)},
        build=_reynolds_opis,
        help="nested family; parameter n >= 2",
    ),
}


def _label(name: str) -> str:
    items = _CATALOG[name].items
    return f"{name}:1..{items}" if items else name


def parse_catalog(selector: str) -> CatalogEntry:
    """Resolve a catalog selector like ``rb:6?lambda=1`` or ``reynolds?n=4``.

    Parameters are exact rationals, each given at most once; the ones not
    given take the item's defaults, and the key and ``params`` name them
    all.  Selectors that ask for parameter ranges the declared preset
    cannot order are refused with an explanation rather than silently
    producing a broken rule.
    """
    text = selector.strip()
    fam_text, _, param_text = text.partition("?")
    params: dict[str, Fraction] = {}
    if param_text:
        for chunk in param_text.split(","):
            k, sep, v = chunk.partition("=")
            k = k.strip()
            if not sep:
                raise ValueError(f"bad parameter {chunk!r} in selector {selector!r} (want key=value)")
            if not k:
                raise ValueError(f"bad parameter {chunk!r} in selector {selector!r} (empty parameter name)")
            if k in params:
                raise ValueError(f"selector {selector!r}: parameter {k} is given twice")
            try:
                params[k] = parse_rational(v)
            except ValueError as exc:
                raise ValueError(f"bad parameter value {v.strip()!r} in selector {selector!r}: {exc}") from None

    fam, colon, item_text = fam_text.strip().partition(":")
    fam = fam.strip()
    family = _CATALOG.get(fam)
    if family is None:
        names = ", ".join(map(_label, _CATALOG))
        raise ValueError(f"unknown catalog family {fam!r} in selector {selector!r}; families: {names}")
    item = 0
    if not family.items:
        if colon:
            raise ValueError(f"selector {selector!r} does not take an item number")
    elif not item_text:
        raise ValueError(f"selector {selector!r} needs an item number 1..{family.items}")
    else:
        try:
            item = parse_integer(item_text)
        except ValueError as exc:
            raise ValueError(f"bad item {item_text!r} in selector {selector!r}: {exc}") from None
        if not 1 <= item <= family.items:
            raise ValueError(f"item {item} out of range 1..{family.items} in selector {selector!r}")
    name = f"{fam}:{item}" if item else fam

    defaults = family.defaults(item)
    if defaults is None:
        bad = [k for k in params if not re.fullmatch(r"l[0-9]{2}", k)]
        if bad:
            raise ValueError(f"selector {selector!r}: {name} takes weights lIJ only, got {','.join(sorted(bad))}")
        merged = params or {"l00": Fraction(1)}
    else:
        bad = [k for k in params if k not in defaults]
        if bad:
            raise ValueError(
                f"selector {selector!r}: unknown parameter(s) {','.join(sorted(bad))}"
                f" (allowed: {','.join(sorted(defaults)) or 'none'})"
            )
        merged = {**defaults, **params}
    pairs = tuple(sorted(merged.items()))
    shown = ",".join(f"{k}={v}" for k, v in pairs)
    return CatalogEntry(
        key=f"{name}?{shown}" if shown else name,
        family=fam,
        opis=family.build(name, item, merged),
        preset=family.preset,
        params=pairs,
        asserted_gs=True,
        units_stable=family.units_stable,
    )


def catalog_help() -> str:
    return "catalog families:\n" + "\n".join(f"  {_label(name)} ({f.help})" for name, f in _CATALOG.items())
