"""Test helpers: word and context samplers, a reduction strategy that
picks its monomial and position at random, an order-axiom audit, and the
operator-degree gap that widens a stratum's rule scope.

None of this is on a product path.  The samplers feed the hypothesis
strategies and the seeded sweeps; the random strategy, the audit and the
widened rule scope are the independent routes the tests check the engine
against.
"""

import random
from functools import cmp_to_key

from opalg import OPoly, ReductionResult, RuleSet
from opalg.orders import EQ, GT, LT
from opalg.rewrite import TraceStep, _reduce_at
from opalg.terms import HOLE, Context, Word, bracket, render


def random_word(rng, alphabet, max_z, max_op):
    """Sample a word within the measure budget; may return the unit."""
    letters = tuple(alphabet)
    factors = []
    z_left, op_left = max_z, max_op
    while (z_left > 0 or op_left > 0) and rng.random() < 0.6:
        if op_left > 0 and (z_left == 0 or rng.random() < 0.35):
            inner = random_word(rng, letters, z_left, op_left - 1)
            factors.append(inner)
            z_left -= inner.z_degree
            op_left -= inner.op_degree + 1
        else:
            factors.append(letters[rng.randrange(len(letters))])
            z_left -= 1
    return Word(factors)


def all_hole_insertions(w):
    """Every context obtained by inserting a hole into ``w`` at any depth."""
    out = []
    fs = w.factors
    for i in range(len(fs) + 1):
        out.append(Context(Word(fs[:i] + (HOLE,) + fs[i:])))
    for j, f in enumerate(fs):
        if isinstance(f, Word):
            for q in all_hole_insertions(f):
                out.append(Context(Word(fs[:j] + (q.word,) + fs[j + 1 :])))
    return out


def random_context(rng, alphabet, max_z, max_op, *, nontrivial=False):
    w = random_word(rng, alphabet, max_z, max_op)
    slots = all_hole_insertions(w)
    if nontrivial:
        slots = [q for q in slots if not q.is_trivial()]
        if not slots:
            # empty word only offers the bare hole; force one wrapper
            return Context(bracket(Word((HOLE,))))
    return slots[rng.randrange(len(slots))]


def normal_form_random(f: OPoly, rules: RuleSet, fuel: int, rng: random.Random) -> ReductionResult:
    """Like ``normal_form``, but the reducible monomial and the position are
    chosen by ``rng``; at a position the first rule in declared priority
    applies, so wherever the system is confluent per word both compute the
    same normal form.  Steps go through ``normal_form``'s own step
    function, so the descent check is the engine's."""
    steps = []
    acc = dict(f._terms)
    order = rules.order
    for k in range(fuel):
        choices = []
        for w, _ in OPoly(acc).items(order):
            pos, seen = [], set()
            for rdx in rules.iter_redexes(w):
                if rdx.context.word not in seen:
                    seen.add(rdx.context.word)
                    pos.append(rdx)
            if pos:
                choices.append((w, pos))
        if not choices:
            return ReductionResult(OPoly(acc), tuple(steps), False)
        w, pos = choices[rng.randrange(len(choices))]
        rdx = pos[rng.randrange(len(pos))]
        c = _reduce_at(acc, w, rdx, order)
        steps.append(TraceStep(k, rdx.rule_id, rdx.context, rdx.sigma, c, w))
    exhausted = any(rules.find_redex(w) is not None for w in acc)
    return ReductionResult(OPoly(acc), tuple(steps), exhausted)


def op_gap(gens) -> int:
    """The largest op_degree gap, over the identities of ``gens``, between
    an identity's leading schema and its lowest monomial.  A rule set
    compiled at a stratum's operator bound plus this gap also holds the
    instances whose lowest monomial fits the stratum but whose lead does
    not: the wide scope the stratum's own rule set is checked against."""
    preset = gens.order.preset
    return max(
        (phi.lm(preset).op_degree - min(m.op_degree for m in phi.body.support()) for phi in gens.opis),
        default=0,
    )


def check_order_axioms(order, alphabet, bounds, trials, seed=0):
    """Randomized check of total-order and rewriting-order axioms; returns
    the violations found, as ``(kind, detail)`` pairs.

    ``order`` is anything with ``compare(u, v) -> int``; sampled words stay
    within ``bounds = (max_z, max_op)``.  Checks per trial: comparability
    with antisymmetry, equality-iff-structural, transitivity on a word
    triple, compatibility with a random context, and strict growth under a
    nontrivial context (the well-order probe that catches orders where
    plugging can descend).
    """
    letters = tuple(alphabet)
    max_z, max_op = bounds
    rng = random.Random(seed)
    violations = []
    for _ in range(trials):
        u = random_word(rng, letters, max_z, max_op)
        v = random_word(rng, letters, max_z, max_op)
        w = random_word(rng, letters, max_z, max_op)

        cuv = order.compare(u, v)
        cvu = order.compare(v, u)
        if cuv != -cvu or cuv not in (LT, EQ, GT):
            violations.append(("antisymmetry", f"compare({render(u)}, {render(v)}) = {cuv}, reversed {cvu}"))

        if (cuv == EQ) != (u == v):
            violations.append(
                ("equality", f"compare({render(u)}, {render(v)}) = {cuv} but structural equality is {u == v}")
            )
        if order.compare(u, u) != EQ:
            violations.append(("equality", f"compare({render(u)}, {render(u)}) != 0"))

        trip = sorted([u, v, w], key=cmp_to_key(order.compare))
        if order.compare(trip[0], trip[2]) > 0:
            violations.append(
                (
                    "transitivity",
                    f"{render(trip[0])} <= {render(trip[1])} <= {render(trip[2])} yet the ends compare GT",
                )
            )

        q = random_context(rng, letters, max_z, max_op)
        if cuv != 0:
            lo, hi = (u, v) if cuv < 0 else (v, u)
            if order.compare(q.plug(lo), q.plug(hi)) >= 0:
                violations.append(
                    (
                        "context-compatibility",
                        f"{render(lo)} < {render(hi)} but q = {q} gives "
                        f"{render(q.plug(lo))} vs {render(q.plug(hi))} not LT",
                    )
                )

        qn = random_context(rng, letters, max_z, max_op, nontrivial=True)
        if order.compare(qn.plug(u), u) <= 0:
            violations.append(("context-growth", f"q = {qn} does not raise {render(u)}: got {render(qn.plug(u))}"))
    return violations
