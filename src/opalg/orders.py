"""Monomial orders on bracketed words, and a randomized axiom checker.

Two presets:

* ``db``: z_degree, then op_degree, then breadth ascending, then a
  factor-by-factor comparison (letters below brackets, letters by base
  rank, brackets by full recursive comparison of their inners).
* ``dt``: same keys with breadth descending.

Both are context-compatible.  On bracket-free words they coincide with
the classical degree-lexicographic order.

``db``/``dt`` are well-ordered on words over a finite alphabet: breadth
never exceeds z_degree + op_degree, so each (z, op) stratum is finite and
the first two keys descend through finitely many strata.

Letters outside the declared base rank after every declared letter, in
name order.  Schema variables therefore compare consistently without
being declared.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from functools import cmp_to_key
from typing import Iterable, Sequence

from .terms import Alphabet, Word, random_context, random_word, render

__all__ = ["LT", "EQ", "GT", "PRESETS", "OrderSpec", "OrderAxiomReport", "check_order_axioms"]

LT, EQ, GT = -1, 0, 1

PRESETS = ("db", "dt")


@dataclass(frozen=True)
class OrderSpec:
    """A named preset plus the base order on letters (ascending)."""

    preset: str
    base: tuple[str, ...]

    def __post_init__(self):
        if self.preset not in PRESETS:
            raise ValueError(f"unknown order preset {self.preset!r} (choose from {', '.join(PRESETS)})")
        object.__setattr__(self, "base", tuple(self.base))
        object.__setattr__(self, "_rank", {name: i for i, name in enumerate(self.base)})

    @classmethod
    def for_alphabet(cls, preset: str, alphabet: Alphabet | Sequence[str]) -> "OrderSpec":
        base = alphabet.letters if isinstance(alphabet, Alphabet) else tuple(alphabet)
        return cls(preset, base)

    # -- comparisons -----------------------------------------------------

    def _letter_cmp(self, a: str, b: str) -> int:
        if a == b:
            return EQ
        rank = self._rank
        ra = rank.get(a)
        rb = rank.get(b)
        if ra is None and rb is None:
            return LT if a < b else GT
        if ra is None:
            return GT  # undeclared letters rank above every declared one
        if rb is None:
            return LT
        return LT if ra < rb else GT

    def _factor_cmp(self, f, g) -> int:
        fl = isinstance(f, str)
        gl = isinstance(g, str)
        if fl and gl:
            return self._letter_cmp(f, g)
        if fl:
            return LT  # letter below bracket
        if gl:
            return GT
        return self.compare(f.inner, g.inner)

    def compare(self, u: Word, v: Word) -> int:
        """-1, 0, or 1; zero exactly on structural equality (interned
        words are equal exactly when identical)."""
        if u is v:
            return EQ
        if u.z_degree != v.z_degree:
            return LT if u.z_degree < v.z_degree else GT
        if u.op_degree != v.op_degree:
            return LT if u.op_degree < v.op_degree else GT
        bu, bv = u.breadth, v.breadth
        if bu != bv:
            if self.preset == "db":
                return LT if bu < bv else GT
            return GT if bu < bv else LT  # dt: smaller breadth is greater
        # equal breadth: the factor walk ends on a difference or on equality
        for f, g in zip(u.factors, v.factors):
            c = self._factor_cmp(f, g)
            if c:
                return c
        return EQ

    def max(self, words: Iterable[Word]) -> Word:
        best = None
        for w in words:
            if best is None or self.compare(w, best) > 0:
                best = w
        if best is None:
            raise ValueError("max of empty iterable")
        return best

    def describe(self) -> str:
        return f"{self.preset}(base {'<'.join(self.base)})"


@dataclass
class OrderAxiomReport:
    """Outcome of randomized order-axiom checking."""

    preset: str
    trials: int
    seed: int
    checked: dict = field(default_factory=dict)
    violations: list = field(default_factory=list)

    @property
    def passed(self) -> bool:
        return not self.violations

    def to_text(self) -> str:
        lines = [f"order axioms [{self.preset}]: {self.trials} trials, seed {self.seed}"]
        for name, count in sorted(self.checked.items()):
            lines.append(f"  {name}: {count} checks")
        if self.violations:
            for kind, detail in self.violations:
                lines.append(f"  VIOLATION {kind}: {detail}")
            lines.append("  FAILED")
        else:
            lines.append("  ok")
        return "\n".join(lines)


_MAX_REPORTED = 10


def check_order_axioms(
    order,
    alphabet: Alphabet | Sequence[str],
    bounds: tuple[int, int],
    trials: int,
    seed: int = 0,
) -> OrderAxiomReport:
    """Randomized check of total-order and rewriting-order axioms.

    ``order`` is anything with ``compare(u, v) -> int``; sampled words stay
    within ``bounds = (max_z, max_op)``.  Checks per trial: comparability
    with antisymmetry, equality-iff-structural, transitivity on a word
    triple, compatibility with a random context, and strict growth under a
    nontrivial context (the well-order probe that catches orders where
    plugging can descend).
    """
    letters = tuple(alphabet.letters if isinstance(alphabet, Alphabet) else alphabet)
    max_z, max_op = bounds
    rng = random.Random(seed)
    preset = getattr(order, "preset", type(order).__name__)
    rep = OrderAxiomReport(preset=preset, trials=trials, seed=seed)
    counts = {
        "antisymmetry": 0,
        "equality": 0,
        "transitivity": 0,
        "context-compatibility": 0,
        "context-growth": 0,
    }

    def note(kind: str, detail: str) -> None:
        if len(rep.violations) < _MAX_REPORTED:
            rep.violations.append((kind, detail))

    for _ in range(trials):
        u = random_word(rng, letters, max_z, max_op)
        v = random_word(rng, letters, max_z, max_op)
        w = random_word(rng, letters, max_z, max_op)

        cuv = order.compare(u, v)
        cvu = order.compare(v, u)
        counts["antisymmetry"] += 1
        if cuv != -cvu or cuv not in (LT, EQ, GT):
            note("antisymmetry", f"compare({render(u)}, {render(v)}) = {cuv}, reversed {cvu}")

        counts["equality"] += 1
        if (cuv == EQ) != (u == v):
            note("equality", f"compare({render(u)}, {render(v)}) = {cuv} but structural equality is {u == v}")
        if order.compare(u, u) != EQ:
            note("equality", f"compare({render(u)}, {render(u)}) != 0")

        counts["transitivity"] += 1
        trip = [u, v, w]
        trip.sort(key=cmp_to_key(order.compare))
        if order.compare(trip[0], trip[2]) > 0:
            note(
                "transitivity",
                f"{render(trip[0])} <= {render(trip[1])} <= {render(trip[2])} yet the ends compare GT",
            )

        q = random_context(rng, letters, max_z, max_op)
        counts["context-compatibility"] += 1
        if cuv != 0:
            lo, hi = (u, v) if cuv < 0 else (v, u)
            if order.compare(q.plug(lo), q.plug(hi)) >= 0:
                note(
                    "context-compatibility",
                    f"{render(lo)} < {render(hi)} but q = {q} gives "
                    f"{render(q.plug(lo))} vs {render(q.plug(hi))} not LT",
                )

        qn = random_context(rng, letters, max_z, max_op, nontrivial=True)
        counts["context-growth"] += 1
        if order.compare(qn.plug(u), u) <= 0:
            note("context-growth", f"q = {qn} does not raise {render(u)}: got {render(qn.plug(u))}")

    rep.checked = counts
    return rep
