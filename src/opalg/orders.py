"""Monomial orders on bracketed words.

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

from dataclasses import dataclass
from typing import Iterable

from .terms import Word

__all__ = ["LT", "EQ", "GT", "PRESETS", "OrderSpec"]

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
        object.__setattr__(self, "_db", self.preset == "db")

    @classmethod
    def for_alphabet(cls, preset: str, alphabet: Iterable[str]) -> "OrderSpec":
        return cls(preset, tuple(alphabet))

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
        return self.compare(f, g)

    def compare(self, u: Word, v: Word) -> int:
        """-1, 0, or 1; zero exactly on structural equality (interned
        words are equal exactly when identical)."""
        if u is v:
            return EQ
        if u.z_degree != v.z_degree:
            return LT if u.z_degree < v.z_degree else GT
        if u.op_degree != v.op_degree:
            return LT if u.op_degree < v.op_degree else GT
        fu, fv = u.factors, v.factors
        bu, bv = len(fu), len(fv)
        if bu != bv:
            if self._db:
                return LT if bu < bv else GT
            return GT if bu < bv else LT  # dt: smaller breadth is greater
        # equal breadth: the factor walk ends on a difference or on equality;
        # interned bracket factors differ exactly when they are not identical
        for f, g in zip(fu, fv):
            if f is g:
                continue
            if f.__class__ is Word:
                return self.compare(f, g) if g.__class__ is Word else GT
            if g.__class__ is Word:
                return LT  # letter below bracket
            c = self._letter_cmp(f, g)
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
