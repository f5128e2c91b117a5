"""Shared fixtures and hypothesis strategies.

Word and polynomial strategies are seeded through the random samplers
of ``reference``: hypothesis shrinks the seed, the sampler keeps the
measure budgets.  Less pretty than a fully native strategy but every
generated value is guaranteed in-bounds.
"""

import random
from fractions import Fraction

import pytest
from hypothesis import settings
from hypothesis import strategies as st

from opalg import Alphabet, OPoly, OrderSpec
from opalg.terms import Bracket, Word
from reference import random_word

settings.register_profile("suite", max_examples=60, deadline=None, derandomize=True)
settings.load_profile("suite")

Z12 = Alphabet(("z1", "z2"))
Z1 = Alphabet(("z",))

# every catalog family with its parameter variants: 33 selectors
CATALOG_SELECTORS = [f"rb:{i}" for i in range(1, 6)]
CATALOG_SELECTORS += [f"rb:{i}?lambda={v}" for i in range(6, 15) for v in (0, 1)]
CATALOG_SELECTORS += ["nijenhuis", "diff:1", "diff:2", "diff:3", "diff:4", "diff:5", "diff:6"]
CATALOG_SELECTORS += ["diffprime?c=1", "averaging", "reynolds?n=4"]


@pytest.fixture(scope="session")
def z12():
    return Z12


@pytest.fixture(scope="session")
def z1():
    return Z1


@pytest.fixture(scope="session")
def db12():
    return OrderSpec.for_alphabet("db", Z12)


@pytest.fixture(scope="session")
def dt12():
    return OrderSpec.for_alphabet("dt", Z12)


@pytest.fixture(scope="session")
def db1():
    return OrderSpec.for_alphabet("db", Z1)


@pytest.fixture(scope="session")
def dt1():
    return OrderSpec.for_alphabet("dt", Z1)


class ReferenceOrder:
    """``OrderSpec.compare`` as it was while a third preset, ``deglex``,
    existed: the reference for the db/dt comparator and the classical
    degree-lexicographic order for bracket-free checks.  ``deglex`` grades
    by z_degree, then walks the factors (letters below brackets, letters by
    base rank, brackets by their inner words), then puts the shorter prefix
    first; it is context-compatible only on bracket-free words.  db and dt
    grade by z_degree, op_degree and breadth (ascending, descending) before
    the same walk."""

    def __init__(self, preset, alphabet):
        self.preset = preset
        self._rank = {name: i for i, name in enumerate(alphabet.letters)}

    def _letter_cmp(self, a, b):
        if a == b:
            return 0
        ra, rb = self._rank.get(a), self._rank.get(b)
        if ra is None and rb is None:
            return -1 if a < b else 1
        if ra is None:
            return 1
        if rb is None:
            return -1
        return -1 if ra < rb else 1

    def _factor_cmp(self, f, g):
        fl, gl = isinstance(f, str), isinstance(g, str)
        if fl and gl:
            return self._letter_cmp(f, g)
        if fl:
            return -1
        if gl:
            return 1
        return self.compare(f.inner, g.inner)

    def _lex(self, fs, gs):
        for f, g in zip(fs, gs):
            c = self._factor_cmp(f, g)
            if c:
                return c
        if len(fs) == len(gs):
            return 0
        return -1 if len(fs) < len(gs) else 1

    def compare(self, u, v):
        if u is v:
            return 0
        if self.preset == "deglex":
            if u.z_degree != v.z_degree:
                return -1 if u.z_degree < v.z_degree else 1
            return self._lex(u.factors, v.factors)
        if u.z_degree != v.z_degree:
            return -1 if u.z_degree < v.z_degree else 1
        if u.op_degree != v.op_degree:
            return -1 if u.op_degree < v.op_degree else 1
        bu, bv = u.breadth, v.breadth
        if bu != bv:
            if self.preset == "db":
                return -1 if bu < bv else 1
            return 1 if bu < bv else -1
        return self._lex(u.factors, v.factors)


def owords(alphabet=Z12, max_z=3, max_op=2):
    """Strategy for words within the given measure budget."""
    return st.integers(0, 2**32 - 1).map(
        lambda s: random_word(random.Random(s), alphabet, max_z, max_op)
    )


_COEFFS = st.sampled_from(
    [Fraction(1), Fraction(-1), Fraction(2), Fraction(-3), Fraction(1, 2), Fraction(-2, 3)]
)


def opolys(alphabet=Z12, max_z=3, max_op=2, max_terms=4):
    """Strategy for polynomials; may generate zero through cancellation."""

    def build(pairs):
        f = OPoly.zero()
        for seed, c in pairs:
            w = random_word(random.Random(seed), alphabet, max_z, max_op)
            f = f + OPoly.from_word(w, c)
        return f

    return st.lists(
        st.tuples(st.integers(0, 2**32 - 1), _COEFFS), min_size=0, max_size=max_terms
    ).map(build)


def nonzero_opolys(alphabet=Z12, max_z=3, max_op=2, max_terms=4):
    return opolys(alphabet, max_z, max_op, max_terms).filter(lambda f: not f.is_zero())


def instantiate_word(schema, sigma, variables):
    """Plug word values into a schema word: the recursive splice that
    instantiation used before identities compiled their plans, kept as the
    reference for them."""
    out = []
    for f in schema.factors:
        if isinstance(f, str) and f in variables:
            out.extend(sigma[f].factors)
        elif isinstance(f, str):
            out.append(f)
        else:
            out.append(Bracket(instantiate_word(f.inner, sigma, variables)))
    return Word(out)
