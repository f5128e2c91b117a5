"""Operated polynomials: rational linear combinations of bracketed words.

Coefficients are exact rationals: ``int`` when integral, ``Fraction``
otherwise.  :func:`_coefficient` applies that rule wherever a coefficient
enters (construction and scaling), so the integral identities of the
catalog compute with plain ints and never pay for rational arithmetic.  A
sum or product of non-integral coefficients may still come out as an
integral ``Fraction`` such as ``1/2 + 1/2``; it is equal to its ``int``,
hashes the same and prints the same, so it is left as it is.  There is no
floating point anywhere in the arithmetic: floats and strings are refused.
The zero polynomial has empty support.  Multiplication is the bilinear
extension of word concatenation, and ``apply_bracket`` extends the bracket
operator linearly.
"""

from __future__ import annotations

from collections.abc import Mapping
from fractions import Fraction
from functools import cmp_to_key
from typing import Callable, Iterable, Tuple, Union

from .terms import (
    MAX_DIGITS,
    Alphabet,
    UNIT,
    Word,
    _parse_ratio,
    _parse_word_tokens,
    _tokenize,
    bracket,
    render,
    structural_key,
)

__all__ = ["OPoly", "parse_opoly", "render_opoly"]

Scalar = Union[int, Fraction]

_ZERO = 0


def _coefficient(c) -> Scalar:
    """``c`` as a stored coefficient: an ``int`` when integral, else the
    ``Fraction`` itself.  Only ints (``bool`` included) and Fractions are
    exact scalars; anything else, a float or a string, is refused."""
    if type(c) is int:
        return c
    if isinstance(c, Fraction):
        return c.numerator if c.denominator == 1 else c
    if isinstance(c, int):
        return int(c)
    raise TypeError(f"coefficient must be an int or a Fraction, got {type(c).__name__}")


class OPoly:
    """Immutable operated polynomial.

    Construct from a mapping or an iterable of ``(word, coefficient)``
    pairs; zero coefficients are dropped and repeated words accumulate.
    """

    __slots__ = ("_terms", "_hash")

    def __init__(self, terms: Union[Mapping[Word, Scalar], Iterable[Tuple[Word, Scalar]]] = ()):
        acc: dict[Word, Scalar] = {}
        items = terms.items() if type(terms) is dict or isinstance(terms, Mapping) else terms
        for w, c in items:
            if not isinstance(w, Word):
                raise TypeError(f"monomial must be a Word, got {type(w).__name__}")
            if type(c) is not int:
                c = _coefficient(c)
            if not c:
                continue
            prev = acc.get(w)
            if prev is None:
                acc[w] = c
            else:
                s = prev + c
                if s:
                    acc[w] = s
                else:
                    del acc[w]
        self._terms = acc
        self._hash = None

    # -- constructors ----------------------------------------------------

    @classmethod
    def zero(cls) -> "OPoly":
        return _ZERO_POLY

    @classmethod
    def one(cls) -> "OPoly":
        return _ONE_POLY

    @classmethod
    def from_word(cls, w: Word, c: Scalar = 1) -> "OPoly":
        return cls(((w, c),))

    @classmethod
    def constant(cls, c: Scalar) -> "OPoly":
        return cls(((UNIT, c),))

    # -- queries ---------------------------------------------------------

    def is_zero(self) -> bool:
        return not self._terms

    def __bool__(self) -> bool:
        return bool(self._terms)

    def __len__(self) -> int:
        return len(self._terms)

    def coeff(self, w: Word) -> Scalar:
        return self._terms.get(w, _ZERO)

    def support(self) -> tuple[Word, ...]:
        return tuple(sorted(self._terms, key=structural_key))

    def items(self, order=None, *, reverse: bool = True) -> list[tuple[Word, Scalar]]:
        """Terms as pairs; descending under ``order`` when given, else
        descending structural order."""
        if order is None:
            key = lambda it: structural_key(it[0])
        else:
            key = cmp_to_key(lambda a, b: order.compare(a[0], b[0]))
        return sorted(self._terms.items(), key=key, reverse=reverse)

    def __eq__(self, other: object) -> bool:
        return isinstance(other, OPoly) and self._terms == other._terms

    def __ne__(self, other: object) -> bool:
        return not self.__eq__(other)

    def __hash__(self) -> int:
        # computed on first use: most polynomials are never hashed
        h = self._hash
        if h is None:
            h = self._hash = hash(frozenset(self._terms.items()))
        return h

    # -- arithmetic ------------------------------------------------------

    def __add__(self, other: "OPoly") -> "OPoly":
        if not isinstance(other, OPoly):
            return NotImplemented
        if not self._terms:
            return other
        if not other._terms:
            return self
        acc = dict(self._terms)
        for w, c in other._terms.items():
            s = acc.get(w, _ZERO) + c
            if s:
                acc[w] = s
            else:
                acc.pop(w, None)
        return _wrap(acc)

    def __sub__(self, other: "OPoly") -> "OPoly":
        if not isinstance(other, OPoly):
            return NotImplemented
        acc = dict(self._terms)
        for w, c in other._terms.items():
            s = acc.get(w, _ZERO) - c
            if s:
                acc[w] = s
            else:
                acc.pop(w, None)
        return _wrap(acc)

    def __neg__(self) -> "OPoly":
        return _wrap({w: -c for w, c in self._terms.items()})

    def scale(self, c: Scalar) -> "OPoly":
        c = _coefficient(c)
        if not c:
            return _ZERO_POLY
        if c == 1:
            return self
        if type(c) is int:
            return _wrap({w: c * k for w, k in self._terms.items()})
        # a non-integral scalar (monic scaling by 1/lc) can cancel a
        # denominator, so its products are stored by the same rule
        return _wrap({w: _coefficient(c * k) for w, k in self._terms.items()})

    def __mul__(self, other: Union["OPoly", Scalar]) -> "OPoly":
        if isinstance(other, (int, Fraction)):
            return self.scale(other)
        if not isinstance(other, OPoly):
            return NotImplemented
        acc: dict[Word, Scalar] = {}
        for u, a in self._terms.items():
            for v, b in other._terms.items():
                w = u * v
                s = acc.get(w, _ZERO) + a * b
                if s:
                    acc[w] = s
                else:
                    acc.pop(w, None)
        return _wrap(acc)

    def __rmul__(self, other: Scalar) -> "OPoly":
        if isinstance(other, (int, Fraction)):
            return self.scale(other)
        return NotImplemented

    def apply_bracket(self) -> "OPoly":
        """Linear extension of the bracket operator to polynomials."""
        return _wrap({bracket(w): c for w, c in self._terms.items()})

    def map_words(self, fn: Callable[[Word], Word]) -> "OPoly":
        """Apply a word map to every monomial, merging collisions."""
        return OPoly((fn(w), c) for w, c in self._terms.items())

    # -- leading data ----------------------------------------------------

    def leading(self, order) -> tuple[Word, Scalar]:
        """Leading ``(monomial, coefficient)`` under ``order``.

        Zero has no terms; by convention it reports ``(1, 0)`` so that
        constants and zero share a code path.
        """
        if not self._terms:
            return (UNIT, _ZERO)
        lead = order.max(self._terms)
        return (lead, self._terms[lead])

    def leading_monomial(self, order) -> Word:
        return self.leading(order)[0]

    def monicize(self, order) -> "OPoly":
        """Same polynomial scaled so the leading coefficient is 1."""
        if not self._terms:
            raise ValueError("cannot monicize the zero polynomial")
        _, c = self.leading(order)
        if c == 1:
            return self
        return self.scale(Fraction(1) / c)

    def __str__(self) -> str:
        return render_opoly(self)

    def __repr__(self) -> str:
        return f"OPoly({render_opoly(self)!r})"


def _wrap(acc: dict) -> OPoly:
    # trusted constructor: acc maps words to nonzero coefficients, exact
    # rationals (int when integral, Fraction otherwise), and is taken over
    # without a copy; an empty acc gives the one shared zero
    if not acc:
        return _ZERO_POLY
    p = OPoly.__new__(OPoly)
    p._terms = acc
    p._hash = None
    return p


_ZERO_POLY = OPoly(())
_ONE_POLY = OPoly(((UNIT, 1),))


# the least numerator or denominator with more than MAX_DIGITS digits
_DIGIT_CAP = 10**MAX_DIGITS


def _format_term(w: Word, c: Scalar) -> str:
    # sign handled by the caller
    mag = abs(c)
    if mag.numerator >= _DIGIT_CAP or mag.denominator >= _DIGIT_CAP:
        raise ValueError(f"a coefficient has more digits than the limit of {MAX_DIGITS} and cannot be printed")
    if w.is_unit():
        return str(mag)
    if mag == 1:
        return render(w)
    return f"{mag}*{render(w)}"


def render_opoly(f: OPoly, order=None) -> str:
    """Text form: signed terms joined by `` + `` / `` - ``, zero is ``0``.

    Term order is descending under ``order`` when supplied, otherwise
    descending structural order, so rendering is deterministic.
    """
    terms = f.items(order)
    if not terms:
        return "0"
    out: list[str] = []
    for i, (w, c) in enumerate(terms):
        if i == 0:
            out.append(("-" if c < 0 else "") + _format_term(w, c))
        else:
            out.append((" - " if c < 0 else " + ") + _format_term(w, c))
    return "".join(out)


def parse_opoly(
    text: str,
    alphabet: Alphabet | None = None,
    *,
    extra_letters: Iterable[str] = (),
) -> OPoly:
    """Parse polynomial text, ``[sign] term (sign term)*`` with ``term :=
    NUM ["/" NUM] ["*" word] | word``, from the same tokens as words.

    Examples: ``"z1*[z2] - [z1]*z2"``, ``"-2/5*[1] + 3"``, ``"0"``.
    """
    toks = _tokenize(text)
    extra = frozenset(extra_letters)
    terms: list[tuple[Word, Scalar]] = []
    sign = toks.take() if toks.peek() in ("+", "-") else "+"
    while True:
        if toks.at_number():
            coeff = _parse_ratio(toks)
            word = _parse_word_tokens(toks, alphabet, False, extra) if toks.accept("*") else UNIT
        else:
            coeff, word = 1, _parse_word_tokens(toks, alphabet, False, extra)
        terms.append((word, -coeff if sign == "-" else coeff))
        if toks.peek() not in ("+", "-"):
            toks.end()
            return OPoly(terms)
        sign = toks.take()
