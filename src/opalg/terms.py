"""Bracketed words over a finite alphabet, with one linear operator.

A word is a finite sequence of factors; a factor is either a letter (a
``str``) or a bracketed word ``[u]``, held as the inner word ``u`` itself
(a ``Word``).  The empty sequence is the multiplicative unit,
written ``1``.  ``[1]`` is an ordinary factor and is not the unit.  Words
multiply by concatenation, so the set of all words is the free monoid on
letters and brackets, closed under the bracket operator.

Measures used throughout the package:

* breadth: number of top-level factors (``breadth(1) == 0``)
* z_degree: number of letter occurrences at every depth
* op_degree: number of bracket occurrences at every depth

Words are interned (hash-consed).  ``Word(factors)`` looks the factor
tuple up in one module-level table and returns the live word with those
factors, building it only when there is none.  So structurally equal words
are the same object, equality and hashing are by identity, and a word's
measures, sort key and text are computed once.  This holds because words
come only from ``Word(...)``; pickling and copying go through it too.  The
table holds its words weakly: an entry goes when its word is freed, so the
table never keeps alive a word that nothing else references.

Words, contexts, polynomials (:func:`opalg.poly.parse_opoly`), rationals
(:func:`parse_rational`) and integers (:func:`parse_integer`) are read
from one token stream.  Text may be at most ``MAX_INPUT_CHARS`` long, nest
brackets at most ``MAX_DEPTH`` deep and hold numbers of at most
``MAX_DIGITS`` digits; other input is refused with a ``ParseError``, whose
position counts from the start of the text, before any recursive step.

Schema words may contain variable letters that match arbitrary factor
blocks (:func:`schema_occurrences`); :func:`_compile` turns one into a
splice plan and :func:`_splice` runs it on word values.  A context is a
word with exactly one hole ``@``, kept as the hole's position in the
coordinates :func:`iter_slices` yields: plugging a word puts its factors
in place of the hole (plugging the unit deletes the hole) and rebuilds the
enclosing brackets around it.
"""

from __future__ import annotations

import re
import weakref
from fractions import Fraction
from functools import lru_cache
from math import comb
from typing import Iterable, Iterator, Mapping, Sequence, Union

__all__ = [
    "COUNT_CEILING",
    "HOLE",
    "MAX_DEPTH",
    "MAX_DIGITS",
    "MAX_INPUT_CHARS",
    "Alphabet",
    "Context",
    "ParseError",
    "Word",
    "UNIT",
    "align_factors",
    "all_words",
    "bracket",
    "check_input_size",
    "count_text",
    "count_words",
    "iter_occurrences",
    "iter_slices",
    "parse_context",
    "parse_integer",
    "parse_rational",
    "parse_word",
    "render",
    "schema_occurrences",
    "slice_context",
    "structural_key",
    "substitute",
    "var_counts",
    "word_tuples",
]

HOLE = "@"

# Deepest bracket nesting the parsers accept.  Rendering, comparison and
# matching recurse once or more per level, so this keeps well inside the
# interpreter's recursion limit.
MAX_DEPTH = 100

# Longest text the parsers accept, checked before tokenising.
MAX_INPUT_CHARS = 100_000

# Most digits a number in input text may have; a printed coefficient's
# numerator and denominator are held to it too (:mod:`opalg.poly`).  It
# stays under the 4,300 digits CPython converts between int and text by
# default.
MAX_DIGITS = 4000

_IDENT_RE = re.compile(r"[A-Za-z][A-Za-z0-9_]*")


Factor = Union[str, "Word"]


class _Entry(weakref.ref):
    # a table entry: a weak reference to a word that knows its own key
    __slots__ = ("key",)


# Factor tuple -> weak reference to the one word with those factors.  An
# entry goes when its word is freed, so the table keeps no word alive.
_WORDS: dict[tuple, _Entry] = {}


def _forget(entry: _Entry, words: dict = _WORDS) -> None:
    # the key may already name a newer word, built after this one died but
    # before this callback ran
    if words.get(entry.key) is entry:
        del words[entry.key]


class Word:
    """Immutable factor sequence with cached measures; a factor is a letter
    or, standing for its bracket, a word.

    Words are interned: ``Word(factors)`` returns the one live word with
    those factors, building it only when there is none.  Equality and
    hashing are therefore by identity, and structurally equal words are the
    same object.  The invariant holds because words are made only through
    ``Word(...)`` (pickling and copying go through it too).  The table
    holds its words weakly, so a word nothing else references is freed.
    :func:`structural_key` and :func:`render` fill a slot on first use.
    Words are valid dict keys; all arithmetic lives in :mod:`opalg.poly`.
    """

    __slots__ = ("factors", "z_degree", "op_degree", "_key", "__weakref__")

    def __new__(cls, factors: Iterable[Factor] = ()):
        fs = tuple(factors)
        entry = _WORDS.get(fs)
        if entry is not None:
            w = entry()
            if w is not None:
                return w
        z = op = 0
        for f in fs:
            if isinstance(f, str):
                z += 1
            elif isinstance(f, Word):
                z += f.z_degree
                op += f.op_degree + 1
            else:
                raise TypeError(f"bad factor {f!r}")
        w = object.__new__(cls)
        w.factors = fs
        w.z_degree = z
        w.op_degree = op
        w._key = None
        entry = _WORDS[fs] = _Entry(w, _forget)
        entry.key = fs
        return w

    def __reduce__(self):
        return (Word, (self.factors,))

    @property
    def breadth(self) -> int:
        return len(self.factors)

    def is_unit(self) -> bool:
        return not self.factors

    def __mul__(self, other: "Word") -> "Word":
        if not isinstance(other, Word):
            return NotImplemented
        return Word(self.factors + other.factors)

    def __str__(self) -> str:
        return render(self)

    def __repr__(self) -> str:
        return f"Word({render(self)!r})"


UNIT = Word(())


def bracket(u: Word) -> Word:
    """The one-factor word ``[u]``."""
    if not isinstance(u, Word):
        raise TypeError(f"bracket inner must be a Word, got {type(u).__name__}")
    return Word((u,))


def structural_key(u: Word) -> tuple:
    """Deterministic sort key independent of any monomial order, computed
    once per word."""
    key = u._key
    if key is None:
        if u.factors:
            text = "*".join(f if isinstance(f, str) else "[" + render(f) + "]" for f in u.factors)
        else:
            text = "1"
        key = u._key = (u.z_degree, u.op_degree, len(u.factors), text)
    return key


def render(u: Word) -> str:
    """Canonical text form: ``*``-joined factors, unit rendered ``1``."""
    return structural_key(u)[3]


class Alphabet:
    """Finite ordered letter set; declaration order is the base order."""

    __slots__ = ("letters", "_rank")

    def __init__(self, letters: Iterable[str]):
        ls = tuple(letters)
        if not ls:
            raise ValueError("alphabet must not be empty")
        seen: dict[str, int] = {}
        for i, name in enumerate(ls):
            if not _IDENT_RE.fullmatch(name):
                raise ValueError(f"bad letter name {name!r}: want [A-Za-z][A-Za-z0-9_]*")
            if name in seen:
                raise ValueError(f"duplicate letter {name!r}")
            seen[name] = i
        self.letters = ls
        self._rank = seen

    def rank(self, name: str) -> int:
        return self._rank[name]

    def __contains__(self, name: object) -> bool:
        return name in self._rank

    def __iter__(self) -> Iterator[str]:
        return iter(self.letters)

    def __len__(self) -> int:
        return len(self.letters)

    def __eq__(self, other: object) -> bool:
        return isinstance(other, Alphabet) and self.letters == other.letters

    def __hash__(self) -> int:
        return hash(self.letters)

    def __repr__(self) -> str:
        return f"Alphabet({','.join(self.letters)})"


class ParseError(ValueError):
    """Input text rejected; carries the character position."""

    def __init__(self, message: str, pos: int):
        super().__init__(f"{message} (at position {pos})")
        self.pos = pos


class _Tokens:
    # token kinds: IDENT, NUM, and single chars * [ ] @ + - /
    _TOKEN_RE = re.compile(r"\s*([A-Za-z][A-Za-z0-9_]*|[0-9]+|[*\[\]@+/-])")

    def __init__(self, text: str):
        self.text = text
        self.toks: list[tuple[str, int]] = []
        pos = 0
        while pos < len(text):
            m = self._TOKEN_RE.match(text, pos)
            if m is None:
                stripped = text[pos:].lstrip()
                if not stripped:
                    break
                raise ParseError(f"unexpected character {stripped[0]!r}", len(text) - len(stripped))
            self.toks.append((m.group(1), m.start(1)))
            pos = m.end()
        self.i = 0

    def peek(self) -> str | None:
        return self.toks[self.i][0] if self.i < len(self.toks) else None

    def pos(self) -> int:
        return self.toks[self.i][1] if self.i < len(self.toks) else len(self.text)

    def take(self) -> str:
        tok = self.toks[self.i][0]
        self.i += 1
        return tok

    def accept(self, tok: str) -> bool:
        if self.peek() != tok:
            return False
        self.i += 1
        return True

    def expect(self, tok: str) -> None:
        if not self.accept(tok):
            raise ParseError(f"expected {tok!r}, found {self.peek()!r}", self.pos())

    def at_number(self) -> bool:
        tok = self.peek()
        return tok is not None and tok[0].isdigit()

    def end(self) -> None:
        if self.peek() is not None:
            raise ParseError(f"trailing input {self.peek()!r}", self.pos())


def check_input_size(text: str) -> None:
    """Refuse text longer than ``MAX_INPUT_CHARS`` with a ``ParseError``."""
    if len(text) > MAX_INPUT_CHARS:
        raise ParseError(f"input of {len(text)} characters is over the limit of {MAX_INPUT_CHARS}", MAX_INPUT_CHARS)


def _tokenize(text: str) -> _Tokens:
    # the checks every parse makes once, before any recursive step: the
    # text's length, its tokens and its bracket nesting
    check_input_size(text)
    toks = _Tokens(text)
    depth = 0
    for tok, pos in toks.toks:
        if tok == "[":
            depth += 1
            if depth > MAX_DEPTH:
                raise ParseError(f"brackets nested deeper than the limit of {MAX_DEPTH}", pos)
        elif tok == "]":
            depth -= 1
    return toks


def _parse_num(toks: _Tokens) -> int:
    pos = toks.pos()
    if not toks.at_number():
        raise ParseError(f"expected a number, found {toks.peek()!r}", pos)
    tok = toks.take()
    if len(tok) > MAX_DIGITS:
        raise ParseError(f"number of {len(tok)} digits is over the limit of {MAX_DIGITS}", pos)
    return int(tok)


def _parse_ratio(toks: _Tokens) -> Fraction:
    # ratio := NUM ["/" NUM], refusing a zero denominator at its position
    num = _parse_num(toks)
    if not toks.accept("/"):
        return Fraction(num)
    pos = toks.pos()
    den = _parse_num(toks)
    if not den:
        raise ParseError("zero denominator", pos)
    return Fraction(num, den)


def parse_rational(text: str) -> Fraction:
    """Parse an exact rational: an optional ``-``, then ``NUM`` or
    ``NUM/NUM`` with a nonzero denominator, e.g. ``1``, ``-3/2``.  The
    number rule of polynomial text; decimals and exponents are refused."""
    toks = _tokenize(text)
    neg = toks.accept("-")
    value = _parse_ratio(toks)
    toks.end()
    return -value if neg else value


def parse_integer(text: str) -> int:
    """Parse an integer: an optional ``-``, then ``NUM``, e.g. ``6``,
    ``-1``.  The number rule of :func:`parse_rational` without a
    denominator, so ``+6``, ``1_4`` and ``1.0`` are refused."""
    toks = _tokenize(text)
    neg = toks.accept("-")
    value = _parse_num(toks)
    toks.end()
    return -value if neg else value


def _parse_word_tokens(
    toks: _Tokens,
    alphabet: Alphabet | None,
    allow_hole: bool,
    extra_letters: frozenset[str],
) -> Word:
    # word := "1" | factor ("*" factor)*
    if toks.accept("1"):
        return UNIT
    factors: list[Factor] = []
    while True:
        tok = toks.peek()
        pos = toks.pos()
        if tok is None:
            raise ParseError("expected a factor", pos)
        if tok == "[":
            toks.take()
            inner = _parse_word_tokens(toks, alphabet, allow_hole, extra_letters)
            toks.expect("]")
            factors.append(inner)
        elif tok == HOLE:
            if not allow_hole:
                raise ParseError("hole '@' not allowed in a plain word", pos)
            toks.take()
            factors.append(HOLE)
        elif _IDENT_RE.fullmatch(tok):
            if alphabet is not None and tok not in alphabet and tok not in extra_letters:
                raise ParseError(f"unknown letter {tok!r} (alphabet: {','.join(alphabet.letters)})", pos)
            toks.take()
            factors.append(tok)
        else:
            raise ParseError(f"unexpected token {tok!r}", pos)
        if not toks.accept("*"):
            return Word(factors)


def parse_word(
    text: str,
    alphabet: Alphabet | None = None,
    *,
    allow_hole: bool = False,
    extra_letters: Iterable[str] = (),
) -> Word:
    """Parse word text: ``1``, letters, ``*`` products, ``[...]`` brackets.

    With an alphabet, unknown letters are rejected with their position.
    ``extra_letters`` admits schema variables on top of the alphabet.
    """
    toks = _tokenize(text)
    w = _parse_word_tokens(toks, alphabet, allow_hole, frozenset(extra_letters))
    toks.end()
    return w


# Segment kinds of a splice plan: a run of literal factors, a variable's
# factors spliced in, and a bracket around a nested plan (a lone variable
# in a bracket, ``[x]``, nests the bare-variable plan: the value itself).
_LITERAL, _SLOT, _NEST = range(3)


def _compile(schema: Word, index: Mapping[str, int]):
    """The splice plan of a schema word whose variables have the positions
    ``index``: the position itself for a bare variable, else a tuple of
    ``(kind, argument)`` segments (a bracket without variables is literal)."""
    fs = schema.factors
    if len(fs) == 1 and isinstance(fs[0], str) and fs[0] in index:
        return index[fs[0]]
    segments: list[tuple] = []
    run: list = []
    for f in fs:
        if isinstance(f, str) and f in index:
            kind, arg = _SLOT, index[f]
        elif isinstance(f, str) or not var_counts(f, frozenset(index)):
            run.append(f)
            continue
        else:
            kind, arg = _NEST, _compile(f, index)
        if run:
            segments.append((_LITERAL, tuple(run)))
            run = []
        segments.append((kind, arg))
    if run:
        segments.append((_LITERAL, tuple(run)))
    return tuple(segments)


def _splice(plan, values: Sequence[Word]) -> Word:
    """Run a plan from :func:`_compile` on word values in variable order."""
    if plan.__class__ is int:
        return values[plan]
    out: list = []
    for kind, arg in plan:
        if kind == _LITERAL:
            out += arg
        elif kind == _SLOT:
            out += values[arg].factors
        else:
            out.append(_splice(arg, values))
    return Word(out)


def _holes(factors: tuple[Factor, ...]) -> Iterator[tuple[tuple[Factor, ...], int, tuple]]:
    """Each hole in a factor tuple, at every depth, as ``(level, k,
    frames)``: the hole is ``level[k]`` and ``frames`` the enclosing
    ``(factors, bracket index)`` pairs, outermost first."""
    stack = [(factors, ())]
    while stack:
        level, frames = stack.pop()
        for k, f in enumerate(level):
            if f.__class__ is Word:
                stack.append((f.factors, frames + ((level, k),)))
            elif f == HOLE:
                yield level, k, frames


class Context:
    """A word with exactly one hole ``@`` at any depth, kept as the hole's
    position: the hole stands for ``level[i:j]``, and ``frames`` are the
    enclosing ``(factors, bracket index)`` pairs, outermost first (the
    coordinates :func:`iter_slices` yields).  Plugging rebuilds the word
    around the plugged factors, frame by frame."""

    __slots__ = ("level", "i", "j", "frames")

    def __init__(self, word: Word):
        found = list(_holes(word.factors))
        if len(found) != 1:
            raise ValueError(f"a context needs exactly one hole, found {len(found)} in {render(word)}")
        level, k, frames = found[0]
        self.level, self.i, self.j, self.frames = level, k, k + 1, frames

    @property
    def word(self) -> Word:
        """The context as a word, the hole written ``@``."""
        return self.plug(Word((HOLE,)))

    def is_trivial(self) -> bool:
        """True for the bare hole (plugging returns the argument itself)."""
        return not self.frames and self.i == 0 and self.j == len(self.level)

    def plug(self, s: Word) -> Word:
        """Replace the hole by the factors of ``s`` (unit deletes the hole)."""
        level = self.level
        w = Word(level[: self.i] + s.factors + level[self.j :])
        for outer, k in reversed(self.frames):
            w = Word(outer[:k] + (w,) + outer[k + 1 :])
        return w

    def __eq__(self, other: object) -> bool:
        return isinstance(other, Context) and self.word == other.word

    def __hash__(self) -> int:
        # by text: the word is built afresh each time, so its identity is
        # not stable
        return hash((Context, render(self.word)))

    def __str__(self) -> str:
        return render(self.word)

    def __repr__(self) -> str:
        return f"Context({render(self.word)!r})"


def parse_context(
    text: str,
    alphabet: Alphabet | None = None,
    *,
    extra_letters: Iterable[str] = (),
) -> Context:
    return Context(parse_word(text, alphabet, allow_hole=True, extra_letters=extra_letters))


def substitute(q: Context, s):
    """``q`` with ``s`` plugged into the hole; linear in ``s``.

    ``s`` may be a Word or anything with ``map_words`` (a polynomial); the
    polynomial case distributes the context over the terms.
    """
    if isinstance(s, Word):
        return q.plug(s)
    return s.map_words(q.plug)


def iter_slices(w: Word) -> Iterator[tuple[tuple[Factor, ...], int, int, tuple]]:
    """Every nonempty factor slice of ``w`` at every depth, as
    ``(level, i, j, frames)``: the slice is ``level[i:j]``, ``level`` is the
    factor tuple it is cut from and ``frames`` the enclosing
    ``(factors, bracket index)`` pairs, outermost first.

    This is the package's one scan order, shared by redex search,
    occurrences, schema matching and record indexing: the top-level
    slices by start, then by end, then the slices inside each bracket
    factor, left to right, recursively.
    """
    stack = [(w.factors, ())]
    while stack:
        level, frames = stack.pop()
        n = len(level)
        for i in range(n):
            for j in range(i + 1, n + 1):
                yield level, i, j, frames
        for k in range(n - 1, -1, -1):
            f = level[k]
            if f.__class__ is Word:
                stack.append((f.factors, frames + ((level, k),)))


def slice_context(level: tuple[Factor, ...], i: int, j: int, frames: tuple) -> Context:
    """The context around a slice from :func:`iter_slices`: plugging
    ``Word(level[i:j])`` into it gives back the scanned word.  It keeps the
    scanned word's own ``level`` and ``frames``; a scanned word that holds
    a hole is refused, as its context would hold two."""
    q = Context.__new__(Context)
    q.level, q.i, q.j, q.frames = level, i, j, frames
    if next(_holes(frames[0][0] if frames else level), None) is not None:
        Context(q.word)  # refused: the hole word holds two holes or more
    return q


def iter_occurrences(w: Word, u: Word) -> Iterator[Context]:
    """Contexts ``q`` with ``q.plug(u) == w``, in :func:`iter_slices` order."""
    if u.is_unit():
        raise ValueError("occurrences of the unit are everywhere; refusing")
    k = len(u.factors)
    for level, i, j, frames in iter_slices(w):
        if j - i == k and level[i:j] == u.factors:
            yield slice_context(level, i, j, frames)


def var_counts(w: Word, variables: frozenset[str]) -> dict[str, int]:
    """How often each of ``variables`` occurs in ``w``, at every depth."""
    counts: dict[str, int] = {}
    stack = [w]
    while stack:
        for f in stack.pop().factors:
            if isinstance(f, str):
                if f in variables:
                    counts[f] = counts.get(f, 0) + 1
            else:
                stack.append(f)
    return counts


def _align(
    sf: tuple[Factor, ...],
    tf: tuple[Factor, ...],
    variables: frozenset[str],
    nonempty: frozenset[str],
    binding: dict[str, Word],
) -> Iterator[dict[str, Word]]:
    # Match a schema factor sequence against a target factor sequence.
    # Variables bind contiguous blocks; each occurs at most once (checked
    # upstream), so no consistency lookups are needed.  A variable that
    # ends the sequence can only take the whole rest, and a variable that
    # is a bracket's whole inner takes that bracket's inner word, so
    # neither tries a split.
    if not sf:
        if not tf:
            yield binding
        return
    head = sf[0]
    if isinstance(head, str) and head in variables:
        if len(sf) == 1:
            if tf or head not in nonempty:
                b2 = dict(binding)
                b2[head] = Word(tf)
                yield b2
            return
        lo = 1 if head in nonempty else 0
        for k in range(lo, len(tf) + 1):
            b2 = dict(binding)
            b2[head] = Word(tf[:k])
            yield from _align(sf[1:], tf[k:], variables, nonempty, b2)
    elif isinstance(head, str):
        if tf and tf[0] == head:
            yield from _align(sf[1:], tf[1:], variables, nonempty, binding)
    else:
        if tf and isinstance(tf[0], Word):
            inner = head.factors
            if len(inner) == 1 and isinstance(inner[0], str) and inner[0] in variables:
                value = tf[0]
                if value.factors or inner[0] not in nonempty:
                    b2 = dict(binding)
                    b2[inner[0]] = value
                    yield from _align(sf[1:], tf[1:], variables, nonempty, b2)
                return
            for b2 in _align(inner, tf[0].factors, variables, nonempty, binding):
                yield from _align(sf[1:], tf[1:], variables, nonempty, b2)


def align_factors(
    schema_factors: tuple[Factor, ...],
    target_factors: tuple[Factor, ...],
    variables: Iterable[str],
    nonempty: Iterable[str] = (),
) -> Iterator[dict[str, Word]]:
    """Bindings matching a schema factor block onto a target factor block.

    Low-level entry for callers that slice factor tuples themselves; the
    schema must not repeat a variable (not rechecked here).
    """
    yield from _align(schema_factors, target_factors, frozenset(variables), frozenset(nonempty), {})


def schema_occurrences(
    w: Word,
    schema: Word,
    variables: Iterable[str],
    *,
    nonempty: Iterable[str] = (),
) -> list[tuple[Context, dict[str, Word]]]:
    """All ``(q, sigma)`` with ``q.plug(schema*sigma) == w``.

    ``nonempty`` variables must bind at least one factor, and matched
    slices are nonempty (a schema instance standing for the unit never
    counts as occurring).  Slices come in :func:`iter_slices` order, split
    points shortest-first.  A schema that repeats a variable is refused.
    """
    vs = frozenset(variables)
    bad = sorted(v for v, c in var_counts(schema, vs).items() if c > 1)
    if bad:
        raise ValueError(f"schema {render(schema)} repeats variable(s) {','.join(bad)}")
    ne = frozenset(nonempty)
    return [
        (slice_context(level, i, j, frames), sigma)
        for level, i, j, frames in iter_slices(w)
        for sigma in _align(schema.factors, level[i:j], vs, ne, {})
    ]


@lru_cache(maxsize=None)
def all_words(alphabet: Alphabet | tuple[str, ...], max_z: int, max_op: int) -> tuple[Word, ...]:
    """Every word with ``z_degree <= max_z`` and ``op_degree <= max_op``.

    Deterministic order (graded by structural key), so a smaller pool is
    the larger one filtered by the bounds.  Pools are cached per
    ``(alphabet, max_z, max_op)`` for the life of the process; the count
    grows fast, so callers check :func:`count_words` before asking.
    """
    letters = tuple(alphabet)
    # exact[z, p]: the words with exactly z letters and p brackets, each
    # built once.  A word is the unit, a letter before a word, or a bracket
    # [inner] before a word; every cell a cell reads has fewer brackets, or
    # as many and fewer letters, so filling the cells bracket count first
    # and letter count second has each one ready before it is read.
    exact: dict[tuple[int, int], list[Word]] = {}
    for p in range(max_op + 1):
        for z in range(max_z + 1):
            acc = [] if z or p else [UNIT]
            if z:
                acc += [Word((name,) + tail.factors) for name in letters for tail in exact[z - 1, p]]
            for b in range(p):
                for a in range(z + 1):
                    # first factor [inner] spends a letters and b + 1 brackets
                    tails = exact[z - a, p - 1 - b]
                    for inner in exact[a, b]:
                        head = (inner,)
                        acc += [Word(head + tail.factors) for tail in tails]
            exact[z, p] = acc
    return tuple(sorted((w for cell in exact.values() for w in cell), key=structural_key))


def word_tuples(
    alphabet: Alphabet | tuple[str, ...], max_z: int, max_op: int, arity: int
) -> Iterator[tuple[Word, ...]]:
    """Every ``arity``-tuple of words whose measures sum within the bounds
    (a jointly bounded tuple), lexicographic in :func:`all_words` order;
    :func:`count_words` with the same ``arity`` counts them."""
    if arity == 0:
        yield ()
        return
    for w in all_words(alphabet, max_z, max_op):
        for rest in word_tuples(alphabet, max_z - w.z_degree, max_op - w.op_degree, arity - 1):
            yield (w,) + rest


# count_words stops once a count passes this, far above every limit it is
# compared with, so that huge bounds are refused without a long count.
COUNT_CEILING = 1_000_000


def count_words(n_letters: int, max_z: int, max_op: int, arity: int = 1) -> int:
    """``len(all_words(...))`` over ``n_letters`` letters, without building
    a single word; with ``arity`` k, the number of k-tuples of such words
    whose measures sum within the bounds (a jointly bounded tuple).  A count
    over ``COUNT_CEILING`` is returned as ``COUNT_CEILING + 1`` once it is
    known to be over (:func:`count_text` prints it as such)."""
    if n_letters == 1 and not max_op:
        # one word per letter degree: the tuples are the ways to share at
        # most max_z letters among arity words
        return min(comb(max_z + arity, arity), COUNT_CEILING + 1)
    width = max_op + 1
    if (max_z + 1) * width > COUNT_CEILING:
        # one word per measure pair at least: z letters, then p brackets [1]
        return COUNT_CEILING + 1
    # levels[k][z * width + p]: (k+1)-tuples with exactly z letters and p
    # brackets in all.  A word is counted by its first factor (a letter, or
    # a bracket [u] spending u's measures plus one bracket); cells go by
    # z + p, so every cell a cell needs is filled before it, and the count
    # so far is a lower bound that can stop the count early.
    exact = [0] * ((max_z + 1) * width)
    exact[0] = 1
    levels = [exact] + [[0] * len(exact) for _ in range(arity - 1)]
    total = 0
    for s in range(max_z + max_op + 1):
        for p in range(max(0, s - max_z), min(s, max_op) + 1):
            z = s - p
            at = z * width + p
            if s:
                exact[at] = (n_letters * exact[at - width] if z else 0) + sum(
                    exact[a * width + b] * exact[(z - a) * width + p - 1 - b] for b in range(p) for a in range(z + 1)
                )
            for joint, nxt in zip(levels, levels[1:]):
                nxt[at] = sum(
                    joint[a * width + b] * exact[(z - a) * width + p - b] for a in range(z + 1) for b in range(p + 1)
                )
            total += levels[-1][at]
            if total > COUNT_CEILING:
                return COUNT_CEILING + 1
    return total


def count_text(n: int) -> str:
    """A count from :func:`count_words` as text; one over the ceiling reads
    ``more than COUNT_CEILING``."""
    return f"more than {COUNT_CEILING}" if n > COUNT_CEILING else str(n)
