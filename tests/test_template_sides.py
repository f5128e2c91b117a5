"""The memoized template sides of both structural audits against the
nested ``instantiate`` expressions they replaced.

``check_rb_type`` closes ``B(B(u,v),w) = B(u,B(v,w))`` for its collapse
map ``B`` and ``check_diff_type`` closes ``N(uv,w) = N(u,vw)`` for its
expansion map ``N``.  Both now evaluate the map through one memo per
audit, keyed by pairs of words.  The reference below extracts the map
from the identity afresh and nests :func:`opalg.opi.instantiate` calls,
as the audits did before; on every shipped two-variable configuration, for each audit that reaches
its closure probe, both sides must agree on every jointly bounded triple.
"""

from fractions import Fraction

import pytest

import opalg.rewrite as rewrite
from conftest import Z12
from opalg import OPI, OPoly, check_diff_type, check_rb_type, instantiate, parse_catalog
from opalg.terms import Word, render, word_tuples
from test_check_type_golden import SHIPPED

BOUNDS = (2, 1)


def _rest(phi, lead):
    return OPoly.from_word(lead) - phi.body.scale(Fraction(1) / phi.body.coeff(lead))


def reference_rb_sides(phi):
    x, y = phi.variables
    rest = _rest(phi, Word((Word((x,)), Word((y,)))))
    b = OPI("B", (x, y), OPoly((m.factors[0], c) for m, c in rest.items()))
    return lambda u, v, w: (
        instantiate(b, {x: instantiate(b, {x: u, y: v}), y: OPoly.from_word(w)}),
        instantiate(b, {x: OPoly.from_word(u), y: instantiate(b, {x: v, y: w})}),
    )


def reference_diff_sides(phi):
    x, y = phi.variables
    n = OPI("N", (x, y), _rest(phi, Word((Word((x, y)),))))
    return lambda u, v, w: (
        instantiate(n, {x: u * v, y: OPoly.from_word(w)}),
        instantiate(n, {x: OPoly.from_word(u), y: v * w}),
    )


def _audit_sides(audit, phi):
    """The ``sides`` function ``audit`` hands to its probes, or None when
    the audit stops before them."""
    caught = []
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(rewrite, "_probe", lambda rep, alphabet, rules, labels, sides, **kw: caught.append(sides))
        audit(phi, Z12, BOUNDS, 2000)
    return caught[0] if caught else None


@pytest.mark.parametrize("selector", SHIPPED)
def test_memoized_sides_equal_nested_instantiate(selector):
    (phi,) = parse_catalog(selector).opis
    probed = 0
    for audit, reference in ((check_rb_type, reference_rb_sides), (check_diff_type, reference_diff_sides)):
        sides = _audit_sides(audit, phi)
        if sides is None:
            continue
        want_sides = reference(phi)
        probed += 1
        # two passes: the first fills the memo, the second reads it
        for _ in range(2):
            for u, v, w in word_tuples(Z12, *BOUNDS, 3):
                assert sides(u, v, w) == want_sides(u, v, w), (audit.__name__, render(u), render(v), render(w))
    # diffprime has one variable, so both audits stop at the shape check
    assert bool(probed) == (phi.arity == 2), f"{selector}: {probed} audit(s) reached the closure probe"
