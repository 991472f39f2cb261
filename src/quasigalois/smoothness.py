"""Exact smoothness decision for plane projective curves.

In characteristic zero a ternary form F of degree d >= 2 defines a smooth
curve iff its three partials F_0, F_1, F_2, forms of degree e = d - 1, have no
common zero in the projective plane over the algebraic closure (Euler's
relation d*F = X F_0 + Y F_1 + Z F_2 puts such a zero on the curve).
Macaulay's theorem turns this into one exact rank:

* With no common zero the partials form a regular sequence, so the quotient
  by their ideal I has Hilbert series (1 + t + ... + t^(e-1))^3, which is zero
  from degree 3e - 2 = 3d - 5 on: I contains every form of degree 3d - 5.
* With a common zero p every element of I vanishes at p, so I misses some
  monomial in every degree.

Hence F is smooth iff the products m * F_v, for v = 0, 1, 2 and all monomials
m of degree 2d - 4, span all C(3d - 3, 2) forms of degree 3d - 5.  A rank over
K equals the rank over its algebraic closure, so the test is exact: singular
points that are not defined over K are found as well.  A zero partial needs
no special case, since its rows are empty and the rank stays short.

References: F. S. Macaulay, The Algebraic Theory of Modular Systems (1916);
D. Cox, J. Little and D. O'Shea, Using Algebraic Geometry, GTM 185, ch. 3.
"""

from __future__ import annotations


def _monomials(D):
    """The exponent triples (i, j, k) of the monomials of degree D."""
    return [(i, j, D - i - j) for i in range(D, -1, -1) for j in range(D - i, -1, -1)]


def is_smooth(form):
    """True when the projective plane curve F = 0 is smooth over the closure.

    The rows m * F_v enter an incremental sparse row echelon: each row is a
    dict keyed by monomial, reduced at its leading monomial (the largest
    exponent triple) by the pivot stored there; a row whose leading monomial
    is new becomes a pivot scaled to 1 there, stored without that entry.  The
    rank is full once the pivots cover every monomial of degree 3d - 5, and
    short if the rows run out first.  In an extension ring whose
    lambda_sq is a square, a zero-divisor pivot raises ZeroDivisorEncountered.
    """
    if form.is_zero():
        raise ValueError("the zero form does not define a curve")
    d = form.degree
    if d == 1:
        return True
    target = len(_monomials(3 * d - 5))
    pivots = {}
    for v in range(3):
        partial = form.partial(v).terms
        for a, b, c in _monomials(2 * d - 4):
            row = {(i + a, j + b, k + c): x for (i, j, k), x in partial.items()}
            while row:
                lead = max(row)
                pivot = pivots.get(lead)
                if pivot is None:
                    inv = row.pop(lead).inverse()
                    pivot = {m: x * inv for m, x in row.items()}
                    pivots[lead] = pivot
                    if len(pivots) == target:
                        return True
                    break
                scale = -row.pop(lead)
                for m, x in pivot.items():
                    y = row.get(m)
                    y = scale * x if y is None else y + scale * x
                    if y.is_zero():
                        row.pop(m, None)
                    else:
                        row[m] = y
    return False
