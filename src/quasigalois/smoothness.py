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

The rank is first taken modulo a prime, which certifies a full rank.  Over a
plain cyclotomic field K = Q(zeta_N), let P lie above the least prime
p > 2^16 with p = 1 (mod N) that divides no coefficient's denominator
(``modular.split_reductions``).  Every entry of the Macaulay matrix is an
integer multiple of a coefficient of F, so the matrix has entries in the
local ring at P, and reduction mod P is a ring map on them.  A maximal minor
is a polynomial with integer coefficients in the entries, so its reduction
is the same minor of the reduced matrix.  A full rank over F_p therefore
gives a maximal minor that is nonzero mod P, hence nonzero in K: the rank
over K is full and F is smooth.  A short rank mod P proves nothing, since
it may come from a singular point of F or from a prime of bad reduction
(X^4 + Y^4 + p Z^4 is smooth but singular mod p), so the exact rank over K
decides.  The rank mod P runs on packed integer rows (Kronecker
substitution): a reduced partial is one int whose slot i*W + j, W = 3d - 4,
holds its residue at (i, j, k), and the row m * F_v for m = (a, b, c) is
that int shifted by a*W + b slots.  At a fixed degree the slot order is the
lex order of exponent triples, so the top slot is the leading monomial.  A
slot of ``bits`` = bit length of (target + 1) p^2 never carries: entries
start below p and stay nonnegative, a reduction by a pivot (entries below p,
lead 1) adds less than p^2 to a slot, and a row meets fewer than ``target``
pivots, as its leading slot strictly drops.  A form over K[l] goes straight
to the exact rank: a
reduction sends l to one square root of c, so if c is a square in K, and
K[l] is K x K, a full rank mod P proves only one factor's curve smooth.

References: F. S. Macaulay, The Algebraic Theory of Modular Systems (1916);
D. Cox, J. Little and D. O'Shea, Using Algebraic Geometry, GTM 185, ch. 3.
"""

from __future__ import annotations

from .modular import split_reductions

# The modular rank uses the least suitable split prime above this bound: the
# least split primes (5, 7) often reduce a smooth moved form to a singular one.
_PRIME_FLOOR = 1 << 16


def _monomials(D):
    """The exponent triples (i, j, k) of the monomials of degree D."""
    return [(i, j, D - i - j) for i in range(D, -1, -1) for j in range(D - i, -1, -1)]


def _rows(partials, d):
    """The Macaulay rows m * F_v as dicts keyed by monomial, lazily."""
    shifts = _monomials(2 * d - 4)
    for partial in partials:
        for a, b, c in shifts:
            yield {(i + a, j + b, k + c): x for (i, j, k), x in partial.items()}


def _full_rank(rows, target):
    """True once the rows span `target` monomials over K, False if they run out.

    An incremental sparse row echelon: each row is a dict keyed by monomial
    with nonzero entries, reduced at its leading monomial (the largest
    exponent triple) by the pivot stored there; a row whose leading monomial
    is new becomes a pivot scaled to 1 there, stored without that entry.
    """
    pivots = {}
    for row in rows:
        while row:
            lead = max(row)
            pivot = pivots.get(lead)
            if pivot is None:
                inv = row.pop(lead).inverse()
                pivots[lead] = {m: x * inv for m, x in row.items()}
                if len(pivots) == target:
                    return True
                break
            scale = -row.pop(lead)
            for m, x in pivot.items():
                y = row.get(m)
                y = scale * x if y is None else y + scale * x
                if y:
                    row[m] = y
                else:
                    row.pop(m, None)
    return False


def _full_rank_mod_p(form, target):
    """True when the Macaulay rows have full rank modulo P (see above).

    The elimination of `_full_rank` on packed rows, in the same row order:
    a row's leading slot is cut off and reduced mod p to x; if x != 0, the
    pivot stored at that slot (its lower slots, scaled so that the lead is 1)
    is added p - x times, else a new pivot is stored.  False means only that
    the modular rank proves nothing, including for a quadratic-extension
    form, which is not reduced (see above).
    """
    ctx = form.context
    if ctx.lambda_sq is not None:
        return False
    red = next(split_reductions(ctx, [c.den for c in form.terms.values()], _PRIME_FLOOR))
    p, width = red.p, 3 * form.degree - 4
    bits = ((target + 1) * p * p).bit_length()
    shifts = [bits * (a * width + b) for a, b, _ in _monomials(2 * form.degree - 4)]
    pivots = {}
    for v in range(3):
        # A partial's denominators divide F's, so P reduces its coefficients too.
        packed = 0
        for (i, j, _), c in form.partial(v).terms.items():
            packed |= red.element(c) << bits * (i * width + j)
        for shift in shifts:
            row = packed << shift
            while row:
                lead = (row.bit_length() - 1) // bits
                x = row >> bits * lead
                row -= x << bits * lead
                x %= p
                if not x:
                    continue
                if lead not in pivots:
                    inv, pivot = pow(x, -1, p), 0
                    while row:
                        top = bits * ((row.bit_length() - 1) // bits)
                        y = row >> top
                        row -= y << top
                        pivot |= y * inv % p << top
                    pivots[lead] = pivot
                    if len(pivots) == target:
                        return True
                    break
                row += (p - x) * pivots[lead]
    return False


def _full_rank_exact(form, target):
    """True when the Macaulay rows have full rank over the form's field."""
    partials = [form.partial(v).terms for v in range(3)]
    return _full_rank(_rows(partials, form.degree), target)


def is_smooth(form):
    """True when the projective plane curve F = 0 is smooth over the closure.

    The Macaulay rank is full modulo P (a certificate) or over K (exact).  In
    an extension ring whose lambda_sq is a square, a zero-divisor pivot
    raises ZeroDivisorEncountered.
    """
    if form.is_zero():
        raise ValueError("the zero form does not define a curve")
    d = form.degree
    if d == 1:
        return True
    target = len(_monomials(3 * d - 5))
    return _full_rank_mod_p(form, target) or _full_rank_exact(form, target)
