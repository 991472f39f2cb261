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

The rank is taken modulo primes.  Over a plain cyclotomic field
K = Q(zeta_N), ``modular.split_reductions`` lists the primes p > 2^16,
p = 1 (mod N), that divide no coefficient's denominator; the phi(N) primes
P above p send zeta to r^k, gcd(k, N) = 1, for one root r mod p.  The
Macaulay matrix has entries in the local ring at P, where reduction is a
ring map, so a full rank mod P gives a maximal minor nonzero mod P, hence
in K: F is smooth.  A short rank mod P may come from bad reduction (X^4 +
Y^4 + p Z^4 is smooth but singular mod p).  F is singular when a nonzero
lambda in K^target has lambda * (m * F_v) = 0 in K for every row.  Let L be
the leading slots (see below) of the row space, its echelon pivots.  The
canonical null vector is 1 at the highest slot f outside L, 0 at the other
slots outside L, and -sum c_j lambda_j at the pivot (lead 1, lower slots
c_j) at each l in L: 0 below f, by back substitution above.  It depends on
the row space only.  The rank of the columns at or above a slot can only
drop mod P, so the pivot sets, compared as descending lists, are largest
exactly at the good P, where L is kept; a bad P divides one of finitely
many nonzero minors.  At a good P the null vector over K is P-integral (a
multiple primitive at P would reduce to a null vector that is 0 outside L)
and reduces to the one mod P.  So at a prime whose phi(N) roots share the
largest pivot set yet seen, the values at the r^k are interpolated to
power-basis coordinates mod p (a Vandermonde solve), joined by CRT to the
earlier such primes' and rationally reconstructed (Wang); a larger pivot
set restarts the CRT.  Only the exact check decides, so a bad prime costs
time, never correctness, and the lift is exact once the good primes'
product exceeds twice the square of the coordinates' heights.

The rank mod P runs on packed integer rows (Kronecker substitution): a
reduced partial is one int whose slot i*W + j, W = 3d - 4, holds its residue
at (i, j, k), and the row m * F_v for m = (a, b, c) is that int shifted by
a*W + b slots.  At a fixed degree the slot order is the lex order of
exponent triples, so the top slot is the leading monomial.  A slot of
``bits`` = bit length of (target + 1) p^2 never carries: entries start below
p and stay nonnegative, a reduction by a pivot (entries below p, lead 1)
adds less than p^2 to a slot, and a row meets fewer than ``target`` pivots,
as its leading slot strictly drops.  A slot also holds a sum of fewer than
``target`` products of residues, so the back substitution reads each sum
c_j lambda_j off one slot of a product of packed ints.  A form over K[l]
goes straight to the exact rank: a reduction sends l to one square root of
c, so if c is a square in K, and K[l] is K x K, a full rank mod P proves
only one factor's curve smooth.

References: F. S. Macaulay, The Algebraic Theory of Modular Systems (1916);
D. Cox, J. Little and D. O'Shea, Using Algebraic Geometry, GTM 185, ch. 3;
P. S. Wang, A p-adic algorithm for univariate partial fractions, SYMSAC 1981.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd
from operator import mul

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
    Only forms over K[l] reach it in `is_smooth`.
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


def _pivots(form, p, root, target):
    """The packed pivots of the Macaulay rows mod the prime where zeta -> root.

    The elimination of `_full_rank` on packed rows, in the same row order:
    a row's leading slot is cut off and reduced mod p to x; if x != 0, the
    pivot stored at that slot (its lower slots, scaled so that the lead is 1)
    is added p - x times, else a new pivot is stored.  Returns the pivots by
    leading slot, at most `target` of them, and the slot width.
    """
    width, powers = 3 * form.degree - 4, [pow(root, i, p) for i in range(form.context.degree)]
    bits = ((target + 1) * p * p).bit_length()
    shifts = [bits * (a * width + b) for a, b, _ in _monomials(2 * form.degree - 4)]
    terms = form.terms.items()
    residues = [(e, sum(map(mul, c.nums, powers)) * pow(c.den, -1, p)) for e, c in terms]
    pivots = {}
    for v in range(3):
        # The partial's coefficient at e - e_v is e[v] * c, for each term c X^e.
        packed = 0
        for e, x in residues:
            if e[v]:
                packed |= e[v] * x % p << bits * ((e[0] - (v == 0)) * width + e[1] - (v == 1))
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
                        return pivots, bits
                    break
                row += (p - x) * pivots[lead]
    return pivots, bits


def _full_rank_mod_p(form, target):
    """True when the Macaulay rows have full rank mod the first prime P of
    ``split_reductions``, the one at its root r; False proves nothing, and
    a quadratic-extension form is not reduced (see above)."""
    ctx = form.context
    if ctx.lambda_sq is not None:
        return False
    red = next(split_reductions(ctx, [c.den for c in form.terms.values()], _PRIME_FLOOR))
    return len(_pivots(form, red.p, red.root, target)[0]) == target


def _full_rank_exact(form, target):
    """True when the Macaulay rows have full rank over the form's field."""
    partials = [form.partial(v).terms for v in range(3)]
    return _full_rank(_rows(partials, form.degree), target)


def _null_vector(pivots, slots, p, bits):
    """The canonical null vector mod p (see above): its support and values.

    lambda is packed in reversed slot order, so slot `top` of the product
    pivot * lambda is the sum of c_j lambda_j.
    """
    top, mask = max(slots), (1 << bits) - 1
    free = max(s for s in slots if s not in pivots)
    support = [free, *sorted(s for s in pivots if s > free)]
    lam = 1 << bits * (top - free)
    for lead in support[1:]:
        lam |= -(pivots[lead] * lam >> bits * top & mask) % p << bits * (top - lead)
    return support, [lam >> bits * (top - s) & mask for s in support]


def _interpolate(red, units, values):
    """The coefficients mod p of each A, deg A < phi(N), from its values at the
    r^k: A = sum_k A(r^k) B_k, B_k = Phi_N(X) / (X - r^k) over its value at
    r^k, nonzero as Phi_N is separable mod p, p = 1 (mod N) (Lagrange)."""
    p, basis = red.p, []
    for k in units:
        x, q = pow(red.root, k, p), [1]
        for c in reversed(red.context.modulus[1:-1]):
            q.append((c + x * q[-1]) % p)
        scale = pow(sum(c * pow(x, i, p) for i, c in enumerate(reversed(q))), -1, p)
        basis.append([c * scale % p for c in reversed(q)])
    return [sum(map(mul, ys, b)) % p for ys in zip(*values) for b in zip(*basis)]


def _rational(u, m):
    """The fraction a/b = u (mod m) with |a|, |b| <= sqrt(m/2), or None (Wang)."""
    r0, r1, t0, t1 = m, u, 0, 1
    while 2 * r1 * r1 > m:
        q = r0 // r1
        r0, r1, t0, t1 = r1, r0 - q * r1, t1, t0 - q * t1
    return Fraction(r1, t1) if 2 * t1 * t1 <= m else None


def _modular_verdict(form, target):
    """Smoothness over a plain context, proven mod p or by a lifted null vector."""
    ctx, d, n = form.context, form.degree, form.context.degree
    width, zero = 3 * d - 4, ctx.zero()
    slots = {i * width + j: (i, j, k) for i, j, k in _monomials(3 * d - 5)}
    units = [k for k in range(1, ctx.conductor + 1) if gcd(k, ctx.conductor) == 1]
    best = None
    for red in split_reductions(ctx, [c.den for c in form.terms.values()], _PRIME_FLOOR):
        p, keys, values = red.p, set(), []
        for k in units:
            pivots, bits = _pivots(form, p, pow(red.root, k, p), target)
            if len(pivots) == target:
                return True
            keys.add(tuple(sorted(pivots, reverse=True)))
            support, lam = _null_vector(pivots, slots, p, bits)
            values.append(lam)
        key = keys.pop()
        if keys or (best is not None and key < best):
            continue  # the roots disagree, or an earlier prime proves this one bad
        coords = _interpolate(red, units, values)
        if key != best:
            best, residues, modulus = key, coords, p
        else:
            inv = pow(modulus, -1, p)
            residues = [a + modulus * ((b - a) * inv % p) for a, b in zip(residues, coords)]
            modulus *= p
        fracs = [_rational(a, modulus) for a in residues]
        if None in fracs:
            continue
        # lambda is 1 at the highest free slot, support[0], so it is nonzero
        lam = {slots[s]: ctx.from_coords(fracs[t * n:t * n + n]) for t, s in enumerate(support)}
        rows = _rows([form.partial(v).terms for v in range(3)], d)
        if not any(ctx.dot(row.values(), [lam.get(m, zero) for m in row]) for row in rows):
            return False


def is_smooth(form):
    """True when the projective plane curve F = 0 is smooth over the closure.

    Over a plain cyclotomic field the Macaulay rank is proven full modulo a
    prime P, or short by a null vector lifted from the primes and checked in
    K (see above).  Over K[l] the exact rank decides; in an extension ring
    whose lambda_sq is a square, a zero-divisor pivot raises
    ZeroDivisorEncountered.
    """
    if form.is_zero():
        raise ValueError("the zero form does not define a curve")
    d = form.degree
    if d == 1:
        return True
    target = len(_monomials(3 * d - 5))
    if form.context.lambda_sq is not None:
        return _full_rank_exact(form, target)
    return _modular_verdict(form, target)
