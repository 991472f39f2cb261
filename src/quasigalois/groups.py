"""Finite matrix groups generated by homologies, and their action on a line.

A closure is Dimino's coset enumeration (G. Butler, Fundamental Algorithms
for Permutation Groups, LNCS 559, 1991), which needs only a membership test
up to scalar.  An element's projective order is the least power that is a
scalar matrix.  When every generator preserves a
line, the restriction to that line in the coordinates of its two spanning
vectors is a 2x2 matrix, well defined up to scalar; the induced map
is a group homomorphism, and its kernel size, image size and the image's
element-order histogram identify the quotient (for example the histograms
{1:1, 2:3, 3:8} and {1:1, 2:9, 3:8, 4:6} of the alternating and symmetric
groups on four letters).

Membership is found by residue keys and confirmed exactly, with no field
inversion.  The matrices are reduced at the least split prime p of their
context (``modular.split_reductions(context, dens)``; for K[l], one where
lambda_sq reduces to a nonzero square) at which every generator, or every
2x2 restriction, is P-integral with a nonzero residue determinant.  Each
determinant is a nonzero element (in K[l], a unit, or
``cyclotomic._unit_norm`` raises), so only finitely many primes fail.  A
product's residue is the product of the residue matrices mod p, and its key
is that residue scaled so its first nonzero entry is 1.

Why distinct keys prove distinct elements.  Every element is a product of
P-integral matrices whose determinants are P-units, so it is one too.  If
A = cB, then c^3 = det A / det B is a P-unit, so c is a P-unit (in K[l], a
unit at the prime that is the kernel of the reduction; see ``modular``).
Then A-bar = c-bar * B-bar with c-bar nonzero, and A and B have the same
key.  Equal keys are only a candidate: two elements with one key are the
same element exactly when the cross-multiplication test
``geometry._proportional`` says so.  So an infinite group still runs past
any cap, and a collision of keys costs only a longer bucket.
"""

from __future__ import annotations

from collections import Counter

from .errors import (
    ClosureCapExceeded,
    CurveNotPreserved,
    InvariantViolation,
    LineNotPreserved,
)
from .cyclotomic import _unit_norm
from .geometry import ProjMatrix, _cross, _proportional
from .modular import split_reductions


def _det_mod(r, p):
    """Determinant mod p of a 2x2 or 3x3 residue matrix, entries row by row."""
    if len(r) == 4:
        a, b, c, d = r
        return (a * d - b * c) % p
    a, b, c, d, e, f, g, h, i = r
    return (a * (e * i - f * h) - b * (d * i - f * g) + c * (d * h - e * g)) % p


def _det(flat):
    """Exact determinant of a 2x2 or 3x3 matrix, entries row by row."""
    dot = flat[0].context.dot
    if len(flat) == 4:
        a, b, c, d = flat
        return dot((a, b), (d, -c))
    return dot(flat[:3], _cross(flat[3:6], flat[6:]))


def _mul3(a, b, p):
    """Product mod p of two 3x3 residue matrices, entries row by row."""
    a0, a1, a2, a3, a4, a5, a6, a7, a8 = a
    b0, b1, b2, b3, b4, b5, b6, b7, b8 = b
    return (
        (a0 * b0 + a1 * b3 + a2 * b6) % p,
        (a0 * b1 + a1 * b4 + a2 * b7) % p,
        (a0 * b2 + a1 * b5 + a2 * b8) % p,
        (a3 * b0 + a4 * b3 + a5 * b6) % p,
        (a3 * b1 + a4 * b4 + a5 * b7) % p,
        (a3 * b2 + a4 * b5 + a5 * b8) % p,
        (a6 * b0 + a7 * b3 + a8 * b6) % p,
        (a6 * b1 + a7 * b4 + a8 * b7) % p,
        (a6 * b2 + a7 * b5 + a8 * b8) % p,
    )


def _key_residues(context, flats, singular):
    """(p, residues) for square matrices given by their entries row by row.

    p is the least split prime at which every entry is P-integral and every
    residue determinant is nonzero (see the module docstring); residues
    lists each matrix's entries mod p.  A matrix whose residue determinant
    vanishes has its exact determinant checked: ValueError(singular % i)
    for the i-th if it is zero, ZeroDivisorEncountered if it is a zero
    divisor of K[l], else the next prime is tried.
    """
    dens = {c.den for flat in flats for c in flat}
    for red in split_reductions(context, dens):
        p = red.p
        residues = [tuple(map(red.element, flat)) for flat in flats]
        for i, r in enumerate(residues):
            if not _det_mod(r, p):
                det = _det(flats[i])
                if det.is_zero():
                    raise ValueError(singular % i)
                _unit_norm(det)
                break
        else:
            return p, residues


def _residue_key(r, p):
    """A nonzero residue matrix scaled so its first nonzero entry is 1."""
    for c in r:
        if c:
            break
    if c == 1:
        return r
    inv = pow(c, -1, p)
    return tuple(x * inv % p for x in r)


def _holds(index, key, flat):
    """Whether ``index`` files under ``key`` entries proportional to ``flat``."""
    return any(_proportional(flat, other) for other in index.get(key, ()))


def group_closure(generators, cap=1000, curve=None):
    """The group generated by invertible matrices: the identity, then coset by coset.

    A generator already in the group H found so far is skipped; a new one
    grows H by whole right cosets H*x, so each element costs at most one
    exact product, plus one per coset representative and generator used so
    far.  Each element carries its residue matrix, and membership is a
    residue key lookup confirmed exactly (see the module docstring).
    A ``curve`` is only validated: every generator must preserve it (one
    exact pullback each), else CurveNotPreserved.  It is for generators from
    outside the program; those of a census are proven by their
    classification and need no check.  A singular generator
    raises ValueError, and ClosureCapExceeded is raised exactly when the
    group has more than ``cap`` elements.

    Why this is the group.  By induction, the elements found before a new
    generator form the group H that the earlier ones generate.  From then on
    the elements found are a union of right cosets H*r, one per
    representative r, so an x = r*t outside the union starts a coset H*x
    disjoint from it, and its elements are filed with no membership test: no
    element is found twice.  The stage ends when r*t lies in the union for
    every representative r and used generator t.  As (H*r)*t = H*(r*t), the
    union then contains 1 and is closed under right multiplication by each
    used generator, so it holds every product of them, and nothing else.  A finite set of invertible
    matrices closed under products is a group (g^a = g^b gives
    g^-1 = g^(b-a-1)), so it is the group they generate; an infinite group
    runs past ``cap``.
    """
    if not generators:
        raise ValueError("need at least one generator")
    if curve is not None:
        form = curve.form
        for i, g in enumerate(generators):
            if not form.pullback(g).proportional_to(form):
                raise CurveNotPreserved("generator %d does not preserve the curve" % i)
    ctx = generators[0].context
    flats = [g.entries() for g in generators]
    p, gen_residues = _key_residues(ctx, flats, "generator %d is singular")
    identity = ProjMatrix.identity(ctx)
    unit = (1, 0, 0, 0, 1, 0, 0, 0, 1)
    elements, residues = [identity], [unit]
    index = {unit: [identity.entries()]}
    used = []
    for g, flat, gr in zip(generators, flats, gen_residues):
        if _holds(index, _residue_key(gr, p), flat):
            continue
        used.append((g, gr))
        subgroup = list(zip(elements, residues))
        reps = [(identity, unit)]
        for r, rr in reps:  # grows while it is iterated
            for t, tr in used:
                x, xr = (t, tr) if r is identity else (r * t, _mul3(rr, tr, p))
                if _holds(index, _residue_key(xr, p), x.entries()):
                    continue
                if len(elements) + len(subgroup) > cap:
                    raise ClosureCapExceeded(cap)
                reps.append((x, xr))
                for h, hr in subgroup:
                    y, yr = (x, xr) if h is identity else (h * x, _mul3(hr, xr, p))
                    index.setdefault(_residue_key(yr, p), []).append(y.entries())
                    elements.append(y)
                    residues.append(yr)
    return elements


def _is_scalar(rows):
    """Whether a square matrix is zero off the diagonal with one nonzero diagonal value."""
    d = rows[0][0]
    return not d.is_zero() and all(
        c == d if i == j else c.is_zero()
        for i, row in enumerate(rows)
        for j, c in enumerate(row)
    )


def _scalar_order(rows, dot, cap):
    """Smallest k >= 1 with the square matrix's k-th power scalar."""
    cols = list(zip(*rows))
    acc = rows
    for k in range(1, cap + 1):
        if _is_scalar(acc):
            return k
        acc = [[dot(row, col) for col in cols] for row in acc]
    raise ValueError("projective order exceeds cap")


def projective_order(matrix, cap=1000):
    """Smallest k >= 1 with matrix^k a scalar matrix."""
    return _scalar_order(matrix.rows, matrix.context.dot, cap)


def order_histogram(group):
    """Map projective element order -> count over the whole group."""
    return dict(Counter(projective_order(m, cap=len(group)) for m in group))


def restrict_to_line(matrix, line):
    """2x2 matrix of the action in the coordinates of the line's spanning vectors.

    V1 and V2 are e_k - coeff_k e_j for the two indices k != j of the line's
    pivot j, so a vector on the line has its entries at those indices as its
    coordinates.  Raises LineNotPreserved when the matrix does not map the
    line to itself.  The result is well defined up to the scalar class of
    `matrix`.
    """
    dot = matrix.context.dot
    images = [[dot(r, v) for r in matrix.rows] for v in line.spanning_vectors()]
    if not all(line.contains(w) for w in images):
        raise LineNotPreserved("the image vector does not lie on the line")
    j = next(i for i, c in enumerate(line.coeffs) if not c.is_zero())
    # M(s*V1 + t*V2) = (a*s + c*t) V1 + (b*s + d*t) V2
    (a, b), (c, d) = ([w[k] for k in range(3) if k != j] for w in images)
    return ((a, c), (b, d))


class LineActionReport:
    """Kernel size, image size and image order histogram of a line action."""

    __slots__ = ("group_order", "kernel_order", "image_order", "histogram")

    def __init__(self, group_order, kernel_order, image_order, histogram):
        self.group_order = group_order
        self.kernel_order = kernel_order
        self.image_order = image_order
        self.histogram = histogram

    def __repr__(self):
        return "LineActionReport(|G|=%d, kernel %d, image %d, histogram %r)" % (
            self.group_order,
            self.kernel_order,
            self.image_order,
            self.histogram,
        )


def line_action_analysis(group, line):
    """Restrict a matrix group to an invariant line and describe the quotient.

    Returns a LineActionReport; checks |G| = |kernel| * |image| as a
    homomorphism sanity check.  The restriction is multiplicative up to
    scalar, so the order of an image class is the least k with the k-th power
    of its 2x2 restriction scalar.  Image classes are told apart by residue
    keys confirmed exactly, at a prime chosen for the restrictions as for a
    closure's generators (see the module docstring).  Each restriction is
    reduced directly, and if A = cB for two of them, c^2 = det A / det B is a
    P-unit, so both get one key.
    """
    restrictions = [restrict_to_line(m, line) for m in group]
    flats = [(*r2[0], *r2[1]) for r2 in restrictions]
    p, residues = _key_residues(
        line.context, flats, "element %d restricts to a singular matrix"
    )
    index = {}
    images = []
    kernel_order = 0
    for r2, flat, res in zip(restrictions, flats, residues):
        key = _residue_key(res, p)
        if not _holds(index, key, flat):
            index.setdefault(key, []).append(flat)
            images.append(r2)
        kernel_order += _is_scalar(r2)
    if kernel_order * len(images) != len(group):
        raise InvariantViolation(
            "line action must be a homomorphism: |G| = |kernel| * |image|"
        )
    dot = line.context.dot
    orders = Counter(_scalar_order(r2, dot, cap=len(group)) for r2 in images)
    return LineActionReport(len(group), kernel_order, len(images), dict(orders))
