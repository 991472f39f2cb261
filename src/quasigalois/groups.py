"""Finite matrix groups generated by homologies, and their action on a line.

A closure is Dimino's coset enumeration (G. Butler, Fundamental Algorithms
for Permutation Groups, LNCS 559, 1991) on exact canonical keys, so
matrices are told apart up to scalar.  An element's projective order is the
least power that is a scalar matrix.  When every generator preserves a
line, the restriction to that line in the coordinates of its two spanning
vectors is a 2x2 matrix, well defined up to scalar; the induced map
is a group homomorphism, and its kernel size, image size and the image's
element-order histogram identify the quotient (for example the histograms
{1:1, 2:3, 3:8} and {1:1, 2:9, 3:8, 4:6} of the alternating and symmetric
groups on four letters).
"""

from __future__ import annotations

from collections import Counter

from .errors import (
    ClosureCapExceeded,
    CurveNotPreserved,
    InvariantViolation,
    LineNotPreserved,
)
from .geometry import ProjMatrix, _canonicalize


def group_closure(generators, cap=1000, curve=None):
    """The group generated by invertible matrices: the identity, then coset by coset.

    A generator already in the group H found so far is skipped; a new one
    grows H by whole right cosets H*x, so each element costs at most one
    exact product, plus one per coset representative and generator used so
    far.
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
    disjoint from it; a key seen twice raises InvariantViolation.  The stage
    ends when r*t lies in the union for every representative r and used
    generator t.  As (H*r)*t = H*(r*t), the union then contains 1 and is
    closed under right multiplication by each used generator, so it holds
    every product of them, and nothing else.  A finite set of invertible
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
    for i, g in enumerate(generators):
        if g.det().is_zero():
            raise ValueError("generator %d is singular" % i)
    identity = ProjMatrix.identity(generators[0].context)
    elements = [identity]
    seen = {identity.canonical_key()}
    used = []
    for g in generators:
        if g.canonical_key() in seen:
            continue
        used.append(g)
        subgroup = list(elements)
        reps = [identity]
        for r in reps:  # grows while it is iterated
            for t in used:
                x = t if r is identity else r * t
                if x.canonical_key() in seen:
                    continue
                if len(seen) + len(subgroup) > cap:
                    raise ClosureCapExceeded(cap)
                reps.append(x)
                for h in subgroup:
                    y = x if h is identity else h * x
                    key = y.canonical_key()
                    if key in seen:
                        raise InvariantViolation("right cosets of a subgroup must be disjoint")
                    seen.add(key)
                    elements.append(y)
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


def _canon2(m2):
    return tuple(c.key() for c in _canonicalize((*m2[0], *m2[1])))


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
    of its 2x2 restriction scalar.
    """
    images = {}
    kernel_order = 0
    for m in group:
        r2 = restrict_to_line(m, line)
        images.setdefault(_canon2(r2), r2)
        kernel_order += _is_scalar(r2)
    if kernel_order * len(images) != len(group):
        raise InvariantViolation(
            "line action must be a homomorphism: |G| = |kernel| * |image|"
        )
    dot = line.context.dot
    orders = Counter(_scalar_order(r2, dot, cap=len(group)) for r2 in images.values())
    return LineActionReport(len(group), kernel_order, len(images), dict(orders))
