"""Homologies of the plane preserving a ternary form, and point classification.

A homology is a linear automorphism of the plane fixing a line (the axis)
pointwise and one extra point (the center); in suitable coordinates it is
diag(zeta, 1, 1) with ratio zeta != 1.  For a smooth plane curve C and a
point P, the nontrivial birational transformations preserving the fibers of
the projection from P are exactly the homologies with center P that map C to
itself, and together with the identity they form a cyclic group.  A point is
quasi-Galois when that group is nontrivial, and Galois when its order equals
the projection degree (deg C for P off the curve, deg C - 1 for P on it).

The solver reads the axis off the polars of P (I. Dolgachev, Classical
Algebraic Geometry: A Modern View, 2012, section 1.1).  In coordinates where
a homology of order n >= 2 with center P is X -> zeta X, every X-degree of
F is congruent to the top one mod n.  Off the curve the top degree is d, so
F has no X^(d-1) term and the axis is the polar line t . x = 0, with
t = grad F(P); Euler's identity t . P = d F(P) decides which case holds.  On
the curve the top degree is d - 1, so F has no X^(d-2) term and the polar
conic x^T Hess F(P) x is the tangent line times the axis: with t_k != 0 and
H = Hess F(P) the axis is 2 t_k H[:, k] - H_kk t.  One pullback G = F(B x) =
sum_i X^i * A_i(Y, Z), with B's columns P and two points spanning the axis,
then settles the order: the homology with that axis and ratio zeta maps G to
sum_i zeta^i X^i A_i, a multiple of G exactly when zeta^(m - i) = 1 for
every i with A_i != 0 (m the top X-degree).  So the group of homologies at P
is cyclic of order g = gcd{m - i : A_i != 0}, generated by the homology with
a primitive g-th root as ratio, and g divides the projection degree m unless
the axis is a component of the curve (A_0 = 0).
"""

from __future__ import annotations

from math import gcd

from .errors import InvariantViolation, NotAHomology
from .cyclotomic import multiplicative_order
from .geometry import (
    ProjLine,
    ProjMatrix,
    ProjPoint,
    _cross,
    intersection_multiplicity,
)


class Homology:
    """A homology (matrix, center, axis, ratio, multiplicative order)."""

    __slots__ = ("matrix", "center", "axis", "zeta", "order")

    def __init__(self, matrix, center, axis, zeta, order):
        self.matrix = matrix
        self.center = center
        self.axis = axis
        self.zeta = zeta
        self.order = order

    def __repr__(self):
        return "Homology(order %d, center %r, axis %r)" % (
            self.order,
            self.center,
            self.axis,
        )


def homology_matrix(center, axis, zeta):
    """Matrix of the homology with the given center, axis and ratio.

    The map is x -> x + (zeta - 1) * (axis(x) / axis(center)) * center; the
    center must not lie on the axis.
    """
    ctx = center.context
    denom = axis.evaluate(center)
    if denom.is_zero():
        raise ValueError("the center lies on the axis; not a homology")
    factor = (zeta - ctx.one()) * denom.inverse()
    rows = []
    for i in range(3):
        row = []
        for j in range(3):
            e = factor * center.coords[i] * axis.coeffs[j]
            if i == j:
                e = e + ctx.one()
            row.append(e)
        rows.append(row)
    return ProjMatrix(ctx, rows)


def _axis_and_order(form, point):
    """(on_curve, axis, g, t) at a point, by the solver of the module docstring.

    The inner axis a = 2 t_k H[:, k] - H_kk t is the polar conic divided by
    the tangent line, scaled by t_k so that no division is needed.  It never
    passes through the point, so B is invertible: H P = (d - 1) t and
    t . P = 0 give a . P = 2 (d - 1) t_k^2 != 0.  At an inner point
    t = grad F(P) is also the tangent line.  B's other two columns are the
    raw vectors e_i - a_i e_j of the canonical axis (a_j = 1), not scaled to
    canonical points: scaling a column of B scales Y or Z in every A_i, so it
    never changes which A_i vanish, and g is the same without the two
    inversions.  The canonical axis keeps the entries equal to one that the
    pullback skips.
    """
    ctx = form.context
    t = form.gradient_at(point)
    on_curve = ctx.dot(t, point.coords).is_zero()  # t . P = d * F(P)
    k = next((i for i, c in enumerate(t) if not c.is_zero()), None)
    if k is None:
        raise ValueError(
            "the curve is singular at the point; classification applies to "
            "smooth curves only"
        )
    if on_curve:
        h = form.partial(k).gradient_at(point)  # column k of Hess F(P)
        two_tk = ctx.from_int(2) * t[k]
        axis = ProjLine(ctx, [two_tk * h[j] - h[k] * t[j] for j in range(3)])
    else:
        axis = ProjLine(ctx, t)
    B = ProjMatrix(ctx, list(zip(point.coords, *axis.spanning_vectors())))
    G = form.pullback(B)
    degrees = {i for i, _, _ in G.terms}
    m = max(degrees)
    return on_curve, axis, gcd(*(m - i for i in degrees)), t


def solve_homology(form, point, zeta):
    """The homology with center `point` and ratio `zeta` preserving `form`.

    Returns a Homology, or None when no such map exists; `zeta` must be
    different from 1.  The axis is read off the polars of the point
    (I. Dolgachev, Classical Algebraic Geometry: A Modern View, 2012, section
    1.1), and the map exists exactly when zeta^g = 1 for g = gcd{m - i :
    A_i != 0} of one pullback in coordinates adapted to the point and the
    axis (see the module docstring); it is then the homology with that axis
    and ratio `zeta`, of order multiplicative_order(zeta).  On a smooth curve
    g divides the projection degree, so a ratio whose order does not divide
    it gives None.
    """
    ctx = form.context
    if zeta == ctx.one():
        raise ValueError("the ratio of a homology is different from 1")
    _, axis, g, _ = _axis_and_order(form, point)
    if zeta ** g != ctx.one():
        return None
    return Homology(
        homology_matrix(point, axis, zeta), point, axis, zeta, multiplicative_order(zeta)
    )


class PointRecord:
    """One point on one curve: classified, or carried from its preimage in an orbit."""

    __slots__ = (
        "point",
        "on_curve",
        "projection_degree",
        "order",
        "generator",
        "tangency",
    )

    def __init__(self, point, on_curve, projection_degree, order, generator, tangency):
        self.point = point
        self.on_curve = on_curve
        self.projection_degree = projection_degree
        self.order = order
        self.generator = generator
        self.tangency = tangency

    @property
    def kind(self):
        return "inner" if self.on_curve else "outer"

    @property
    def is_quasi_galois(self):
        return self.order >= 2

    @property
    def is_galois(self):
        return self.order == self.projection_degree

    def __repr__(self):
        return "PointRecord(%r, %s, order %d/%d)" % (
            self.point,
            self.kind,
            self.order,
            self.projection_degree,
        )


def classify_point(form, point):
    """Order and generator of the group of homologies at a point.

    The axis comes from the polars of the point (I. Dolgachev, Classical
    Algebraic Geometry: A Modern View, 2012, section 1.1) and the order g from
    one pullback in coordinates adapted to the point and the axis (see the
    module docstring); g is a proof, so the generator, the homology with that
    axis and a primitive g-th root as ratio, needs no confirming pullback.
    The order needs no root of unity, only the generator does:
    RootOfUnityUnavailable is raised exactly when g >= 2 and the field has no
    primitive g-th root.
    """
    ctx = form.context
    on_curve, axis, g, t = _axis_and_order(form, point)
    deg_pi = form.degree - 1 if on_curve else form.degree
    if g == 0 or deg_pi % g != 0:
        raise InvariantViolation(
            "the order of the homologies at a point must divide the projection "
            "degree; the axis is a component of the curve"
        )
    if g == 1:
        return PointRecord(point, on_curve, deg_pi, 1, None, None)
    zeta = ctx.root_of_unity(g)
    generator = Homology(homology_matrix(point, axis, zeta), point, axis, zeta, g)
    tangency = None
    if on_curve:
        tangency = intersection_multiplicity(form, ProjLine(ctx, t), point)
        if tangency % g != 1:
            raise InvariantViolation(
                "tangency order at an inner quasi-Galois point must be 1 mod n"
            )
    return PointRecord(point, on_curve, deg_pi, g, generator, tangency)


def homology_from_matrix(matrix):
    """Recognize a matrix as a homology; raises NotAHomology otherwise.

    The characteristic polynomial t^3 - s1 t^2 + s2 t - s3 must have a double
    eigenvalue nu and a simple one mu with rank(M - nu I) = 1; then the axis
    is the row space of M - nu I, the center its column space, and the ratio
    mu / nu, whose order multiplicative_order reads off mu(K).  A homology is
    invertible, so s3 = det M = 0 is rejected first; then nu != 0.  The
    eigenvalues come in closed form: roots nu, nu, mu give s1^2 - 3 s2 =
    (nu - mu)^2 and s1 s2 - 9 s3 = 2 nu (nu - mu)^2.  So s1^2 = 3 s2 rules
    out a homology (a triple root, or distinct roots such as those of a
    3-cycle); otherwise nu is the quotient of the two, mu = s1 - 2 nu, and
    the candidate is kept only when s2 = nu^2 + 2 nu mu and s3 = nu^2 mu hold
    exactly.
    """
    ctx = matrix.context
    r = matrix.rows
    adj = matrix.adjugate().rows  # its diagonal: the principal 2x2 minors
    s1 = r[0][0] + r[1][1] + r[2][2]
    s2 = adj[0][0] + adj[1][1] + adj[2][2]
    s3 = matrix.det()
    if s3.is_zero():
        raise NotAHomology("a homology is invertible")
    gap = s1 * s1 - 3 * s2
    if gap.is_zero():
        raise NotAHomology(
            "a homology has exactly one repeated eigenvalue (multiplicity 2)"
        )
    nu = (s1 * s2 - 9 * s3) * (2 * gap).inverse()
    mu = s1 - 2 * nu
    if s2 != nu * nu + 2 * nu * mu or s3 != nu * nu * mu:
        raise NotAHomology("the characteristic polynomial has no double root")
    # M - nu I must have rank exactly 1
    shifted = [
        [r[i][j] - (nu if i == j else ctx.zero()) for j in range(3)]
        for i in range(3)
    ]
    # M - nu I is not zero: a scalar matrix has s1^2 = 3 s2
    axis_row = next(row for row in shifted if any(not c.is_zero() for c in row))
    for row in shifted:
        # cross product with the chosen row must vanish (proportionality)
        if any(not c.is_zero() for c in _cross(axis_row, row)):
            raise NotAHomology("the repeated eigenspace is not a plane")
    axis = ProjLine(ctx, axis_row)
    # M - nu I = u v^T with v^T u = mu - nu != 0, so M u = mu u: the center is
    # any nonzero column, as the axis is any nonzero row
    k = next(j for j, c in enumerate(axis_row) if not c.is_zero())
    center = ProjPoint(ctx, [row[k] for row in shifted])
    zeta = mu * nu.inverse()
    order = multiplicative_order(zeta)
    if order is None:
        raise NotAHomology("the ratio is not a root of unity")
    return Homology(matrix, center, axis, zeta, order)
