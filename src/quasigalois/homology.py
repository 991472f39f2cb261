"""Homologies of the plane preserving a ternary form, and point classification.

A homology is a linear automorphism of the plane fixing a line (the axis)
pointwise and one extra point (the center); in suitable coordinates it is
diag(zeta, 1, 1) with ratio zeta != 1.  For a smooth plane curve C and a
point P, the nontrivial birational transformations preserving the fibers of
the projection from P are exactly the homologies with center P that map C to
itself, and together with the identity they form a cyclic group.  A point is
quasi-Galois when that group is nontrivial, and Galois when its order equals
the projection degree (deg C for P off the curve, deg C - 1 for P on it).

The solver moves P to (1:0:0), expands the form as sum_i X^i * A_(d-i)(Y,Z),
and uses the fact that invariance under (X, Y, Z) -> (zeta X + bY + cZ, Y, Z)
forces the scalar to be zeta^m (m the largest X-degree) and pins (b, c) down
through the linear identity m*(bY+cZ)*A_(d-m) = (zeta-1)*A_(d-m+1); the
candidate is then verified by one exact pullback.  classify_point moves P
once and solves every candidate order on that one moved form, whose X^d
coefficient F(P) also decides whether P is on the curve; each candidate that
passes the linear step is still verified by its own exact pullback.  Testing
a single primitive n-th root per candidate order n is complete because all
homologies with center P share an axis and form a cyclic group, so an element
of order n exists iff one with the chosen primitive ratio does.
"""

from __future__ import annotations

from .errors import (
    InvariantViolation,
    NotAHomology,
    OrderNotDividing,
    RootOfUnityUnavailable,
)
from .cyclotomic import multiplicative_order
from .geometry import (
    ProjLine,
    ProjMatrix,
    ProjPoint,
    _cross,
    intersection_multiplicity,
    tangent_line,
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

    def __eq__(self, other):
        if not isinstance(other, Homology):
            return NotImplemented
        return self.matrix == other.matrix

    def __hash__(self):
        return hash(self.matrix)

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


def _standard_basis_point(ctx, k):
    coords = [ctx.zero(), ctx.zero(), ctx.zero()]
    coords[k] = ctx.one()
    return ProjPoint(ctx, coords)


def _move_to_origin(form, point):
    """Base change B moving (1:0:0) to `point`, G = F(B x) and G's X-degree buckets.

    B's first column is the point and its others are the two standard basis
    vectors off the point's pivot.  Buckets map i to A_(d-i)(Y, Z) of
    G = sum_i X^i * A_(d-i)(Y, Z), stored as a dense list indexed by the
    Z-exponent.
    """
    ctx = form.context
    d = form.degree
    piv = next(i for i, c in enumerate(point.coords) if not c.is_zero())
    others = [k for k in range(3) if k != piv]
    cols = [point] + [_standard_basis_point(ctx, k) for k in others]
    B = ProjMatrix.from_columns(*cols)
    G = form.pullback(B)
    zero = ctx.zero()
    buckets = {}
    for (i, j, k), c in G.terms.items():
        arr = buckets.get(i)
        if arr is None:
            arr = [zero] * (d - i + 1)
            buckets[i] = arr
        arr[k] = c
    return B, G, buckets


def solve_homology(form, point, zeta, order=None):
    """The homology with center `point` and ratio `zeta` preserving `form`.

    Returns a Homology, or None when no such map exists.  `zeta` must be
    different from 1; `order` (its multiplicative order) is computed when not
    supplied.
    """
    if zeta == form.context.one():
        raise ValueError("the ratio of a homology is different from 1")
    return _solve_moved(_move_to_origin(form, point), point, zeta, order)


def _solve_moved(moved, point, zeta, order):
    """solve_homology on a form already moved by _move_to_origin."""
    B, G, buckets = moved
    ctx = G.context
    one = ctx.one()
    zero = ctx.zero()
    d = G.degree
    m = max(buckets, default=0)
    if m == 0:
        raise ValueError(
            "the form is a cone with vertex at the point; classification "
            "applies to smooth curves only"
        )
    if order is not None and m % order != 0:
        raise OrderNotDividing(
            f"order {order} does not divide the projection degree {m}"
        )
    a_top = buckets[m]  # degree d - m, not identically zero
    a_next = buckets.get(m - 1, [zero] * (d - m + 2))
    if all(c.is_zero() for c in a_next):
        b = zero
        c = zero
    else:
        # solve (bY + cZ) * a_top = ((zeta - 1)/m) * a_next coefficient-wise:
        # target_s = b * a_top[s] + c * a_top[s-1]
        scalar = (zeta - one) * ctx.from_int(m).inverse()
        target = [scalar * v for v in a_next]

        def at(arr, s):
            return arr[s] if 0 <= s < len(arr) else zero

        s0 = next(s for s, v in enumerate(a_top) if not v.is_zero())
        inv = a_top[s0].inverse()
        b = at(target, s0) * inv
        c = (at(target, s0 + 1) - b * at(a_top, s0 + 1)) * inv
        for s in range(len(target)):
            if target[s] != b * at(a_top, s) + c * at(a_top, s - 1):
                return None
    m_local = ProjMatrix(
        ctx,
        [
            [zeta, b, c],
            [zero, one, zero],
            [zero, zero, one],
        ],
    )
    if G.pullback(m_local) != G.scale(zeta ** m):
        return None
    binv = B.inverse()
    matrix = B * m_local * binv
    v = (zeta - one, b, c)
    axis = ProjLine(ctx, [ctx.dot(v, col) for col in zip(*binv.rows)])
    n = order if order is not None else multiplicative_order(zeta)
    return Homology(matrix, point, axis, zeta, n)


class PointRecord:
    """Result of classifying one point against one curve."""

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

    Moves the point to (1:0:0) once, then tries every order n >= 2 dividing
    the projection degree on that one moved form; the group being cyclic, the
    successful orders must be exactly the divisors > 1 of the maximum, which
    is asserted.  Raises RootOfUnityUnavailable if some candidate order has
    no primitive root in the field, since the classification could not be
    certified there.
    """
    ctx = form.context
    d = form.degree
    moved = _move_to_origin(form, point)
    _, G, _ = moved
    # F(point) is G(1:0:0), the coefficient of X^d in G = F(B x)
    on_curve = (d, 0, 0) not in G.terms
    deg_pi = d - 1 if on_curve else d
    candidates = [n for n in range(2, deg_pi + 1) if deg_pi % n == 0]
    for n in candidates:
        if not ctx.root_of_unity_order_available(n):
            raise RootOfUnityUnavailable(n, ctx.conductor, ctx.suggested_conductor(n))
    found = {}
    for n in candidates:
        h = _solve_moved(moved, point, ctx.root_of_unity(n), n)
        if h is not None:
            found[n] = h
    if not found:
        return PointRecord(point, on_curve, deg_pi, 1, None, None)
    order = max(found)
    if set(found) != {n for n in candidates if order % n == 0}:
        raise InvariantViolation(
            "homology orders at a point must be the divisors of the maximum"
        )
    tangency = None
    if on_curve:
        t = tangent_line(form, point)
        tangency = intersection_multiplicity(form, t, point)
        if tangency % order != 1:
            raise InvariantViolation(
                "tangency order at an inner quasi-Galois point must be 1 mod n"
            )
    return PointRecord(point, on_curve, deg_pi, order, found[order], tangency)


def homology_from_matrix(matrix, order_cap=256):
    """Recognize a matrix as a homology; raises NotAHomology otherwise.

    The characteristic polynomial must have a double eigenvalue nu and a
    simple one mu with rank(M - nu I) = 1; then the axis is the row space of
    M - nu I, the center spans the kernel of M - mu I, and the ratio is
    mu / nu.
    """
    from .unipoly import UniPoly, poly_gcd

    ctx = matrix.context
    r = matrix.rows
    # characteristic polynomial det(tI - M) = t^3 - tr t^2 + c2 t - det
    tr = r[0][0] + r[1][1] + r[2][2]
    c2 = (
        (r[1][1] * r[2][2] - r[1][2] * r[2][1])
        + (r[0][0] * r[2][2] - r[0][2] * r[2][0])
        + (r[0][0] * r[1][1] - r[0][1] * r[1][0])
    )
    det = matrix.det()
    chi = UniPoly(ctx, [-det, c2, -tr, ctx.one()])
    g = poly_gcd(chi, chi.derivative())
    if g.degree() != 1:
        raise NotAHomology(
            "a homology has exactly one repeated eigenvalue (multiplicity 2)"
        )
    nu = -(g.coeff(0) * g.coeff(1).inverse())
    quot = chi.exact_div(UniPoly(ctx, [-nu, ctx.one()]) ** 2)
    mu = -(quot.coeff(0) * quot.coeff(1).inverse())
    if mu == nu:
        raise NotAHomology("all eigenvalues coincide")
    # M - nu I must have rank exactly 1
    shifted = [
        [r[i][j] - (nu if i == j else ctx.zero()) for j in range(3)]
        for i in range(3)
    ]
    axis_row = None
    for row in shifted:
        if any(not c.is_zero() for c in row):
            axis_row = row
            break
    if axis_row is None:
        raise NotAHomology("the matrix is scalar")
    for row in shifted:
        # cross product with the chosen row must vanish (proportionality)
        if any(not c.is_zero() for c in _cross(axis_row, row)):
            raise NotAHomology("the repeated eigenspace is not a plane")
    axis = ProjLine(ctx, axis_row)
    # center: kernel of M - mu I via cross products of two independent rows
    shifted_mu = [
        [r[i][j] - (mu if i == j else ctx.zero()) for j in range(3)]
        for i in range(3)
    ]
    center = None
    for i in range(3):
        for j in range(i + 1, 3):
            cross = _cross(shifted_mu[i], shifted_mu[j])
            if any(not c.is_zero() for c in cross):
                center = ProjPoint(ctx, cross)
                break
        if center is not None:
            break
    if center is None:
        raise NotAHomology("the simple eigenspace is degenerate")
    zeta = mu * nu.inverse()
    order = multiplicative_order(zeta, cap=order_cap)
    if order is None:
        raise NotAHomology("the ratio is not a root of unity within the cap")
    return Homology(matrix, center, axis, zeta, order)
