"""Projective plane geometry and ternary forms over a field context.

Points and lines share one body, a canonical triple `coords` scaled so its
first nonzero entry is 1 (a line's `coeffs` is the same triple), so equality
and hashing are projective.  Forms and matrices are compared up to a scalar
with no inversion, by cross-multiplying against the first nonzero entry
(`_proportional`); a matrix's hash and `canonical_key` use the canonical
scaling of its nine entries, which equal matrices share.  Ternary forms are
sparse exponent dictionaries; restriction to a line produces a binary form
in the parametrization by the line's two spanning vectors, from which
intersection multiplicities and full intersection profiles are computed
exactly.

Every entry of a matrix product, point or line image, 2x2 minor (cross
products, determinant, adjugate) and every value of a line or form at a point
is one call of the context's sum-of-products kernel (FieldContext.dot), which
normalizes once per sum and returns the same element as adding the products
one at a time.
"""

from __future__ import annotations

from .cyclotomic import FieldElement, _unit_norm
from .errors import (
    InvariantViolation,
    LineContainedInCurve,
    NotSmooth,
    PointNotOnCurve,
    PointNotOnLine,
)


def _canonicalize(coords):
    """Scale a nonzero coordinate tuple so its first nonzero entry is 1.

    Only the entries after the pivot that are not zero pay a product: the
    zeros before and after it stay as they are, and the pivot becomes one.
    """
    for p, pivot in enumerate(coords):
        if not pivot.is_zero():
            break
    else:
        raise ValueError("all coordinates are zero")
    if pivot.is_one():
        return tuple(coords)
    inv = pivot.inverse()
    return (
        *coords[:p],
        pivot.context.one(),
        *(c if c.is_zero() else c * inv for c in coords[p + 1 :]),
    )


def _proportional(xs, ys):
    """Whether two coordinate sequences differ by a unit factor, with no inversion.

    They must have their zeros in the same places and, at the first nonzero
    index p, x_i * y_p = y_i * x_p for every i: one 2-term sum of products
    per entry, stopping at the first that is not zero.  With x_p and y_p
    units this says x = (x_p / y_p) * y; when they are equal it says x = y,
    checked entry by entry.  In a field every nonzero pivot is a unit; in
    K[l] = K x K a pivot that is a zero divisor raises
    ZeroDivisorEncountered, as inverting it would.  Two zero sequences are
    proportional.
    """
    xp = None
    for x, y in zip(xs, ys):
        if x.is_zero():
            if not y.is_zero():
                return False
        elif y.is_zero():
            return False
        elif xp is None:
            xp, yp = x, y
            same = x == y
            if not same:
                dot = x.context.dot
                neg = -x
                _unit_norm(x)
                _unit_norm(y)
        elif same:
            if x != y:
                return False
        elif not dot((x, y), (yp, neg)).is_zero():
            return False
    return True


def _cross(a, b):
    """Cross product of two coordinate triples, each entry one 2x2 minor."""
    dot = a[0].context.dot
    return [
        dot((a[1], a[2]), (b[2], -b[1])),
        dot((a[2], a[0]), (b[0], -b[2])),
        dot((a[0], a[1]), (b[1], -b[0])),
    ]


def _gcd_coeffs(f, g):
    """A gcd, up to a scalar, of two polynomials given as low-to-high lists.

    Both lists end in a nonzero coefficient.  Euclid's algorithm: each
    remainder subtracts multiples of the divisor, scaled by the inverse of
    its leading coefficient, until the degree drops below the divisor's.
    Returns the last nonzero remainder, which ends in a nonzero coefficient.
    """
    f, g = list(f), list(g)
    while g:
        inv = g[-1].inverse()
        while len(f) >= len(g):
            shift = len(f) - len(g)
            c = f.pop() * inv
            for j in range(len(g) - 1):
                f[shift + j] = f[shift + j] - c * g[j]
            while f and f[-1].is_zero():
                f.pop()
        f, g = g, f
    return f


def _powers(base, d, one):
    """The list [one, base, base^2, ..., base^d]."""
    out = [one]
    for _ in range(d):
        out.append(out[-1] * base)
    return out


class _Triple:
    """The canonical triple of points and lines; a point never equals a line."""

    __slots__ = ("context", "coords")

    def __init__(self, context, coords):
        coords = [context.embed(c) if c.context is not context else c for c in coords]
        if len(coords) != 3:
            raise ValueError(self._LENGTH_MESSAGE)
        self.context = context
        self.coords = _canonicalize(coords)

    @classmethod
    def from_ints(cls, context, ints):
        return cls(context, [context.from_int(k) for k in ints])

    def key(self):
        return tuple(c.key() for c in self.coords)

    def __eq__(self, other):
        if not isinstance(other, type(self)):
            return NotImplemented
        return self.coords == other.coords

    def __hash__(self):
        return hash(self.key())


class ProjPoint(_Triple):
    """Point of the projective plane, canonically scaled."""

    __slots__ = ()
    _LENGTH_MESSAGE = "a plane point needs 3 coordinates"

    def __repr__(self):
        return "(%r : %r : %r)" % self.coords


class ProjLine(_Triple):
    """Line a*X + b*Y + c*Z = 0, coefficients canonically scaled."""

    __slots__ = ()
    _LENGTH_MESSAGE = "a line needs 3 coefficients"

    @property
    def coeffs(self):
        return self.coords

    @classmethod
    def through(cls, p, q):
        """The unique line through two distinct points (cross product)."""
        if p == q:
            raise ValueError("points coincide; no unique line")
        return cls(p.context, _cross(p.coords, q.coords))

    def evaluate(self, point):
        """Value of the linear form at a point or a coordinate vector."""
        x = point.coords if isinstance(point, ProjPoint) else point
        return self.context.dot(self.coords, x)

    def contains(self, point):
        return self.evaluate(point).is_zero()

    def spanning_vectors(self):
        """Two coordinate vectors spanning the line, not canonically scaled.

        With j the first index where the line has a nonzero coefficient, so
        coeff_j = 1 by the canonical scaling, the vectors are e_k - coeff_k e_j
        for the two indices k != j, in increasing order of k.
        """
        ctx = self.context
        j = next(i for i, c in enumerate(self.coords) if not c.is_zero())
        vecs = []
        for k in range(3):
            if k == j:
                continue
            coords = [ctx.zero(), ctx.zero(), ctx.zero()]
            coords[k] = ctx.one()
            coords[j] = -self.coords[k]
            vecs.append(coords)
        return vecs

    def meet(self, other):
        """Intersection point of two distinct lines (cross product)."""
        if self == other:
            raise ValueError("lines coincide; no unique intersection")
        return ProjPoint(self.context, _cross(self.coords, other.coords))

    def __repr__(self):
        return "Line[%r, %r, %r]" % self.coords


class ProjMatrix:
    """3x3 matrix acting on the plane; projective equality via canonical scaling."""

    __slots__ = ("context", "rows")

    def __init__(self, context, rows):
        rows = tuple(
            tuple(context.embed(c) if c.context is not context else c for c in row)
            for row in rows
        )
        if len(rows) != 3 or any(len(r) != 3 for r in rows):
            raise ValueError("expected a 3x3 matrix")
        self.context = context
        self.rows = rows

    @classmethod
    def identity(cls, context):
        one, zero = context.one(), context.zero()
        return cls(context, [[one, zero, zero], [zero, one, zero], [zero, zero, one]])

    @classmethod
    def from_ints(cls, context, rows):
        return cls(context, [[context.from_int(k) for k in row] for row in rows])

    @classmethod
    def from_columns(cls, p1, p2, p3):
        """Matrix whose columns are the coordinates of three points."""
        ctx = p1.context
        cols = [p1.coords, p2.coords, p3.coords]
        return cls(ctx, [[cols[j][i] for j in range(3)] for i in range(3)])

    def __mul__(self, other):
        if not isinstance(other, ProjMatrix):
            return NotImplemented
        dot = self.context.dot
        cols = list(zip(*other.rows))
        return ProjMatrix(
            self.context, [[dot(row, col) for col in cols] for row in self.rows]
        )

    def det(self):
        r = self.rows
        return self.context.dot(r[0], _cross(r[1], r[2]))

    def adjugate(self):
        """Transposed cofactors: column j is the cross product of the other two rows."""
        r = self.rows
        cols = (_cross(r[1], r[2]), _cross(r[2], r[0]), _cross(r[0], r[1]))
        return ProjMatrix(self.context, list(zip(*cols)))

    def apply_to_point(self, point):
        dot = self.context.dot
        x = point.coords
        return ProjPoint(self.context, [dot(row, x) for row in self.rows])

    def apply_to_line(self, line):
        """Image of a line under the point action x -> Mx: the covector a * adj(M).

        adj(M) = det(M) * M^-1, and a line is a covector up to scalar, so this
        is a * M^-1 with no field inversion.
        """
        dot = self.context.dot
        adj = self.adjugate().rows
        # Laplace expansion along row 0 reuses the adjugate's first column
        if dot(self.rows[0], [row[0] for row in adj]).is_zero():
            raise ZeroDivisionError("matrix is singular")
        a = line.coords
        return ProjLine(self.context, [dot(a, col) for col in zip(*adj)])

    def canonical_key(self):
        """Hashable key invariant under scalar rescaling of the matrix."""
        return tuple(c.key() for c in _canonicalize(self.entries()))

    def entries(self):
        """The nine entries, row by row."""
        return [c for row in self.rows for c in row]

    def __eq__(self, other):
        if not isinstance(other, ProjMatrix):
            return NotImplemented
        return _proportional(self.entries(), other.entries())

    def __hash__(self):
        return hash(self.canonical_key())

    def __repr__(self):
        return "ProjMatrix(%r)" % (self.rows,)


# ---------------------------------------------------------------------------
# ternary forms
# ---------------------------------------------------------------------------
#
# The substitution kernel packs an exponent (i, j, k) of a degree-d form as
# i*b^2 + j*b + k with b = d + 1, so multiplying by a variable adds a constant
# shift.  A linear form is the list of its nonzero (shift, coefficient) pairs.
# Factors equal to one are passed as the context's `one` object itself and
# skipped by an identity test; that only saves work, never changes a value.


def _times_linear(poly, lin, one):
    """Product of a packed form with a linear form."""
    out = {}
    for e, c in poly.items():
        for s, a in lin:
            v = c if a is one else a if c is one else c * a
            f = e + s
            w = out.get(f)
            out[f] = v if w is None else w + v
    return out


def _add_scaled(acc, poly, c, one):
    """acc += c * poly, in place on the packed form acc."""
    for e, v in poly.items():
        if v is one:
            v = c
        elif c is not one:
            v = c * v
        w = acc.get(e)
        acc[e] = v if w is None else w + v


def _substitute(terms, degree, one, rows):
    """Exponent map of F(M x), for F's exponent map `terms` and the rows of M.

    The nested Horner steps of HomoPoly.pullback; the map may hold zero
    coefficients.
    """
    if not terms:
        return {}
    b = degree + 1
    l0, l1, l2 = (
        [
            (s, one if a.is_one() else a)
            for s, a in zip((b * b, b, 1), row)
            if not a.is_zero()
        ]
        for row in rows
    )
    by_x = {}
    for (i, j, k), c in terms.items():
        by_x.setdefault(i, {})[j] = one if c.is_one() else c
    z_pows = [{0: one}]
    for _ in range(max(k for _, _, k in terms)):
        z_pows.append(_times_linear(z_pows[-1], l2, one))
    acc = {}
    for i in range(max(by_x), -1, -1):
        acc = _times_linear(acc, l0, one)
        a_i = by_x.get(i)
        if a_i is None:
            continue
        inner = {}
        for j in range(max(a_i), -1, -1):
            inner = _times_linear(inner, l1, one)
            c = a_i.get(j)
            if c is not None:
                _add_scaled(inner, z_pows[degree - i - j], c, one)
        _add_scaled(acc, inner, one, one)
    return {(e // (b * b), e // b % b, e % b): c for e, c in acc.items()}


class HomoPoly:
    """Homogeneous ternary form: sparse map (i, j, k) -> coefficient, i+j+k = d."""

    __slots__ = ("context", "degree", "terms")

    def __init__(self, context, degree, terms):
        clean = {}
        for exps, coeff in terms.items():
            i, j, k = exps
            if i + j + k != degree or min(i, j, k) < 0:
                raise ValueError(
                    "exponent %r incompatible with degree %d" % (exps, degree)
                )
            if not coeff.is_zero():
                clean[(i, j, k)] = coeff
        self.context = context
        self.degree = degree
        self.terms = clean

    @classmethod
    def from_int_terms(cls, context, degree, int_terms):
        return cls(
            context,
            degree,
            {e: context.from_int(c) for e, c in int_terms.items()},
        )

    @classmethod
    def zero(cls, context, degree):
        return cls(context, degree, {})

    @classmethod
    def linear_form(cls, context, coeffs):
        return cls(
            context,
            1,
            {(1, 0, 0): coeffs[0], (0, 1, 0): coeffs[1], (0, 0, 1): coeffs[2]},
        )

    def is_zero(self):
        return not self.terms

    def coeff(self, exps):
        return self.terms.get(tuple(exps), self.context.zero())

    def __add__(self, other):
        if self.degree != other.degree:
            raise ValueError("degrees differ")
        out = dict(self.terms)
        zero = self.context.zero()
        for e, c in other.terms.items():
            out[e] = out.get(e, zero) + c
        return HomoPoly(self.context, self.degree, out)

    def __neg__(self):
        return HomoPoly(
            self.context, self.degree, {e: -c for e, c in self.terms.items()}
        )

    def __sub__(self, other):
        return self + (-other)

    def scale(self, s):
        """The form times a field element, an int or a Fraction."""
        if not isinstance(s, FieldElement):
            s = self.context.from_rational(s)
        if s.is_zero():
            return HomoPoly.zero(self.context, self.degree)
        return HomoPoly(
            self.context, self.degree, {e: c * s for e, c in self.terms.items()}
        )

    def __mul__(self, other):
        if not isinstance(other, HomoPoly):
            return self.scale(other)
        zero = self.context.zero()
        out = {}
        for e1, c1 in self.terms.items():
            for e2, c2 in other.terms.items():
                e = (e1[0] + e2[0], e1[1] + e2[1], e1[2] + e2[2])
                out[e] = out.get(e, zero) + c1 * c2
        return HomoPoly(self.context, self.degree + other.degree, out)

    __rmul__ = __mul__

    def evaluate(self, point):
        """Value at a point (depends on the chosen representative's scaling)."""
        ctx = self.context
        x, y, z = point.coords if isinstance(point, ProjPoint) else point
        d = self.degree
        px = _powers(x, d, ctx.one())
        py = _powers(y, d, ctx.one())
        pz = _powers(z, d, ctx.one())
        return ctx.dot(
            self.terms.values(),
            [px[i] * py[j] * pz[k] for i, j, k in self.terms],
        )

    def vanishes_at(self, point):
        return self.evaluate(point).is_zero()

    def partial(self, var):
        """Partial derivative with respect to variable index 0, 1 or 2."""
        ctx = self.context
        out = {}
        for e, c in self.terms.items():
            if e[var] == 0:
                continue
            ne = list(e)
            ne[var] -= 1
            out[tuple(ne)] = c * ctx.from_int(e[var])
        return HomoPoly(ctx, self.degree - 1, out)

    def gradient_at(self, point):
        """The three partial derivatives at a point, in one pass over F's terms.

        The term c X^i Y^j Z^k adds i c X^(i-1) Y^j Z^k to dF/dX, and likewise
        for Y and Z; each monomial of degree d - 1 is formed once from three
        power lists, and each partial is one sum of products.
        """
        ctx = self.context
        x, y, z = point.coords if isinstance(point, ProjPoint) else point
        one = ctx.one()
        px, py, pz = (_powers(v, self.degree - 1, one) for v in (x, y, z))
        monomials = {}
        coeffs, values = ([], [], []), ([], [], [])
        for e, c in self.terms.items():
            for v in range(3):
                if e[v]:
                    i, j, k = m = (*e[:v], e[v] - 1, *e[v + 1 :])
                    value = monomials.get(m)
                    if value is None:
                        value = monomials[m] = px[i] * py[j] * pz[k]
                    coeffs[v].append(c * ctx.from_int(e[v]))
                    values[v].append(value)
        return tuple(ctx.dot(coeffs[v], values[v]) for v in range(3))

    def pullback(self, matrix):
        """The form x -> F(M x), substituting the rows of M by nested Horner steps.

        With F = sum_i X^i * A_i(Y, Z), the result is accumulated as
        acc <- acc * l0 + A_i(l1, l2) from the top X-degree down, each A_i by
        the same step in l1 over a table of powers of l2 (l_v the linear form
        of row v).  Every step multiplies by a linear form and skips its zero
        entries, so the sparse base changes of the census cost little.
        """
        return HomoPoly(
            self.context,
            self.degree,
            _substitute(self.terms, self.degree, self.context.one(), matrix.rows),
        )

    def restrict_to_line(self, line):
        """Binary form coefficients of F(s*V1 + t*V2) on the line's spanning vectors.

        Returns the dense list [c_0, ..., c_d] with the restriction equal to
        sum c_m s^(d-m) t^m; parameter (1:0) is V1 and (0:1) is V2, the two
        vectors of ProjLine.spanning_vectors.
        """
        return self.restrict_to_pencil(*line.spanning_vectors())

    def restrict_to_pencil(self, p, q):
        """Binary form of F(s*P + t*Q) as a dense coefficient list in t-degree.

        P and Q are points or coordinate vectors.  Entry m is the coefficient
        of s^(d-m) t^m, read off the pullback by the matrix with columns P, Q
        and 0 as its X^(d-m) Y^m coefficient.
        """
        ctx = self.context
        d = self.degree
        zero = ctx.zero()
        p, q = (v.coords if isinstance(v, ProjPoint) else v for v in (p, q))
        rows = [(p[v], q[v], zero) for v in range(3)]
        out = _substitute(self.terms, d, ctx.one(), rows)
        return [out.get((d - m, m, 0), zero) for m in range(d + 1)]

    def __eq__(self, other):
        if not isinstance(other, HomoPoly):
            return NotImplemented
        return self.degree == other.degree and self.terms == other.terms

    def __hash__(self):
        return hash((self.degree, tuple(sorted((e, c.key()) for e, c in self.terms.items()))))

    def proportional_to(self, other):
        """True when the two forms differ by a nonzero scalar factor."""
        if self.degree != other.degree or self.terms.keys() != other.terms.keys():
            return False
        theirs = other.terms
        return _proportional(list(self.terms.values()), [theirs[e] for e in self.terms])

    def __repr__(self):
        names = ("X", "Y", "Z")
        parts = []
        for e in sorted(self.terms, reverse=True):
            c = self.terms[e]
            mono = "*".join(
                "%s^%d" % (names[v], e[v]) if e[v] > 1 else names[v]
                for v in range(3)
                if e[v] > 0
            )
            parts.append("(%r)%s" % (c, "*" + mono if mono else ""))
        return "HomoPoly[deg %d](%s)" % (self.degree, " + ".join(parts) or "0")


# ---------------------------------------------------------------------------
# intersection theory with lines
# ---------------------------------------------------------------------------


def intersection_multiplicity(form, line, point):
    """Multiplicity of the curve/line intersection at a point of the line."""
    if not line.contains(point):
        raise PointNotOnLine("the point does not lie on the line")
    v1, v2 = line.spanning_vectors()
    # pencil the point with a spanning vector not proportional to it
    other = v2 if all(c.is_zero() for c in _cross(point.coords, v1)) else v1
    coeffs = form.restrict_to_pencil(point, other)
    # parameter t = 0 is the point itself; multiplicity = t-adic valuation
    for m, c in enumerate(coeffs):
        if not c.is_zero():
            return m
    raise LineContainedInCurve("the line lies entirely on the curve")


def line_profile(form, line):
    """Multiset of intersection multiplicities of the line with the curve.

    Counts points over the algebraic closure.  On the chart s = 1 the
    restriction F(V1 + t*V2) to the line's spanning vectors is a polynomial
    f(t), and the deficiency d - deg f is the multiplicity at (0:1) = V2.
    The rest is read off a gcd chain: g_0 = f and g_k = gcd(g_(k-1), f^(k)).
    In characteristic 0 a root of f of multiplicity m is a root of f, f',
    ..., f^(k) exactly when k < m, so deg g_k = sum over the roots of
    max(m - k, 0), and deg g_(k-1) - deg g_k counts the roots of
    multiplicity at least k.  Returns a descending tuple whose sum is
    deg(form).
    """
    coeffs = form.restrict_to_line(line)
    if all(c.is_zero() for c in coeffs):
        raise LineContainedInCurve("the line lies entirely on the curve")
    d = form.degree
    # coeffs[m] multiplies s^(d-m) t^m
    while coeffs[-1].is_zero():
        coeffs.pop()
    mults = []
    deficiency = d - (len(coeffs) - 1)
    if deficiency > 0:
        mults.append(deficiency)
    at_least = []  # at_least[k - 1]: roots of multiplicity >= k
    g = derivative = coeffs
    while len(g) > 1:
        derivative = [derivative[i] * i for i in range(1, len(derivative))]
        nxt = _gcd_coeffs(g, derivative)
        at_least.append(len(g) - len(nxt))
        g = nxt
    at_least.append(0)
    for k in range(1, len(at_least)):
        mults.extend([k] * (at_least[k - 1] - at_least[k]))
    if sum(mults) != d:
        raise InvariantViolation("a line meets the curve in deg(form) points")
    return tuple(sorted(mults, reverse=True))


def tangent_line(form, point):
    """Tangent line at a smooth point of the curve."""
    if not form.vanishes_at(point):
        raise PointNotOnCurve("the point does not lie on the curve")
    grad = form.gradient_at(point)
    if all(g.is_zero() for g in grad):
        raise NotSmooth("the curve is singular at the given point")
    return ProjLine(form.context, list(grad))


class PlaneCurve:
    """A smooth plane curve: a ternary form validated to have no singular points.

    Construction runs the exact smoothness decision (smoothness.is_smooth) and
    raises NotSmooth when the form has a singular point over the algebraic
    closure.
    """

    __slots__ = ("form", "context", "degree")

    MIN_DEGREE = 4

    def __init__(self, form):
        if form.is_zero() or form.degree < self.MIN_DEGREE:
            raise ValueError(
                "a plane curve needs a nonzero form of degree >= %d "
                "(below that, automorphisms need not be linear)" % self.MIN_DEGREE
            )
        from .smoothness import is_smooth

        if not is_smooth(form):
            raise NotSmooth(
                "the form has a singular point over the algebraic closure"
            )
        self.form = form
        self.context = form.context
        self.degree = form.degree

    def __repr__(self):
        return "PlaneCurve(%r)" % (self.form,)
