"""Dense univariate polynomials over a FieldContext.

Coefficients are FieldElements, stored low-to-high with no trailing zeros.
Provides Euclidean division, the monic gcd, and Yun's squarefree
decomposition (valid in characteristic 0).
"""

from __future__ import annotations

from .cyclotomic import FieldElement
from .errors import DivisionNotExact


class UniPoly:
    """Immutable dense univariate polynomial over one field context."""

    __slots__ = ("context", "coeffs")

    def __init__(self, context, coeffs):
        cs = list(coeffs)
        while cs and cs[-1].is_zero():
            cs.pop()
        self.context = context
        self.coeffs = tuple(cs)

    # -- constructors ---------------------------------------------------

    @classmethod
    def zero(cls, context):
        return cls(context, ())

    @classmethod
    def constant(cls, context, value):
        return cls(context, (value,))

    @classmethod
    def monomial(cls, context, degree, value=None):
        if value is None:
            value = context.one()
        return cls(context, (context.zero(),) * degree + (value,))

    @classmethod
    def from_ints(cls, context, ints):
        return cls(context, [context.from_int(k) for k in ints])

    # -- views ------------------------------------------------------------

    def is_zero(self):
        return not self.coeffs

    def degree(self):
        """Degree, with the zero polynomial mapped to -1."""
        return len(self.coeffs) - 1

    def leading(self):
        if not self.coeffs:
            raise ValueError("zero polynomial has no leading coefficient")
        return self.coeffs[-1]

    def coeff(self, i):
        if 0 <= i < len(self.coeffs):
            return self.coeffs[i]
        return self.context.zero()

    def is_constant(self):
        return len(self.coeffs) <= 1

    def monic(self):
        if self.is_zero():
            return self
        inv = self.leading().inverse()
        return UniPoly(self.context, [c * inv for c in self.coeffs])

    def evaluate(self, x):
        acc = self.context.zero()
        for c in reversed(self.coeffs):
            acc = acc * x + c
        return acc

    def derivative(self):
        ctx = self.context
        return UniPoly(
            ctx,
            [self.coeffs[i] * ctx.from_int(i) for i in range(1, len(self.coeffs))],
        )

    # -- arithmetic ---------------------------------------------------------

    def _coerce(self, other):
        if isinstance(other, UniPoly):
            return other
        if isinstance(other, FieldElement):
            return UniPoly.constant(self.context, other)
        return UniPoly.constant(self.context, self.context.from_rational(other))

    def __add__(self, other):
        other = self._coerce(other)
        a, b = self.coeffs, other.coeffs
        if len(a) < len(b):
            a, b = b, a
        out = list(a)
        for i, c in enumerate(b):
            out[i] = out[i] + c
        return UniPoly(self.context, out)

    __radd__ = __add__

    def __neg__(self):
        return UniPoly(self.context, [-c for c in self.coeffs])

    def __sub__(self, other):
        return self + (-self._coerce(other))

    def __rsub__(self, other):
        return self._coerce(other) + (-self)

    def __mul__(self, other):
        if not isinstance(other, UniPoly):
            # scalar
            s = (
                other
                if isinstance(other, FieldElement)
                else self.context.from_rational(other)
            )
            return UniPoly(self.context, [c * s for c in self.coeffs])
        if self.is_zero() or other.is_zero():
            return UniPoly.zero(self.context)
        zero = self.context.zero()
        out = [zero] * (len(self.coeffs) + len(other.coeffs) - 1)
        for i, x in enumerate(self.coeffs):
            if x.is_zero():
                continue
            for j, y in enumerate(other.coeffs):
                if not y.is_zero():
                    out[i + j] = out[i + j] + x * y
        return UniPoly(self.context, out)

    __rmul__ = __mul__

    def __divmod__(self, other):
        if other.is_zero():
            raise ZeroDivisionError("polynomial division by zero")
        ctx = self.context
        rem = list(self.coeffs)
        db = other.degree()
        lead_inv = other.leading().inverse()
        q = [ctx.zero()] * max(len(rem) - db, 0)
        for i in range(len(rem) - 1, db - 1, -1):
            c = rem[i] * lead_inv
            if not c.is_zero():
                q[i - db] = c
                for j in range(db + 1):
                    rem[i - db + j] = rem[i - db + j] - c * other.coeffs[j]
        return UniPoly(ctx, q), UniPoly(ctx, rem[:db])

    def __floordiv__(self, other):
        return divmod(self, other)[0]

    def __mod__(self, other):
        return divmod(self, other)[1]

    def exact_div(self, other):
        q, r = divmod(self, other)
        if not r.is_zero():
            raise DivisionNotExact("polynomial division leaves a remainder")
        return q

    def __pow__(self, k):
        result = UniPoly.constant(self.context, self.context.one())
        base = self
        while k:
            if k & 1:
                result = result * base
            base = base * base
            k >>= 1
        return result

    def __eq__(self, other):
        if not isinstance(other, UniPoly):
            return NotImplemented
        return self.coeffs == other.coeffs

    def __hash__(self):
        return hash(self.coeffs)

    def __repr__(self):
        if not self.coeffs:
            return "UniPoly(0)"
        terms = []
        for i, c in enumerate(self.coeffs):
            if c.is_zero():
                continue
            if i == 0:
                terms.append("(%r)" % c)
            elif i == 1:
                terms.append("(%r)*t" % c)
            else:
                terms.append("(%r)*t^%d" % (c, i))
        return "UniPoly(%s)" % " + ".join(terms)


def poly_gcd(f, g):
    """Monic gcd via the Euclidean algorithm."""
    while not g.is_zero():
        f, g = g, f % g
    if f.is_zero():
        return f
    return f.monic()


def squarefree_decomposition(f):
    """Yun's algorithm: list of (factor, multiplicity), factors monic squarefree.

    Valid in characteristic zero.  The product of factor^multiplicity equals
    f / lc(f).  Pairs with factor degree 0 are omitted.
    """
    if f.is_zero():
        raise ValueError("squarefree decomposition of zero")
    f = f.monic()
    if f.degree() == 0:
        return []
    out = []
    df = f.derivative()
    a = poly_gcd(f, df)
    b = f.exact_div(a)
    c = df.exact_div(a)
    i = 1
    while b.degree() > 0:
        d = c - b.derivative()
        piece = poly_gcd(b, d)
        if piece.degree() > 0:
            out.append((piece, i))
        b = b.exact_div(piece)
        c = d.exact_div(piece)
        i += 1
    return out
