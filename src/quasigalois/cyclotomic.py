"""Exact arithmetic in cyclotomic fields Q(zeta_N) and formal quadratic extensions.

Elements are dense rational coordinate vectors over the power basis
1, z, ..., z^(phi(N)-1) modulo the N-th cyclotomic polynomial.  Internally a
vector is stored as integer numerators plus one positive common denominator,
which keeps the hot paths (convolution + monic reduction) in machine/big-int
arithmetic with a single gcd-normalization per operation.  Inversion uses the
same kernel, down a tower of subfields: along a chain of subgroups of the
Galois group (Z/N)^* with prime relative orders, each step multiplies the
current element by its nontrivial conjugates sigma_k (zeta -> zeta^k) under
the step's generator, which gives its norm to the next subfield.  By the
transitivity of the norm the last step gives the rational norm N(e), and the
inverse is the product of the steps' conjugate products divided by it.

Every product goes through one kernel, FieldContext.dot: for a sum of
products (matrix entries, point images, minors, form values) it adds the
convolutions of all the numerators over the lcm of the product denominators,
then reduces modulo Phi_N and normalizes once, and a single product x * y of
two irrational factors is the one-pair call dot((x,), (y,)).  Reduction
modulo Phi_N is linear, so the reduced sum equals the sum of the reduced
products, and (nums, den) in lowest terms with den > 0 is a unique normal
form; the result is therefore identical, bit for bit, to the left-to-right
sum of separately normalized products.  The same uniqueness lets the kernel
skip work whose result is known: a pair with a zero factor costs dot nothing
(leaving its denominator out of the common one changes no reduced fraction),
and FieldElement.__mul__ short-cuts a rational factor c/d to the scaling
(c * nums, d * den), with no convolution or reduction, so every stored
element stays what the full path would give.

A context may carry one formal square root l with l^2 = c for a chosen base
element c.  An element is u + v*l with u, v in K = Q(zeta_N), and products in
K[l] are built from products in K: (u1 + v1 l)(u2 + v2 l) = (u1 u2 + c v1 v2)
+ (u1 v2 + v1 u2) l takes five of them, and by the normal form above the
result does not depend on the route.  The quotient ring K[l]/(l^2 - c) is used
without deciding whether c is a square in K: if it is not, the ring is a field
and nothing special ever happens; if it is, the first inversion or unit test
(_unit_norm) of a zero divisor raises ZeroDivisorEncountered carrying the
discovered factorization.
Identities proved by pure ring arithmetic in the quotient are valid for every
embedding of l.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd

from .errors import (
    InvariantViolation,
    RootOfUnityUnavailable,
    ZeroDivisorEncountered,
)

# ---------------------------------------------------------------------------
# integer polynomial helpers (dense, low-to-high coefficient lists)
# ---------------------------------------------------------------------------


def _int_poly_div_exact(num, den):
    """Divide integer polynomials exactly; den must be monic. Returns quotient."""
    num = list(num)
    dn = len(den) - 1
    out = [0] * (len(num) - dn)
    for i in range(len(num) - 1, dn - 1, -1):
        c = num[i]
        if c:
            out[i - dn] = c
            for j in range(dn + 1):
                num[i - dn + j] -= c * den[j]
    if any(num):
        raise ArithmeticError("division not exact")
    return out


_cyclo_cache = {1: (-1, 1)}


def cyclotomic_polynomial(n):
    """Integer coefficients of the n-th cyclotomic polynomial (low-to-high)."""
    if n in _cyclo_cache:
        return _cyclo_cache[n]
    poly = [0] * (n + 1)
    poly[0] = -1
    poly[n] = 1
    for d in range(1, n):
        if n % d == 0:
            poly = _int_poly_div_exact(poly, cyclotomic_polynomial(d))
    result = tuple(poly)
    _cyclo_cache[n] = result
    return result


def _prime_factors(n):
    """The distinct primes dividing n, in increasing order (trial division)."""
    out = []
    k = 2
    while k * k <= n:
        if n % k == 0:
            out.append(k)
            while n % k == 0:
                n //= k
        k += 1
    if n > 1:
        out.append(n)
    return out


def euler_phi(n):
    result = n
    for p in _prime_factors(n):
        result -= result // p
    return result


def _reduce_mod(vec, mod):
    """Reduce an integer vector in place modulo a monic integer polynomial."""
    m = len(mod) - 1
    for i in range(len(vec) - 1, m - 1, -1):
        c = vec[i]
        if c:
            vec[i] = 0
            off = i - m
            for j in range(m):
                cj = mod[j]
                if cj:
                    vec[off + j] -= c * cj
    return vec[:m] + [0] * (m - len(vec)) if len(vec) < m else vec[:m]


def _content(vec, den):
    g = den
    for c in vec:
        if c:
            g = gcd(g, c)
            if g == 1:
                return 1
    return g


# ---------------------------------------------------------------------------
# contexts
# ---------------------------------------------------------------------------


class FieldContext:
    """Arithmetic context: Q(zeta_N), optionally extended by l with l^2 = c."""

    __slots__ = (
        "conductor",
        "degree",
        "modulus",
        "lambda_sq",
        "base",
        "dim",
        "signature",
        "_zero",
        "_one",
    )

    def __init__(self, conductor, lambda_sq=None):
        if conductor < 1:
            raise ValueError("conductor must be >= 1")
        self.conductor = conductor
        self.modulus = cyclotomic_polynomial(conductor)
        self.degree = len(self.modulus) - 1
        if lambda_sq is not None:
            if not isinstance(lambda_sq, FieldElement):
                raise TypeError("lambda_sq must be a FieldElement of the base field")
            if lambda_sq.context.lambda_sq is not None:
                raise ValueError("nested quadratic extensions are not supported")
            if lambda_sq.context.conductor != conductor:
                raise ValueError("lambda_sq must live in the conductor-%d field" % conductor)
            if lambda_sq.is_zero():
                raise ValueError("lambda_sq must be nonzero")
            self.base = lambda_sq.context
            self.dim = 2 * self.degree
        else:
            self.base = self
            self.dim = self.degree
        self.lambda_sq = lambda_sq
        sig = (lambda_sq.nums, lambda_sq.den) if lambda_sq is not None else None
        self.signature = (conductor, sig)
        self._zero = FieldElement(self, (0,) * self.dim, 1)
        self._one = FieldElement(self, (1,) + (0,) * (self.dim - 1), 1)

    # -- construction -------------------------------------------------------

    def zero(self):
        return self._zero

    def one(self):
        return self._one

    def from_int(self, k):
        return FieldElement(self, (int(k),) + (0,) * (self.dim - 1), 1)

    def from_rational(self, q):
        q = Fraction(q)
        return FieldElement(
            self, (q.numerator,) + (0,) * (self.dim - 1), q.denominator
        )

    def from_coords(self, coords):
        """Build an element from exactly dim rational coordinates: phi(N)
        in a plain context, 2*phi(N) (u's, then v's of u + v*l) in K[l]."""
        vals = [Fraction(c) for c in coords]
        if len(vals) != self.dim:
            raise ValueError(
                "expected %d coordinates, got %d" % (self.dim, len(vals))
            )
        den = 1
        for v in vals:
            den = den * v.denominator // gcd(den, v.denominator)
        nums = tuple(int(v * den) for v in vals)
        return _make(self, nums, den)

    def zeta(self):
        """The distinguished primitive N-th root of unity (the class of x)."""
        if self.degree == 1:
            # conductor 1 or 2: zeta is rational (1 or -1).
            return self.from_int(1 if self.conductor == 1 else -1)
        nums = [0] * self.dim
        nums[1] = 1
        return FieldElement(self, tuple(nums), 1)

    def sqrt_generator(self):
        """The formal square root l (extended contexts only)."""
        if self.lambda_sq is None:
            raise ValueError("context has no quadratic extension")
        nums = [0] * self.dim
        nums[self.degree] = 1
        return FieldElement(self, tuple(nums), 1)

    def from_parts(self, u, v):
        """Assemble u + v*l from two base-field elements."""
        if self.lambda_sq is None:
            raise ValueError("context has no quadratic extension")
        den = u.den * v.den // gcd(u.den, v.den)
        fu = den // u.den
        fv = den // v.den
        nums = tuple(c * fu for c in u.nums) + tuple(c * fv for c in v.nums)
        return _make(self, nums, den)

    def embed(self, e):
        """Lift a base-field element into this (possibly extended) context."""
        if e.context is self or e.context.signature == self.signature:
            return FieldElement(self, e.nums, e.den)
        if e.context.signature != (self.base.conductor, None):
            raise ValueError("element does not belong to the base field")
        return FieldElement(self, e.nums + (0,) * self.degree, e.den)

    def extend_sqrt(self, c):
        """Return the context K[l]/(l^2 - c); c a nonzero element of this field."""
        if self.lambda_sq is not None:
            raise ValueError("context already carries a quadratic extension")
        return FieldContext(self.conductor, lambda_sq=c)

    # -- sums of products ---------------------------------------------------

    def dot(self, xs, ys):
        """Sum of xs[i] * ys[i] over the shorter of two element sequences.

        Plain contexts reduce and normalize once for the whole sum (see the
        module docstring); extended contexts add up products one at a time.
        Every pair's contexts are checked first; a pair with a zero factor
        then adds nothing, not even to the common denominator, and a sum of
        such pairs is the zero element.
        """
        if self.lambda_sq is not None:
            acc = self._zero
            for x, y in zip(xs, ys):
                acc = acc + x * y
            return acc
        sig = self.signature
        pairs = []
        den = 1
        for x, y in zip(xs, ys):
            for e in (x, y):
                if e.context is not self and e.context.signature != sig:
                    raise ValueError("elements from incompatible contexts")
            a, b = x.nums, y.nums
            if not (any(a) and any(b)):
                continue
            d = x.den * y.den
            if d != 1:
                den = den * d // gcd(den, d)
            pairs.append((a, b, d))
        if not pairs:
            return self._zero
        m = self.degree
        acc = [0] * (2 * m - 1)
        for a, b, d in pairs:
            f = den // d
            b = [(j, v) for j, v in enumerate(b) if v]
            for i, u in enumerate(a):
                if u:
                    u *= f
                    for j, v in b:
                        acc[i + j] += u * v
        return _make(self, tuple(_reduce_mod(acc, self.modulus)), den)

    # -- roots of unity -----------------------------------------------------

    def suggested_conductor(self, n):
        N = self.conductor
        m = N * n // gcd(N, n)
        if m % 4 == 2:
            m //= 2
        return m

    def _roots_of_unity(self):
        """(w, g): the order and a generator of mu(K), the roots of unity of K.

        For K = Q(zeta_N), mu(K) is cyclic of order w = N for even N and
        w = 2N for odd N (L. Washington, Introduction to Cyclotomic Fields,
        GTM 83, ch. 2).  g is zeta for even N and, for odd N, the square root
        -zeta^((N+1)/2) of zeta, of order 2N.
        """
        N = self.conductor
        if N % 2 == 0:
            return N, self.zeta()
        return 2 * N, -(self.zeta() ** ((N + 1) // 2))

    def root_of_unity(self, n):
        """A primitive n-th root of unity g^(w/n), or RootOfUnityUnavailable.

        zeta_n exists in Q(zeta_N) iff n divides w, with (w, g) the order and
        generator of mu(K) from _roots_of_unity.  The power is computed on
        every call: a context keeps no state beyond its construction.
        """
        if n < 1:
            raise ValueError("order must be positive")
        w, g = self._roots_of_unity()
        if w % n:
            raise RootOfUnityUnavailable(n, self.conductor, self.suggested_conductor(n))
        return g ** (w // n)

    # -- misc ---------------------------------------------------------------

    def compatible(self, other):
        return self is other or self.signature == other.signature

    def __eq__(self, other):
        return isinstance(other, FieldContext) and self.signature == other.signature

    def __hash__(self):
        return hash(self.signature)

    def __repr__(self):
        if self.lambda_sq is None:
            return "FieldContext(Q(zeta_%d))" % self.conductor
        return "FieldContext(Q(zeta_%d)[l], l^2 = %s)" % (
            self.conductor,
            self.lambda_sq,
        )


def _make(ctx, nums, den):
    """Normalize (nums, den) to lowest terms and wrap."""
    if den < 0:
        den = -den
        nums = tuple(-c for c in nums)
    g = _content(nums, den)
    if g > 1:
        nums = tuple(c // g for c in nums)
        den //= g
    if den == 0:
        raise ZeroDivisionError("zero denominator")
    if not any(nums):
        den = 1
    return FieldElement(ctx, tuple(nums), den)


# ---------------------------------------------------------------------------
# elements
# ---------------------------------------------------------------------------


class FieldElement:
    """Immutable element of a FieldContext; equality is coordinate-wise."""

    __slots__ = ("context", "nums", "den")

    def __init__(self, context, nums, den):
        self.context = context
        self.nums = nums
        self.den = den

    # -- predicates / views -------------------------------------------------

    def is_zero(self):
        return not any(self.nums)

    def is_one(self):
        return self.den == 1 and self.nums[0] == 1 and not any(self.nums[1:])

    def is_rational(self):
        return not any(self.nums[1:])

    def as_rational(self):
        if not self.is_rational():
            raise ValueError("element is not rational")
        return Fraction(self.nums[0], self.den)

    def coords(self):
        """Rational coordinates over the power basis (length dim)."""
        return tuple(Fraction(c, self.den) for c in self.nums)

    def parts(self):
        """(u, v) base-field elements with self = u + v*l."""
        ctx = self.context
        if ctx.lambda_sq is None:
            raise ValueError("context has no quadratic extension")
        m = ctx.degree
        base = ctx.base
        u = _make(base, self.nums[:m], self.den)
        v = _make(base, self.nums[m:], self.den)
        return u, v

    def key(self):
        """Hashable canonical key (context-free coordinate data)."""
        return (self.nums, self.den)

    # -- coercion -----------------------------------------------------------

    def _coerce(self, other):
        if isinstance(other, FieldElement):
            if not self.context.compatible(other.context):
                raise ValueError("elements from incompatible contexts")
            return other
        if isinstance(other, (int, Fraction)):
            return self.context.from_rational(other)
        return NotImplemented

    # -- ring operations ----------------------------------------------------

    def __add__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        d1, d2 = self.den, other.den
        if d1 == d2:
            return _make(
                self.context,
                tuple(a + b for a, b in zip(self.nums, other.nums)),
                d1,
            )
        g = gcd(d1, d2)
        f1 = d2 // g
        f2 = d1 // g
        return _make(
            self.context,
            tuple(a * f1 + b * f2 for a, b in zip(self.nums, other.nums)),
            d1 * f1,
        )

    __radd__ = __add__

    def __neg__(self):
        return FieldElement(self.context, tuple(-c for c in self.nums), self.den)

    def __sub__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return other + (-self)

    def __mul__(self, other):
        """Product: a one-pair FieldContext.dot, short-cut for a rational factor.

        In a plain context, the convolution of the other operand's numerators
        with a rational factor's (c, 0, ...) is c times them and needs no
        reduction, and _make turns (c * nums, d * den) into the same reduced
        fraction as dot.  So a zero factor gives zero, a factor 1 the other
        operand, and only two irrational factors reach dot.  A K[l] product
        is five such base-field products.
        """
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        ctx = self.context
        if ctx.lambda_sq is None:
            q, x = self, other
            if any(q.nums[1:]):
                q, x = other, self
                if any(q.nums[1:]):
                    return ctx.dot((self,), (other,))
            c = q.nums[0]
            if not c:
                return ctx._zero
            if c == 1 and q.den == 1:
                return x
            return _make(ctx, tuple(c * u for u in x.nums), q.den * x.den)
        (u1, v1), (u2, v2) = self.parts(), other.parts()
        return ctx.from_parts(
            u1 * u2 + ctx.lambda_sq * (v1 * v2), u1 * v2 + v1 * u2
        )

    __rmul__ = __mul__

    def inverse(self):
        ctx = self.context
        if ctx.lambda_sq is None:
            return _inv_base(self)
        if self.is_zero():
            raise ZeroDivisionError("inverse of zero")
        u, v = self.parts()
        inv_norm = _inv_base(_unit_norm(self))
        return ctx.from_parts(u * inv_norm, -(v * inv_norm))

    def __truediv__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return self * other.inverse()

    def __rtruediv__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return other * self.inverse()

    def __pow__(self, k):
        if k < 0:
            return self.inverse() ** (-k)
        result = self.context.one()
        base = self
        while k:
            if k & 1:
                result = result * base
            base = base * base
            k >>= 1
        return result

    # -- comparison ---------------------------------------------------------

    def __eq__(self, other):
        if isinstance(other, (int, Fraction)):
            other = self.context.from_rational(other)
        if not isinstance(other, FieldElement):
            return NotImplemented
        return (
            self.context.compatible(other.context)
            and self.nums == other.nums
            and self.den == other.den
        )

    def __hash__(self):
        # a rational element equals its Fraction (and int), so hashes like it
        if self.is_rational():
            return hash(Fraction(self.nums[0], self.den))
        return hash((self.nums, self.den))

    def __bool__(self):
        return not self.is_zero()

    def __repr__(self):
        ctx = self.context
        m = ctx.degree
        names = []
        for i, c in enumerate(self.nums):
            if not c:
                continue
            q = Fraction(c, self.den)
            if i == 0:
                names.append(str(q))
            else:
                var = "z" if i < m else "l"
                e = i if i < m else i - m
                pw = var if e <= 1 else "%s^%d" % (var, e)
                if i >= m and e >= 1:
                    pw = "z^%d*l" % e if e > 1 else "z*l"
                names.append(pw if q == 1 else "%s*%s" % (q, pw))
        return " + ".join(names) if names else "0"


def _unit_norm(e):
    """The norm u^2 - c v^2 in K of a nonzero e = u + v*l of K[l]; None in K.

    A nonzero element of a field is a unit.  In K[l], e is a unit exactly
    when its norm is nonzero, and then e^-1 = (u - v*l) / norm.  A zero norm
    raises ZeroDivisorEncountered: u^2 = c v^2 with (u, v) != 0 forces
    v != 0, and r = u/v satisfies r^2 = c.
    """
    c = e.context.lambda_sq
    if c is None:
        return None
    u, v = e.parts()
    norm = u * u - c * (v * v)
    if norm.is_zero():
        raise ZeroDivisorEncountered(u / v)
    return norm


def _conjugate(e, k):
    """sigma_k(e) for the automorphism zeta -> zeta^k, gcd(k, N) = 1 (plain
    cyclotomic elements only).

    Coefficient i moves to index i*k mod N (zeta^N = 1); reducing the
    length-N vector modulo Phi_N returns to the power basis.
    """
    ctx = e.context
    N = ctx.conductor
    vec = [0] * N
    for i, c in enumerate(e.nums):
        vec[i * k % N] += c
    return _make(ctx, tuple(_reduce_mod(vec, ctx.modulus)), e.den)


_tower_cache = {}


def _galois_tower(N):
    """Steps (tau_i, o_i) of a chain of subgroups 1 = H_0 < H_1 < ... of (Z/N)^*.

    H_i is generated by H_(i-1) and tau_i, and the relative order o_i is a
    prime, the order of tau_i modulo H_(i-1); the chain ends at the whole
    group, so the o_i multiply to phi(N).  Each step takes the largest prime
    p left in the order of (Z/N)^* / H_(i-1), and tau_i = k^(m/p) for the
    smallest unit k whose order m modulo H_(i-1) is divisible by p.
    Computed once per conductor.
    """
    steps = _tower_cache.get(N)
    if steps is not None:
        return steps
    units = [k for k in range(1, N) if gcd(k, N) == 1]
    H = {1}
    steps = []
    while len(H) < len(units):
        o = _prime_factors(len(units) // len(H))[-1]
        for k in units:
            m, power = 1, k
            while power not in H:
                m, power = m + 1, power * k % N
            if m % o == 0:
                break
        tau = pow(k, m // o, N)
        H = {h * pow(tau, j, N) % N for h in H for j in range(o)}
        steps.append((tau, o))
    _tower_cache[N] = steps = tuple(steps)
    return steps


def _inv_base(e):
    """Inverse in the plain cyclotomic field, by norms down a subfield tower.

    Along the chain H_0 < H_1 < ... < H_r = Gal(K/Q) of _galois_tower, with
    fixed fields K = K_0 > K_1 > ... > K_r = Q, the norm is transitive:
    N_(K/Q) = N_(K_(r-1)/Q) o ... o N_(K/K_1) (S. Lang, Algebra, GTM 211,
    ch. VI, section 5).  The group is abelian, so K_i/K_(i+1) is Galois with
    the cyclic group generated by tau_(i+1) of prime order o_(i+1), and
    the norm from K_i is the product of the o_(i+1) conjugates under its
    powers.  So with x_0 = e, y_i the product of the o_i - 1 nontrivial
    conjugates of x_(i-1) and x_i = x_(i-1) * y_i, the last x is N(e), a
    nonzero rational, and e^-1 = (prod y_i) / N(e).  That takes
    sum(o_i) - 1 products instead of the phi(N) - 1 of multiplying e by all
    its nontrivial conjugates (18 instead of 197 at N = 199).
    """
    if e.is_zero():
        raise ZeroDivisionError("inverse of zero")
    ctx = e.context
    if ctx.lambda_sq is not None:
        raise ValueError("_inv_base expects a plain cyclotomic element")
    if e.is_rational():
        return ctx.from_rational(1 / e.as_rational())
    N = ctx.conductor
    x, rest = e, None
    for tau, o in _galois_tower(N):
        y = _conjugate(x, tau)
        for j in range(2, o):
            y = y * _conjugate(x, pow(tau, j, N))
        rest = y if rest is None else rest * y
        x = x * y
    if not x.is_rational():
        raise InvariantViolation("the norm of a field element is rational")
    # rest / (p/q) = (rest.nums * q) / (rest.den * p)
    p, q = x.nums[0], x.den
    return _make(ctx, tuple(c * q for c in rest.nums), rest.den * p)


def multiplicative_order(e):
    """Order of e in the multiplicative group, or None if e is not a root of unity.

    Every root of unity of the context has order dividing W: W = w, the order
    of mu(K), in a plain context, and W = 6w in K[l].  If K[l] is a field,
    each cyclotomic subfield Q(zeta_m) of it has degree at most 2 over K, so
    phi(m) <= 2 phi(w) with w | m leaves m in {w, 2w, 3w} (w is even, and
    3w only when 3 does not divide w); if c is a square in K, K[l] is K x K
    and m divides w.  So e is a root of unity iff e^W = 1, and its order is
    W with each prime q divided out while e^(W/q) = 1.
    """
    ctx = e.context
    W = ctx._roots_of_unity()[0] * (1 if ctx.lambda_sq is None else 6)
    one = ctx.one()
    if e ** W != one:
        return None
    order = W
    for q in _prime_factors(W):
        while order % q == 0 and e ** (order // q) == one:
            order //= q
    return order
