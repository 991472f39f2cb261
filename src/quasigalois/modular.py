"""Reduction of cyclotomic field elements modulo a prime above a split prime.

For a prime p = 1 (mod N) the cyclotomic polynomial Phi_N splits into
distinct linear factors mod p, so p is unramified in K = Q(zeta_N), and each
root r of Phi_N mod p (a primitive N-th root of unity in F_p) gives a prime P
above p and the ring map

    Z[zeta_N]_(P) -> F_p,   sum nums[i] zeta^i / den  ->  sum nums[i] r^i / den,

defined on every element whose denominator is prime to p.  `Reduction` is
that map on the field of a FieldContext; `split_reductions` lists the good
ones for a context in increasing order of p (``smoothness`` picks from them
for a form, ``groups`` for a set of matrices).

A context's quadratic extension K[l] = K[X]/(X^2 - c) reduces the same way
once l is sent to a root s of X^2 - c-bar in F_p, which exists exactly when
c-bar is a square; only primes where c-bar is a nonzero square are taken.
Then u + v*l -> u-bar + s * v-bar is a ring map on the elements with
denominators prime to p, whether K[l] is a field or K x K.  As p is odd and
c-bar is nonzero, X^2 - c-bar is separable mod p, so O_P[l] is etale over
the local ring O_P: the kernel of the map is a prime Q of K[l] of residue
field F_p, and an element of K[l] whose cube is a unit at Q is a unit at Q.
"""

from __future__ import annotations

from .cyclotomic import _prime_factors


def _is_prime(n):
    return _prime_factors(n) == [n]


class Reduction:
    """The ring map from a context's field Q(zeta_N)[l] to F_p at the prime above p.

    The map sends zeta to the root r = g^((p-1)/N) mod p for the least base
    g that makes r a primitive N-th root of unity.  In K[l], l^2 = c, it
    sends l to ``sqrt``, the smaller square root of c-bar; a prime at which
    c-bar is zero, not a square or undefined raises ValueError.
    """

    __slots__ = ("context", "p", "root", "sqrt", "_powers")

    def __init__(self, context, p):
        conductor = context.conductor
        if p <= 3 or not _is_prime(p) or (p - 1) % conductor:
            raise ValueError("need a prime p > 3 with p = 1 (mod %d)" % conductor)
        self.context = context
        self.p = p
        self.root = _primitive_root_of_unity(conductor, p)
        self._powers = [pow(self.root, i, p) for i in range(conductor)]
        self.sqrt = None
        c = context.lambda_sq
        if c is not None:
            self.sqrt = _sqrt_mod(self._base(c) if c.den % p else 0, p)
            if self.sqrt is None:
                raise ValueError("lambda_sq is not a nonzero square mod the prime above %d" % p)

    def _base(self, e):
        """The residue of an element of K = Q(zeta_N)."""
        p = self.p
        if e.den % p == 0:
            raise ZeroDivisionError("denominator divisible by %d" % p)
        acc = sum(c * r for c, r in zip(e.nums, self._powers))
        return acc * pow(e.den, -1, p) % p

    def element(self, e):
        """The residue of an element of this field with denominator prime to p."""
        if not self.context.compatible(e.context):
            raise ValueError("the element is not in the field of this reduction")
        if self.sqrt is None:
            return self._base(e)
        u, v = e.parts()
        return (self._base(u) + self.sqrt * self._base(v)) % self.p


def _primitive_root_of_unity(n, p):
    """A primitive n-th root of unity mod the prime p, n | p - 1."""
    primes = _prime_factors(n)
    g = 1
    while True:  # a cyclic group of order p - 1 has elements of every order n
        g += 1
        r = pow(g, (p - 1) // n, p)
        if all(pow(r, n // q, p) != 1 for q in primes):
            return r


def _sqrt_mod(a, p):
    """The smaller square root of a nonzero square a mod the odd prime p, else None.

    Tonelli-Shanks: with p - 1 = q * 2^s, q odd, r = a^((q+1)/2) is a root up
    to the 2-power-order error t = a^q, which each step halves in order by a
    power b of a non-square's q-th power c.
    """
    a %= p
    if not a or pow(a, (p - 1) // 2, p) != 1:
        return None
    q, s = p - 1, 0
    while q % 2 == 0:
        q, s = q // 2, s + 1
    z = 2
    while pow(z, (p - 1) // 2, p) == 1:
        z += 1
    c, t, r = pow(z, q, p), pow(a, q, p), pow(a, (q + 1) // 2, p)
    while t != 1:
        i, t2 = 0, t
        while t2 != 1:
            t2, i = t2 * t2 % p, i + 1
        b = pow(c, 1 << (s - i - 1), p)
        s, c, t, r = i, b * b % p, t * b * b % p, r * b % p
    return min(r, p - r)


def split_reductions(context, dens, above=3):
    """The reductions of a context's field at the primes p > above, p = 1 (mod N).

    In increasing order of p, prime to dens; every element whose denominator
    divides a product of dens is P-integral at each of them.  In K[l] only
    the primes where lambda_sq reduces to a nonzero square are listed.
    """
    conductor = context.conductor
    if context.lambda_sq is not None:
        dens = [*dens, context.lambda_sq.den]
    p = above - (above - 1) % conductor  # the largest p <= above with p = 1 (mod N)
    while True:
        p += conductor
        if _is_prime(p) and all(d % p for d in dens):
            try:
                red = Reduction(context, p)
            except ValueError:  # lambda_sq is no nonzero square mod P
                continue
            yield red
