"""Reduction of cyclotomic matrices modulo a prime above a split prime.

For a prime p = 1 (mod N) the cyclotomic polynomial Phi_N splits into
distinct linear factors mod p, so p is unramified in K = Q(zeta_N), and each
root r of Phi_N mod p (a primitive N-th root of unity in F_p) gives a prime P
above p and the ring map

    Z[zeta_N]_(P) -> F_p,   sum nums[i] zeta^i / den  ->  sum nums[i] r^i / den,

defined on every element whose denominator is prime to p.  `Reduction` is
that map; `split_reductions` lists the good ones in increasing order of p,
and `choose_prime` picks from them for the matrices that are to be reduced
(``smoothness`` picks from them for a form).

Why a fingerprint is injective on a finite group.  Let G in PGL_3(K) be
finite and generated by matrices whose entries are P-integral and whose
determinants are P-units (what `choose_prime` checks), with p > 3.  Scale
each generator by a cube root of its determinant and adjoin the cube roots
of unity.  As p divides neither 3 nor the determinants, the field L this
needs is unramified above p, and the scaled generators lie in SL_3 of the
valuation ring of L at a prime Q above P.  With the scalars mu_3 they
generate a group G~ that maps onto G with kernel mu_3 (the scalar matrices
of determinant 1), so G~ is finite.  By Minkowski's lemma (see J.-P. Serre,
"Bounds for the orders of the finite subgroups of G(k)", 2007) a finite
subgroup of GL_n over a valuation ring with ramification index e < p - 1
injects into its reduction; here e = 1 and p >= 5.  If g, h in G have
projectively equal reductions, the reduction of g~ h~^-1 (for lifts g~, h~
in G~) is a scalar of determinant 1, a cube root of unity, and so the
reduction of some c in mu_3: the cube roots of unity absorb the projective
scalar.  Injectivity gives g~ = c h~, so g = h in PGL_3.  Hence reduction
mod P, scaled so the first nonzero entry is 1, is injective on G.

Finiteness must be known, not assumed: modulo p every group is finite.
The automorphism group of a smooth plane curve of degree d >= 4 is finite
(Hurwitz) and consists of projective linear maps (H. C. Chang, 1978), so
generators that preserve such a curve generate a finite group.
"""

from __future__ import annotations


def _prime_factors(n):
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


def _is_prime(n):
    return _prime_factors(n) == [n]


class Reduction:
    """The ring map Q(zeta_N) -> F_p at the prime above p given by zeta -> root.

    The root is r = g^((p-1)/N) mod p for the least base g that makes r a
    primitive N-th root of unity.  Fingerprints are reduced 3x3 matrices as
    flat row-major 9-tuples of ints, scaled so the first nonzero entry is 1.
    """

    __slots__ = ("p", "root", "_powers")

    def __init__(self, conductor, p):
        if p <= 3 or not _is_prime(p) or (p - 1) % conductor:
            raise ValueError("need a prime p > 3 with p = 1 (mod %d)" % conductor)
        self.p = p
        self.root = _primitive_root_of_unity(conductor, p)
        self._powers = [pow(self.root, i, p) for i in range(conductor)]

    def element(self, e):
        """The residue of a plain cyclotomic element with denominator prime to p."""
        if e.context.lambda_sq is not None:
            raise ValueError("reduction needs a plain cyclotomic element")
        p = self.p
        if e.den % p == 0:
            raise ZeroDivisionError("denominator divisible by %d" % p)
        acc = sum(c * r for c, r in zip(e.nums, self._powers))
        return acc * pow(e.den, -1, p) % p

    def matrix(self, m):
        """The entries of a ProjMatrix, reduced, as a flat row-major 9-tuple."""
        return tuple(self.element(c) for row in m.rows for c in row)

    def fingerprint(self, m):
        """The reduced ProjMatrix scaled so its first nonzero entry is 1."""
        return self._normalize(self.matrix(m))

    def product(self, a, b):
        """The fingerprint of the product of two fingerprinted matrices."""
        p = self.p
        return self._normalize(
            tuple(
                (a[i] * b[j] + a[i + 1] * b[j + 3] + a[i + 2] * b[j + 6]) % p
                for i in (0, 3, 6)
                for j in (0, 1, 2)
            )
        )

    def _normalize(self, flat):
        pivot = next(x for x in flat if x)
        if pivot == 1:
            return flat
        inv = pow(pivot, -1, self.p)
        return tuple(x * inv % self.p for x in flat)


def _primitive_root_of_unity(n, p):
    """A primitive n-th root of unity mod the prime p, n | p - 1."""
    primes = _prime_factors(n)
    g = 1
    while True:  # a cyclic group of order p - 1 has elements of every order n
        g += 1
        r = pow(g, (p - 1) // n, p)
        if all(pow(r, n // q, p) != 1 for q in primes):
            return r


def _det(flat, p):
    a, b, c, d, e, f, g, h, i = flat
    return (a * (e * i - f * h) - b * (d * i - f * g) + c * (d * h - e * g)) % p


def split_reductions(conductor, dens, above=3):
    """The reductions at the primes p > above, p = 1 (mod N), prime to dens.

    In increasing order of p; every element whose denominator divides a
    product of dens is P-integral at each of them.
    """
    p = above - (above - 1) % conductor  # the largest p <= above with p = 1 (mod N)
    while True:
        p += conductor
        if _is_prime(p) and all(d % p for d in dens):
            yield Reduction(conductor, p)


def choose_prime(matrices):
    """The reduction at the least prime p > 3, p = 1 (mod N), that suits the matrices.

    At p every entry's denominator is a unit and every reduced determinant is
    nonzero, so the matrices are P-integral with P-unit determinants.  The
    matrices must share one plain cyclotomic context Q(zeta_N) and be
    invertible (a nonzero determinant has finitely many prime divisors).
    """
    if any(m.det().is_zero() for m in matrices):
        raise ZeroDivisionError("a singular matrix has no good reduction")
    conductor = matrices[0].context.conductor
    dens = [c.den for m in matrices for row in m.rows for c in row]
    for red in split_reductions(conductor, dens):
        if all(_det(red.matrix(m), red.p) for m in matrices):
            return red
