"""Reduction of cyclotomic field elements modulo a prime above a split prime.

For a prime p = 1 (mod N) the cyclotomic polynomial Phi_N splits into
distinct linear factors mod p, so p is unramified in K = Q(zeta_N), and each
root r of Phi_N mod p (a primitive N-th root of unity in F_p) gives a prime P
above p and the ring map

    Z[zeta_N]_(P) -> F_p,   sum nums[i] zeta^i / den  ->  sum nums[i] r^i / den,

defined on every element whose denominator is prime to p.  `Reduction` is
that map; `split_reductions` lists the good ones in increasing order of p
(``smoothness`` picks from them for a form).
"""

from __future__ import annotations

from .cyclotomic import _prime_factors


def _is_prime(n):
    return _prime_factors(n) == [n]


class Reduction:
    """The ring map Q(zeta_N) -> F_p at the prime above p given by zeta -> root.

    The root is r = g^((p-1)/N) mod p for the least base g that makes r a
    primitive N-th root of unity.
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


def _primitive_root_of_unity(n, p):
    """A primitive n-th root of unity mod the prime p, n | p - 1."""
    primes = _prime_factors(n)
    g = 1
    while True:  # a cyclic group of order p - 1 has elements of every order n
        g += 1
        r = pow(g, (p - 1) // n, p)
        if all(pow(r, n // q, p) != 1 for q in primes):
            return r


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
