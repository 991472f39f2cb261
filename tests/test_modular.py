"""Reduction modulo a prime above a split prime: ring map and prime choice."""

import random
from fractions import Fraction
from itertools import islice

import pytest

from quasigalois import FieldContext
from quasigalois.modular import Reduction, split_reductions

CONDUCTORS = (3, 4, 5, 8, 12, 24, 7, 9, 15, 28)

# least prime p > 3 with p = 1 (mod N)
LEAST_SPLIT_PRIME = {3: 7, 4: 5, 5: 11, 8: 17, 12: 13, 24: 73, 7: 29, 9: 19, 15: 31, 28: 29}


def random_element(ctx, rng):
    # denominators 1..4 are prime to every p > 3
    coords = [Fraction(rng.randint(-9, 9), rng.randint(1, 4)) for _ in range(ctx.dim)]
    return ctx.from_coords(coords)


def test_reduction_is_a_ring_map_sending_zeta_to_order_n():
    rng = random.Random(20261018)
    for conductor in CONDUCTORS:
        ctx = FieldContext(conductor)
        red = next(split_reductions(ctx, []))
        p = red.p
        r = red.element(ctx.zeta())
        assert r == red.root
        assert [k for k in range(1, conductor + 1) if pow(r, k, p) == 1] == [conductor]
        assert red.element(ctx.from_rational(Fraction(-7, 3))) == -7 * pow(3, -1, p) % p
        for _ in range(20):
            a = random_element(ctx, rng)
            b = random_element(ctx, rng)
            assert red.element(a + b) == (red.element(a) + red.element(b)) % p
            assert red.element(a * b) == red.element(a) * red.element(b) % p


def test_prime_choice_is_least_and_deterministic():
    for conductor in CONDUCTORS:
        ctx = FieldContext(conductor)
        red = next(split_reductions(ctx, []))
        assert red.p == LEAST_SPLIT_PRIME[conductor]
        assert (red.p - 1) % conductor == 0
        again = next(split_reductions(ctx, [1, 2, 3, 4]))
        assert (again.p, again.root) == (red.p, red.root)


def test_prime_choice_skips_bad_denominators():
    ctx = FieldContext(28)
    dens = [ctx.from_rational(Fraction(1, 29)).den]
    # 29 is excluded; 57 and 85 are composite
    assert [red.p for red in islice(split_reductions(ctx, dens), 2)] == [113, 197]


def test_reduction_rejects_bad_primes_and_denominators():
    ctx = FieldContext(4)
    with pytest.raises(ValueError):
        Reduction(ctx, 3)
    with pytest.raises(ValueError):
        Reduction(ctx, 7)  # 7 != 1 (mod 4)
    with pytest.raises(ZeroDivisionError):
        Reduction(ctx, 5).element(ctx.from_rational(Fraction(1, 5)))


def _sqrt2_times_2(base):
    z = base.zeta()
    return (z + z ** 7) * 2  # lambda^2 = 2*sqrt(2) of quartic_xy a=6


def test_reduction_of_a_quadratic_extension_is_a_ring_map():
    rng = random.Random(20261019)
    base = FieldContext(8)
    # a field (2*sqrt(2) is no square in Q(zeta_8)) and K x K (zeta^2 = i is)
    for lam, least in ((_sqrt2_times_2(base), 73), (base.zeta() ** 2, 17)):
        ctx = base.extend_sqrt(lam)
        red = next(split_reductions(ctx, []))
        p = red.p
        assert p == least
        assert red.element(ctx.sqrt_generator()) == red.sqrt
        assert red.sqrt ** 2 % p == Reduction(base, p).element(lam)
        assert red.element(ctx.embed(base.zeta())) == red.root
        for _ in range(20):
            a = random_element(ctx, rng)
            b = random_element(ctx, rng)
            assert red.element(a + b) == (red.element(a) + red.element(b)) % p
            assert red.element(a * b) == red.element(a) * red.element(b) % p
            u = random_element(base, rng)
            assert red.element(ctx.embed(u)) == Reduction(base, p).element(u)


def test_reduction_of_a_quadratic_extension_rejects_bad_primes():
    base = FieldContext(8)
    lam = _sqrt2_times_2(base)
    for p in (17, 41):  # 2*sqrt(2) is no square mod the prime above p
        with pytest.raises(ValueError, match="not a nonzero square"):
            Reduction(base.extend_sqrt(lam), p)
    with pytest.raises(ValueError, match="not a nonzero square"):
        Reduction(base.extend_sqrt(base.from_rational(Fraction(1, 17))), 17)
    with pytest.raises(ValueError, match="not a nonzero square"):
        Reduction(base.extend_sqrt(base.from_int(17)), 17)
    # an element of another field is refused, not misread
    kl = base.extend_sqrt(lam)
    with pytest.raises(ValueError, match="not in the field"):
        Reduction(base, 17).element(kl.one())
    with pytest.raises(ValueError, match="not in the field"):
        Reduction(kl, 73).element(base.one())
    with pytest.raises(ValueError, match="not in the field"):
        Reduction(base, 17).element(FieldContext(4).one())
