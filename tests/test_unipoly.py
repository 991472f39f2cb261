"""Univariate polynomial arithmetic over cyclotomic fields."""

import random
from fractions import Fraction

from quasigalois import FieldContext
from quasigalois.unipoly import UniPoly, poly_gcd, squarefree_decomposition


def random_poly(ctx, rng, degree):
    coeffs = [
        ctx.from_rational(Fraction(rng.randint(-5, 5), rng.randint(1, 3)))
        for _ in range(degree)
    ]
    coeffs.append(ctx.from_int(rng.randint(1, 4)))  # nonzero leading coefficient
    return UniPoly(ctx, coeffs)


def test_ring_axioms_randomized():
    rng = random.Random(314)
    for conductor in (5, 8):
        ctx = FieldContext(conductor)
        for _ in range(30):
            f = random_poly(ctx, rng, rng.randint(0, 4))
            g = random_poly(ctx, rng, rng.randint(0, 4))
            h = random_poly(ctx, rng, rng.randint(0, 4))
            assert (f + g) * h == f * h + g * h
            assert f * g == g * f
            assert (f * g) * h == f * (g * h)
            assert (f - f).is_zero()


def test_division_algorithm_randomized():
    rng = random.Random(1618)
    ctx = FieldContext(8)
    for _ in range(40):
        f = random_poly(ctx, rng, rng.randint(0, 6))
        g = random_poly(ctx, rng, rng.randint(1, 3))
        q, r = divmod(f, g)
        assert q * g + r == f
        assert r.is_zero() or r.degree() < g.degree()


def test_gcd_of_scaled_common_factor():
    rng = random.Random(271828)
    ctx = FieldContext(5)
    for _ in range(25):
        h = random_poly(ctx, rng, rng.randint(1, 2))
        f = random_poly(ctx, rng, rng.randint(1, 3))
        g = poly_gcd(f * h, h)
        assert g == h.monic()


def test_gcd_divides_both_inputs():
    rng = random.Random(161)
    ctx = FieldContext(4)
    for _ in range(25):
        f = random_poly(ctx, rng, rng.randint(1, 4))
        g = random_poly(ctx, rng, rng.randint(1, 4))
        d = poly_gcd(f, g)
        assert (f % d).is_zero()
        assert (g % d).is_zero()


def test_squarefree_decomposition_recovers_multiplicities():
    rng = random.Random(555)
    ctx = FieldContext(8)
    x = UniPoly.monomial(ctx, 1)
    for _ in range(15):
        roots = rng.sample(range(-8, 9), 3)
        f = UniPoly.constant(ctx, ctx.from_int(rng.randint(1, 3)))
        expected = {}
        for mult, r in enumerate(roots, start=1):
            f = f * (x - ctx.from_int(r)) ** mult
            expected[r] = mult
        parts = squarefree_decomposition(f)
        rebuilt = UniPoly.constant(ctx, f.leading())
        seen = {}
        for factor, mult in parts:
            rebuilt = rebuilt * factor ** mult
            root = -factor.coeff(0)
            seen[int(root.as_rational())] = mult
        assert rebuilt == f
        assert seen == expected


def test_evaluate_and_derivative_are_compatible():
    rng = random.Random(77)
    ctx = FieldContext(12)
    for _ in range(20):
        f = random_poly(ctx, rng, rng.randint(1, 4))
        g = random_poly(ctx, rng, rng.randint(1, 4))
        x = ctx.from_int(rng.randint(-4, 4))
        assert (f * g).evaluate(x) == f.evaluate(x) * g.evaluate(x)
        assert (f + g).derivative() == f.derivative() + g.derivative()
        assert (f * g).derivative() == f.derivative() * g + f * g.derivative()
