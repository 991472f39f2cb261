"""Exact cyclotomic field arithmetic: axioms, roots of unity, extensions."""

import math
import random
from fractions import Fraction

import pytest

from quasigalois import (
    FieldContext,
    FieldElement,
    InvariantViolation,
    RootOfUnityUnavailable,
    ZeroDivisorEncountered,
    cyclotomic_polynomial,
    euler_phi,
    multiplicative_order,
)
from quasigalois import cyclotomic
from quasigalois.cyclotomic import _conjugate, _galois_tower, _make, _reduce_mod
from quasigalois.serialize import _MAX_CONDUCTOR

CONDUCTORS = (3, 4, 5, 8, 12, 24, 7, 9, 15, 28)


def random_element(ctx, rng):
    coords = [Fraction(rng.randint(-9, 9), rng.randint(1, 5)) for _ in range(ctx.dim)]
    return ctx.from_coords(coords)


def test_field_axioms_randomized():
    rng = random.Random(20260814)
    for conductor in CONDUCTORS:
        ctx = FieldContext(conductor)
        for _ in range(40):
            a = random_element(ctx, rng)
            b = random_element(ctx, rng)
            c = random_element(ctx, rng)
            assert (a + b) + c == a + (b + c)
            assert a + b == b + a
            assert (a * b) * c == a * (b * c)
            assert a * b == b * a
            assert a * (b + c) == a * b + a * c
            assert (a - a).is_zero()
            assert a + ctx.zero() == a
            assert a * ctx.one() == a
            if not a.is_zero():
                assert (a * a.inverse()).is_one()
                assert a / a == ctx.one()


def test_zeta_has_multiplicative_order_equal_to_conductor():
    for conductor in CONDUCTORS:
        ctx = FieldContext(conductor)
        z = ctx.zeta()
        assert multiplicative_order(z) == conductor
        assert z ** conductor == ctx.one()
        assert ctx.dim == euler_phi(conductor)


def test_cyclotomic_polynomial_known_values():
    assert tuple(cyclotomic_polynomial(1)) == (-1, 1)
    assert tuple(cyclotomic_polynomial(3)) == (1, 1, 1)
    assert tuple(cyclotomic_polynomial(4)) == (1, 0, 1)
    assert tuple(cyclotomic_polynomial(8)) == (1, 0, 0, 0, 1)
    assert tuple(cyclotomic_polynomial(12)) == (1, 0, -1, 0, 1)


def test_euler_phi_multiplicativity():
    rng = random.Random(7)
    known = {1: 1, 2: 1, 3: 2, 4: 2, 5: 4, 8: 4, 12: 4, 24: 8, 28: 12}
    for n, value in known.items():
        assert euler_phi(n) == value
    for _ in range(50):
        a = rng.choice([3, 4, 5, 7, 8, 9, 11])
        b = rng.choice([13, 16, 17, 19, 23, 25])
        import math

        if math.gcd(a, b) == 1:
            assert euler_phi(a * b) == euler_phi(a) * euler_phi(b)


def test_root_of_unity_within_conductor():
    ctx = FieldContext(8)
    i = ctx.root_of_unity(4)
    assert i == ctx.zeta() ** 2
    assert multiplicative_order(i) == 4
    assert multiplicative_order(ctx.root_of_unity(2)) == 2


def test_root_of_unity_odd_conductor_supplies_even_orders():
    # Q(zeta_3) contains -zeta_3, a primitive 6th root of unity.
    ctx = FieldContext(3)
    r = ctx.root_of_unity(6)
    assert multiplicative_order(r) == 6
    assert r ** 6 == ctx.one()


def test_root_of_unity_unavailable_raises():
    ctx = FieldContext(3)
    with pytest.raises(RootOfUnityUnavailable):
        ctx.root_of_unity(4)
    assert ctx.suggested_conductor(4) % 4 == 0


def test_rational_detection_and_round_trip():
    ctx = FieldContext(12)
    q = Fraction(-7, 3)
    e = ctx.from_rational(q)
    assert e.is_rational()
    assert e.as_rational() == q
    assert not ctx.zeta().is_rational()
    k = ctx.from_int(5)
    assert k.as_rational() == 5


def test_from_coords_round_trip_randomized():
    rng = random.Random(99)
    for conductor in CONDUCTORS:
        ctx = FieldContext(conductor)
        for _ in range(20):
            e = random_element(ctx, rng)
            assert ctx.from_coords(e.coords()) == e


def test_from_coords_takes_exactly_dim_coordinates():
    # a K[l] element takes all 2*phi(N) coordinates; phi(N) of them are refused
    ext = FieldContext(4).extend_sqrt(FieldContext(4).from_int(3))
    assert ext.from_coords([1, 2, 3, 4]).parts() == (
        ext.base.from_coords([1, 2]),
        ext.base.from_coords([3, 4]),
    )
    for coords in ([1, 2], [1, 2, 3]):
        with pytest.raises(ValueError):
            ext.from_coords(coords)


def test_power_matches_repeated_multiplication():
    rng = random.Random(4242)
    ctx = FieldContext(5)
    for _ in range(25):
        a = random_element(ctx, rng)
        acc = ctx.one()
        for k in range(6):
            assert a ** k == acc
            acc = acc * a
        if not a.is_zero():
            assert a ** -1 == a.inverse()
            assert a ** -2 == (a * a).inverse()


def test_extension_sqrt_generator_squares_to_tag():
    ctx = FieldContext(5)
    lam = ctx.one() - ctx.zeta() - ctx.zeta() ** 4
    ext = ctx.extend_sqrt(lam)
    g = ext.sqrt_generator()
    assert g * g == ext.embed(lam)
    assert ext.lambda_sq == lam
    u, v = g.parts()
    assert u.is_zero() and v.is_one()


def test_extension_parts_reassemble():
    rng = random.Random(11)
    ctx = FieldContext(8)
    ext = ctx.extend_sqrt(ctx.from_int(-2))
    g = ext.sqrt_generator()
    for _ in range(30):
        u = random_element(ctx, rng)
        v = random_element(ctx, rng)
        e = ext.from_parts(u, v)
        assert e == ext.embed(u) + ext.embed(v) * g
        pu, pv = e.parts()
        assert pu == u and pv == v


def test_extension_embedding_is_a_ring_homomorphism():
    rng = random.Random(55)
    ctx = FieldContext(5)
    ext = ctx.extend_sqrt(ctx.from_int(2))
    for _ in range(30):
        a = random_element(ctx, rng)
        b = random_element(ctx, rng)
        assert ext.embed(a + b) == ext.embed(a) + ext.embed(b)
        assert ext.embed(a * b) == ext.embed(a) * ext.embed(b)


def test_square_tag_extension_has_zero_divisors():
    # Adjoining a square root of an existing square splits the ring,
    # so some nonzero elements cannot be inverted.
    ctx = FieldContext(4)
    ext = ctx.extend_sqrt(ctx.from_int(4))
    g = ext.sqrt_generator()
    two = ext.from_int(2)
    assert ((g - two) * (g + two)).is_zero()
    assert not (g - two).is_zero()
    with pytest.raises(ZeroDivisorEncountered):
        (g - two).inverse()


def test_context_compatibility_and_signature():
    a = FieldContext(8)
    b = FieldContext(8)
    c = FieldContext(12)
    assert a == b and a.compatible(b)
    assert a != c and not a.compatible(c)
    ext = a.extend_sqrt(a.from_int(-2))
    assert not a.compatible(ext)
    assert ext.signature[0] == 8
    assert a.signature == b.signature
    assert a.signature != ext.signature


def test_multiplicative_order_returns_none_for_non_roots():
    ctx = FieldContext(4)
    assert multiplicative_order(ctx.from_int(2)) is None
    assert multiplicative_order(ctx.zero()) is None


def test_galois_conjugation_is_a_ring_map_fixing_the_rationals():
    rng = random.Random(31)
    for conductor in CONDUCTORS:
        ctx = FieldContext(conductor)
        z = ctx.zeta()
        units = [k for k in range(1, conductor) if math.gcd(k, conductor) == 1]
        for k in units:
            assert _conjugate(z, k) == z ** k
            assert _conjugate(ctx.from_rational(Fraction(-7, 3)), k) == Fraction(-7, 3)
            for _ in range(3):
                a = random_element(ctx, rng)
                b = random_element(ctx, rng)
                assert _conjugate(a + b, k) == _conjugate(a, k) + _conjugate(b, k)
                assert _conjugate(a * b, k) == _conjugate(a, k) * _conjugate(b, k)


def _left_to_right(ctx, xs, ys):
    acc = ctx.zero()
    for x, y in zip(xs, ys):
        acc = acc + x * y
    return acc


def _sparse_element(ctx, rng):
    """A random element with some zero coordinates and a random denominator."""
    if rng.random() < 0.2:
        return ctx.zero()
    coords = [
        Fraction(rng.randint(-9, 9), rng.choice((1, 1, 2, 3, 4, 6, 7, 9)))
        if rng.random() < 0.7
        else Fraction(0)
        for _ in range(ctx.dim)
    ]
    return ctx.from_coords(coords)


def _dot_contexts():
    contexts = [FieldContext(n) for n in (1, 3, 4, 8, 24, 28)]
    contexts.append(FieldContext(4).extend_sqrt(FieldContext(4).from_coords([2, 1])))
    return contexts


def test_dot_equals_left_to_right_sum_of_products():
    rng = random.Random(20261018)
    for ctx in _dot_contexts():
        for length in range(5):
            for _ in range(12):
                xs = [_sparse_element(ctx, rng) for _ in range(length)]
                ys = [_sparse_element(ctx, rng) for _ in range(length)]
                got = ctx.dot(xs, ys)
                want = _left_to_right(ctx, xs, ys)
                assert (got.nums, got.den) == (want.nums, want.den)


def test_dot_of_a_cancelling_sum_is_the_normalized_zero():
    rng = random.Random(7)
    for ctx in _dot_contexts():
        for _ in range(8):
            a, b, c = (_sparse_element(ctx, rng) for _ in range(3))
            # a*b + c*a - b*a - a*c = 0, with denominators that do not cancel early
            got = ctx.dot([a, c, -b, -a], [b, a, a, c])
            assert got.is_zero()
            assert got.den == 1
            assert got.nums == ctx.zero().nums


def test_dot_accepts_compatible_contexts_and_rejects_incompatible_ones():
    rng = random.Random(11)
    ctx = FieldContext(8)
    twin = FieldContext(8)
    xs = [random_element(ctx, rng) for _ in range(3)]
    ys = [random_element(twin, rng) for _ in range(3)]
    want = _left_to_right(ctx, xs, ys)
    got = ctx.dot(xs, ys)
    assert (got.nums, got.den) == (want.nums, want.den)
    other = FieldContext(12)
    ext = ctx.extend_sqrt(ctx.from_int(-2))
    for bad in (other.one(), ext.one()):
        with pytest.raises(ValueError):
            ctx.dot([ctx.one(), bad], [ctx.one(), ctx.one()])
        with pytest.raises(ValueError):
            ctx.dot([ctx.one()], [bad])
    with pytest.raises(ValueError):
        ext.dot([ext.one()], [other.one()])


def _conv(a, b):
    """Convolution of integer vectors, skipping zero entries (the reference
    kernel the products below are checked against)."""
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        if x:
            for j, y in enumerate(b):
                if y:
                    out[i + j] += x * y
    return out


def _five_convolution_product(x, y):
    """The K[l] product __mul__ used before: five convolutions over one denominator."""
    ctx = x.context
    mod, m, c = ctx.modulus, ctx.degree, ctx.lambda_sq
    u1, v1 = x.nums[:m], x.nums[m:]
    u2, v2 = y.nums[:m], y.nums[m:]
    uu = _reduce_mod(_conv(u1, u2), mod)
    vv = _reduce_mod(_conv(v1, v2), mod)
    uv = _reduce_mod([a + b for a, b in zip(_conv(u1, v2), _conv(v1, u2))], mod)
    cvv = _reduce_mod(_conv(vv, c.nums), mod)
    upart = [a * c.den + b for a, b in zip(uu, cvv)]
    vpart = [a * c.den for a in uv]
    return ctx.from_coords(
        [Fraction(n, x.den * y.den * c.den) for n in upart + vpart]
    )


def test_extension_products_match_the_five_convolution_formula():
    # 3/4 z^2 = (r z)^2 with r = (z + z^11) / 2 = sqrt(3)/2 in Q(zeta_12); the
    # only quadratic subfield of Q(zeta_5) is Q(sqrt 5), so 2/3 z^2 is no square
    rng = random.Random(20261019)
    z12 = FieldContext(12)
    w = z12.zeta()
    root = (w + w ** 11) * w * Fraction(1, 2)
    square = z12.extend_sqrt(z12.from_rational(Fraction(3, 4)) * w ** 2)
    assert root * root == square.lambda_sq
    z5 = FieldContext(5)
    non_square = z5.extend_sqrt(z5.from_rational(Fraction(2, 3)) * z5.zeta() ** 2)
    for ext, divisor in ((square, root), (non_square, None)):
        g = ext.sqrt_generator()
        samples = [random_element(ext, rng) for _ in range(40)]
        samples += [ext.zero(), ext.one(), g, ext.embed(ext.lambda_sq)]
        if divisor is not None:
            samples += [g - ext.embed(divisor), g + ext.embed(divisor)]
            assert ((g - ext.embed(divisor)) * (g + ext.embed(divisor))).is_zero()
        for _ in range(60):
            x, y = rng.choice(samples), rng.choice(samples)
            product = x * y
            assert product.key() == _five_convolution_product(x, y).key()
            assert product.context is ext
        assert g * g == ext.embed(ext.lambda_sq)


def _convolution_product(x, y):
    """The plain-field product __mul__ used before: one convolution, one
    reduction modulo Phi_N and one normalization, whatever the factors."""
    ctx = x.context
    vec = _reduce_mod(_conv(x.nums, y.nums), ctx.modulus)
    return _make(ctx, tuple(vec), x.den * y.den)


def _reference_product(x, y):
    if x.context.lambda_sq is None:
        return _convolution_product(x, y)
    return _five_convolution_product(x, y)


def _product_operands(ctx, rng):
    """0, +-1, p/q, monomials z^k, and dense elements of ctx."""
    out = [ctx.zero(), ctx.one(), -ctx.one(), ctx.from_int(7)]
    out += [ctx.from_rational(Fraction(p, q)) for p, q in ((3, 4), (-5, 6), (1, 9))]
    z = ctx.zeta()
    for k in (1, 2, ctx.degree - 1, ctx.conductor - 1):
        out += [z ** k, (z ** k) * Fraction(-2, 3)]
    out += [random_element(ctx, rng) for _ in range(4)]
    if ctx.lambda_sq is not None:
        g = ctx.sqrt_generator()
        out += [g, g * Fraction(5, 2), ctx.embed(ctx.lambda_sq)]
    return out


def test_products_match_the_convolution_path():
    # a rational factor only scales and 0 or 1 short-cut; the result must be
    # the (nums, den) the full convolution path gives, in both orders
    rng = random.Random(20261024)
    contexts = [FieldContext(n) for n in (1, 2, 3, 4, 8, 24, 28, 105)]
    base = FieldContext(24)
    contexts.append(base.extend_sqrt(base.one() + base.zeta()))
    for ctx in contexts:
        twin = FieldContext(ctx.conductor)
        if ctx.lambda_sq is not None:
            twin = twin.extend_sqrt(twin.embed(ctx.lambda_sq))
        operands = _product_operands(ctx, rng)
        for x in operands:
            for y in operands:
                for a, b in ((x, y), (y, x), (x, FieldElement(twin, y.nums, y.den))):
                    got = a * b
                    want = _reference_product(a, b)
                    assert (got.nums, got.den) == (want.nums, want.den), (ctx, a, b)
                    assert got.context.compatible(ctx)
        for q in (0, 1, -1, Fraction(2, 3)):
            for x in operands[-4:]:
                want = _reference_product(x, ctx.from_rational(q))
                for got in (x * q, q * x):
                    assert (got.nums, got.den) == (want.nums, want.den)


def test_dot_skips_zero_terms_between_nonzero_ones():
    rng = random.Random(20261025)
    for ctx in _dot_contexts():
        for length in range(1, 7):
            for _ in range(10):
                xs = [_sparse_element(ctx, rng) for _ in range(length)]
                ys = [_sparse_element(ctx, rng) for _ in range(length)]
                for i in rng.sample(range(length), rng.randint(1, length)):
                    if rng.random() < 0.5:
                        xs[i] = ctx.zero()
                    else:
                        ys[i] = ctx.zero()
                want = ctx.zero()
                for x, y in zip(xs, ys):
                    want = want + _reference_product(x, y)
                got = ctx.dot(xs, ys)
                assert (got.nums, got.den) == (want.nums, want.den)


def test_dot_of_zero_terms_only_is_the_normalized_zero():
    for ctx in _dot_contexts():
        tiny = ctx.from_rational(Fraction(1, 997))
        big = ctx.zeta() * Fraction(-4, 1001) + tiny
        for xs, ys in (
            ([], []),
            ([ctx.zero()], [big]),
            ([big, ctx.zero(), tiny], [ctx.zero(), big, ctx.zero()]),
        ):
            got = ctx.dot(xs, ys)
            assert got.is_zero()
            assert got.den == 1
            assert got.nums == ctx.zero().nums


def test_dot_checks_contexts_before_skipping_a_zero_term():
    ctx = FieldContext(8)
    ext = ctx.extend_sqrt(ctx.from_int(-2))
    for bad in (FieldContext(12).zero(), FieldContext(4).zero(), ext.zero()):
        for xs, ys in (
            ([bad], [ctx.one()]),
            ([ctx.one()], [bad]),
            ([ctx.zero(), bad], [ctx.zeta(), ctx.zero()]),
            ([ctx.one(), ctx.zero()], [ctx.one(), bad]),
        ):
            with pytest.raises(ValueError):
                ctx.dot(xs, ys)


def test_equal_elements_hash_equal():
    # a rational element equals its int or Fraction, so it must hash like it
    base = FieldContext(12)
    contexts = (base, FieldContext(7), base.extend_sqrt(base.from_int(-3)))
    for ctx in contexts:
        for q in (0, 1, -1, 5, Fraction(1, 2), Fraction(-7, 3)):
            e = ctx.from_rational(q)
            assert e == q
            assert hash(e) == hash(q)
            assert hash(e) == hash(Fraction(q))
            assert len({e, q}) == 1
            assert q in {e}
            assert e in {q}
            assert {q: "q"}[e] == "q"
        assert len({ctx.one(), 1}) == 1
        assert Fraction(1, 2) in {ctx.from_rational(Fraction(1, 2))}
        if ctx.lambda_sq is None:
            z = ctx.zeta() * Fraction(3, 5) + 1
            twin = FieldElement(FieldContext(ctx.conductor), z.nums, z.den)
            assert twin == z
            assert hash(twin) == hash(z)


def _linear_search_order(e, cap=2048):
    """The former multiplicative_order: count products up to a cap."""
    one = e.context.one()
    acc = e
    for k in range(1, cap + 1):
        if acc == one:
            return k
        acc = acc * e
    return None


def test_multiplicative_order_matches_the_linear_search():
    for conductor in (3, 4, 5, 8, 12, 24, 28, 105):
        ctx = FieldContext(conductor)
        w = conductor if conductor % 2 == 0 else 2 * conductor
        g = ctx.root_of_unity(w)
        roots = [g ** k for k in range(w)]
        assert len(set(roots)) == w
        for e in roots + [-r for r in roots] + [ctx.from_int(2), ctx.zero()]:
            assert multiplicative_order(e) == _linear_search_order(e)
    # K[l] holds roots of unity of order 2w and 3w when it is a field: the
    # eighth root (1 + i) sqrt(2) / 2 over Q(i), and i (sqrt(-3) - 1) / 2
    z4 = FieldContext(4)
    i = z4.zeta()
    for c, u, v, order in (
        (2, z4.zero(), (1 + i) * Fraction(1, 2), 8),
        (-3, -i * Fraction(1, 2), i * Fraction(1, 2), 12),
    ):
        ext = z4.extend_sqrt(z4.from_int(c))
        e = ext.from_parts(u, v)
        assert multiplicative_order(e) == _linear_search_order(e) == order
    # a square tag: Q(zeta_3)[l] with l^2 = 4 is Q(zeta_3) x Q(zeta_3)
    z3 = FieldContext(3)
    ext = z3.extend_sqrt(z3.from_int(4))
    z, l = ext.zeta(), ext.sqrt_generator()
    half = Fraction(1, 2)
    e1, e2 = (1 + l * half) * half, (1 - l * half) * half  # (1, 0) and (0, 1)
    samples = [l * half, z * l * half, z * e1 + z * z * e2, (1 + l) * half, l, e1]
    for e in samples:
        assert multiplicative_order(e) == _linear_search_order(e)
    assert [multiplicative_order(e) for e in samples] == [2, 6, 3, None, None, None]


def _two_branch_root_of_unity(ctx, n):
    """The former root_of_unity: zeta^(N/n), else a power of zeta_2N for odd N."""
    N = ctx.conductor
    if N % n == 0:
        return ctx.zeta() ** (N // n)
    if N % 2 == 1 and (2 * N) % n == 0:
        return (-(ctx.zeta() ** ((N + 1) // 2))) ** (2 * N // n)
    return None


def test_root_of_unity_matches_the_two_branch_formula_up_to_the_ceiling():
    pairs = 0
    for conductor in range(1, _MAX_CONDUCTOR + 1):
        ctx = FieldContext(conductor)
        w = conductor if conductor % 2 == 0 else 2 * conductor
        for n in range(1, w + 1):
            if w % n == 0:
                assert ctx.root_of_unity(n) == _two_branch_root_of_unity(ctx, n)
                pairs += 1
        for n in (2 * w, w + 1):
            assert _two_branch_root_of_unity(ctx, n) is None
            with pytest.raises(RootOfUnityUnavailable):
                ctx.root_of_unity(n)
    assert pairs == 1529


def _conjugate_product_inverse(e):
    """The former plain-field inverse: all nontrivial conjugates over the norm."""
    ctx = e.context
    if e.is_rational():
        return ctx.from_rational(1 / e.as_rational())
    N = ctx.conductor
    rest = ctx.one()
    for k in range(2, N):
        if math.gcd(k, N) == 1:
            rest = rest * _conjugate(e, k)
    norm = e * rest
    assert norm.is_rational()
    return rest * ctx.from_rational(1 / norm.as_rational())


def _assert_same_inverse(e, expected):
    inverse = e.inverse()
    assert inverse.key() == expected.key()
    assert inverse.context is e.context
    assert (e * inverse).is_one()


def test_tower_inverse_matches_the_conjugate_product_inverse():
    rng = random.Random(20261021)
    for conductor in (3, 4, 5, 7, 8, 9, 12, 15, 16, 20, 24, 28, 105, 210):
        ctx = FieldContext(conductor)
        z = ctx.zeta()
        samples = [random_element(ctx, rng) for _ in range(6 if conductor < 100 else 2)]
        samples += [z, z + 1, -z * z + ctx.from_rational(Fraction(1, 7)), ctx.from_int(-5)]
        for e in samples:
            if not e.is_zero():
                _assert_same_inverse(e, _conjugate_product_inverse(e))
    # the slowest field below the conductor ceiling: 197 conjugates, 4 steps
    ctx = FieldContext(199)
    e = ctx.from_coords([rng.randint(-2, 2) for _ in range(ctx.dim)])
    _assert_same_inverse(e, _conjugate_product_inverse(e))


def test_tower_inverse_in_a_quadratic_extension():
    # u + v l over Q(zeta_24)[l], l^2 = 1 + z (no square): its norm is inverted
    # in the base field
    rng = random.Random(20261022)
    base = FieldContext(24)
    ext = base.extend_sqrt(base.one() + base.zeta())
    for _ in range(6):
        x = random_element(ext, rng)
        u, v = x.parts()
        inv_norm = _conjugate_product_inverse(u * u - ext.lambda_sq * (v * v))
        _assert_same_inverse(x, ext.from_parts(u * inv_norm, -(v * inv_norm)))


def test_galois_tower_is_a_prime_chain_through_the_unit_group():
    for conductor in range(1, _MAX_CONDUCTOR + 1):
        units = {k for k in range(1, conductor) if math.gcd(k, conductor) == 1} or {1}
        subgroup = {1}
        for tau, o in _galois_tower(conductor):
            assert o > 1 and all(o % q for q in range(2, o)), conductor
            assert tau in units and tau not in subgroup, conductor
            assert pow(tau, o, conductor) in subgroup, conductor
            subgroup = {h * pow(tau, j, conductor) % conductor for h in subgroup for j in range(o)}
        assert subgroup == units, conductor
        assert math.prod(o for _, o in _galois_tower(conductor)) == euler_phi(conductor)
        assert _galois_tower(conductor) is _galois_tower(conductor)


def test_tower_inverse_checks_that_the_norm_is_rational(monkeypatch):
    # a chain that stops short of the whole group ends in a proper subfield
    ctx = FieldContext(24)
    monkeypatch.setitem(cyclotomic._tower_cache, 24, _galois_tower(24)[:2])
    with pytest.raises(InvariantViolation):
        (ctx.zeta() + 2).inverse()


_Q4 = FieldContext(4)
_Q4_SQRT2 = _Q4.extend_sqrt(_Q4.from_int(2))


@pytest.mark.parametrize(
    "call, error, match",
    [
        pytest.param(lambda: FieldContext(0), ValueError, "conductor must be", id="conductor"),
        pytest.param(lambda: FieldContext(4, lambda_sq=2), TypeError, "FieldElement", id="lambda_sq_type"),
        pytest.param(lambda: FieldContext(4, _Q4_SQRT2.one()), ValueError, "nested", id="nested"),
        pytest.param(lambda: FieldContext(4, FieldContext(8).one()), ValueError, "conductor-4", id="lambda_sq_field"),
        pytest.param(lambda: FieldContext(4, _Q4.zero()), ValueError, "nonzero", id="lambda_sq_zero"),
        pytest.param(lambda: _Q4_SQRT2.extend_sqrt(_Q4.one()), ValueError, "already", id="extend_twice"),
        pytest.param(lambda: _Q4_SQRT2.embed(FieldContext(8).one()), ValueError, "base field", id="embed"),
        pytest.param(lambda: _Q4.zeta().parts(), ValueError, "no quadratic", id="parts"),
        pytest.param(lambda: _Q4.sqrt_generator(), ValueError, "no quadratic", id="sqrt_generator"),
        pytest.param(lambda: _Q4.from_parts(_Q4.one(), _Q4.one()), ValueError, "no quadratic", id="from_parts"),
        pytest.param(lambda: _Q4.root_of_unity(0), ValueError, "positive", id="root_of_unity"),
        pytest.param(lambda: _Q4.zeta().as_rational(), ValueError, "not rational", id="as_rational"),
        pytest.param(lambda: _Q4.zero().inverse(), ZeroDivisionError, "zero", id="inverse_plain"),
        pytest.param(lambda: _Q4_SQRT2.zero().inverse(), ZeroDivisionError, "zero", id="inverse_extended"),
        pytest.param(lambda: _Q4.zeta() + "a", TypeError, "unsupported", id="add_str"),
    ],
)
def test_field_misuse_raises(call, error, match):
    with pytest.raises(error, match=match):
        call()


def test_an_integer_divided_by_a_field_element():
    zeta = _Q4.zeta()
    assert 2 / zeta == _Q4.from_int(2) * zeta.inverse() == _Q4.from_int(-2) * zeta
