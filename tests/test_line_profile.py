"""Line profiles: the coefficient-list gcd and the gcd chain behind line_profile."""

import random
from fractions import Fraction

from quasigalois import (
    FieldContext,
    HomoPoly,
    ProjLine,
    ProjMatrix,
    ProjPoint,
    catalog,
    line_profile,
    tangent_line,
)
from quasigalois.geometry import _gcd_coeffs


def random_poly(ctx, rng, degree):
    coeffs = [
        ctx.from_rational(Fraction(rng.randint(-5, 5), rng.randint(1, 3)))
        for _ in range(degree)
    ]
    coeffs.append(ctx.from_int(rng.randint(1, 4)))  # nonzero leading coefficient
    return coeffs


def _trim(f):
    f = list(f)
    while f and f[-1].is_zero():
        f.pop()
    return f


def _mul(f, g):
    out = [f[0].context.zero()] * (len(f) + len(g) - 1)
    for i, x in enumerate(f):
        for j, y in enumerate(g):
            out[i + j] = out[i + j] + x * y
    return out


def _sub(f, g):
    zero = (f or g)[0].context.zero()
    n = max(len(f), len(g))
    f = list(f) + [zero] * (n - len(f))
    g = list(g) + [zero] * (n - len(g))
    return _trim(a - b for a, b in zip(f, g))


def _divmod(f, g):
    """Quotient and remainder of low-to-high lists; g has no trailing zeros."""
    rem = _trim(f)
    inv = g[-1].inverse()
    quot = [g[0].context.zero()] * max(len(rem) - len(g) + 1, 0)
    while len(rem) >= len(g):
        shift = len(rem) - len(g)
        c = rem[-1] * inv
        quot[shift] = c
        rem = _sub(rem, [g[0].context.zero()] * shift + [c * x for x in g])
    return _trim(quot), rem


def _exact_div(f, g):
    q, r = _divmod(f, g)
    assert r == []
    return q


def _monic(f):
    inv = f[-1].inverse()
    return [c * inv for c in f]


def _monic_gcd(f, g):
    f, g = _trim(f), _trim(g)
    while g:
        f, g = g, _divmod(f, g)[1]
    return _monic(f)


def _derivative(f):
    return _trim(f[i] * i for i in range(1, len(f)))


def _proportional(f, g):
    return len(f) == len(g) and all(a * g[-1] == b * f[-1] for a, b in zip(f, g))


def _yun_profile(form, line):
    """Profile by Yun's squarefree decomposition with exact division."""
    chart = _trim(form.restrict_to_line(line))
    d = form.degree
    mults = [d - (len(chart) - 1)] if len(chart) - 1 < d else []
    f = _monic(chart)
    df = _derivative(f)
    a = _monic_gcd(f, df)
    b = _exact_div(f, a)
    c = _exact_div(df, a)
    i = 1
    while len(b) > 1:
        dd = _sub(c, _derivative(b))
        piece = _monic_gcd(b, dd)
        mults += [i] * (len(piece) - 1)
        b = _exact_div(b, piece)
        c = _exact_div(dd, piece)
        i += 1
    return tuple(sorted(mults, reverse=True))


def test_gcd_of_scaled_common_factor():
    rng = random.Random(271828)
    ctx = FieldContext(5)
    for _ in range(25):
        h = random_poly(ctx, rng, rng.randint(1, 2))
        f = random_poly(ctx, rng, rng.randint(1, 3))
        g = _gcd_coeffs(_mul(f, h), h)
        assert _proportional(g, h)


def test_gcd_divides_both_inputs():
    rng = random.Random(161)
    ctx = FieldContext(4)
    for _ in range(25):
        f = random_poly(ctx, rng, rng.randint(1, 4))
        g = random_poly(ctx, rng, rng.randint(1, 4))
        d = _gcd_coeffs(f, g)
        assert _divmod(f, d)[1] == []
        assert _divmod(g, d)[1] == []


def _power(form, k, ctx):
    out = HomoPoly.from_int_terms(ctx, 0, {(0, 0, 0): 1})
    for _ in range(k):
        out = out * form
    return out


def _prescribed_form(ctx, rng, roots, y_mult, quadric_mult):
    """prod (X - rY)^m * Y^e * (X^2 + 2Y^2)^q + Z * G for a random G."""
    one, zero = ctx.one(), ctx.zero()
    y = HomoPoly.linear_form(ctx, [zero, one, zero])
    form = _power(y, y_mult, ctx) * _power(
        HomoPoly.from_int_terms(ctx, 2, {(2, 0, 0): 1, (0, 2, 0): 2}), quadric_mult, ctx
    )
    for r, m in roots:
        form = form * _power(HomoPoly.linear_form(ctx, [one, -r, zero]), m, ctx)
    d = form.degree
    rest = {
        (i, j, d - 1 - i - j): rng.randint(-3, 3)
        for i in range(d)
        for j in range(d - i)
    }
    z = HomoPoly.linear_form(ctx, [zero, zero, one])
    return form + z * HomoPoly.from_int_terms(ctx, d - 1, rest)


def test_line_profile_reads_prescribed_multiplicities():
    rng = random.Random(555)
    cases = 0
    for conductor in (3, 4, 8):
        ctx = FieldContext(conductor)
        z_line = ProjLine.from_ints(ctx, (0, 0, 1))
        zeta = ctx.zeta()
        # (X^2 + 2Y^2)^2 is irreducible over Q(zeta_3) and Q(i), and still
        # meets Z = 0 in two points of multiplicity 2
        form = _prescribed_form(ctx, rng, [(ctx.from_int(1), 1), (ctx.from_int(-2), 1)], 0, 2)
        assert line_profile(form, z_line) == (2, 2, 1, 1)
        for _ in range(20):
            pairs = rng.sample([(a, b) for a in range(-4, 5) for b in range(2)], 3)
            mults = [rng.randint(1, 3) for _ in pairs]
            y_mult = rng.randint(0, 2)
            quadric_mult = rng.randint(0, 2)
            roots = [(ctx.from_int(a) + zeta * b, m) for (a, b), m in zip(pairs, mults)]
            form = _prescribed_form(ctx, rng, roots, y_mult, quadric_mult)
            expected = mults + [y_mult] * (y_mult > 0) + [quadric_mult] * (2 * (quadric_mult > 0))
            expected = tuple(sorted(expected, reverse=True))
            assert line_profile(form, z_line) == _yun_profile(form, z_line) == expected
            cases += 1
    assert cases == 60


def test_line_profile_matches_yun_decomposition(instances, evaluations):
    rng = random.Random(4096)
    fixed = ((1, 0, 0), (0, 1, 0), (0, 0, 1), (1, 1, 0), (1, -1, 0), (0, 1, 1), (1, 1, 1))
    checked = 0
    for name, inst in instances.items():
        form = inst.curve.form
        ctx = form.context
        lines = {ProjLine.from_ints(ctx, v) for v in fixed}
        while len(lines) < len(fixed) + 6:
            v = [rng.randint(-5, 5) for _ in range(3)]
            if any(v):
                lines.add(ProjLine.from_ints(ctx, v))
        lines.update(rec.generator.axis for rec in evaluations[name].report.quasi_galois_points())
        for line in lines:
            assert line_profile(form, line) == _yun_profile(form, line), (name, line)
            checked += 1
    assert checked > 100


def test_line_profile_at_the_fermat_hyperflex():
    form = catalog.make("fermat_quartic").curve.form
    ctx = form.context
    flex = ProjPoint(ctx, [ctx.one(), ctx.zeta(), ctx.zero()])
    assert line_profile(form, tangent_line(form, flex)) == (4,)


def _sqrt2(ctx):
    z8 = ctx.root_of_unity(8)
    return z8 + z8.inverse()


def test_line_profile_is_invariant_under_a_change_of_coordinates(instances):
    # x lies on the line L*M exactly when M x lies on L, so F(M x) meets L*M
    # as F meets L.  Besides random lines, the tangents at a hyperflex of the
    # Fermat quartic and at the flex (0 : 1 : sqrt 2) of the delta-sextic.
    rng = random.Random(2211)
    flexes = (
        ("fermat_quartic", lambda ctx: [ctx.one(), ctx.zeta(), ctx.zero()]),
        ("sextic_delta8", lambda ctx: [ctx.zero(), ctx.one(), _sqrt2(ctx)]),
    )
    profiles = set()
    for name, flex in flexes:
        form = instances[name].curve.form
        ctx = form.context
        while True:
            rows = [[rng.randint(-2, 2) for _ in range(3)] for _ in range(3)]
            M = ProjMatrix.from_ints(ctx, rows)
            if not M.det().is_zero():
                break
        moved = form.pullback(M)
        lines = [tangent_line(form, ProjPoint(ctx, flex(ctx)))]
        while len(lines) < 6:
            coeffs = [ctx.from_int(rng.randint(-4, 4)) for _ in range(3)]
            if any(not c.is_zero() for c in coeffs):
                lines.append(ProjLine(ctx, coeffs))
        for line in lines:
            moved_line = ProjLine(ctx, [ctx.dot(line.coeffs, col) for col in zip(*M.rows)])
            profile = line_profile(form, line)
            assert line_profile(moved, moved_line) == profile, (name, line)
            profiles.add(profile)
    assert {(4,), (3, 1, 1, 1), (1, 1, 1, 1), (1,) * 6} <= profiles, profiles
