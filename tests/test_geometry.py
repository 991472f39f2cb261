"""Projective points, lines, matrices, forms: incidence, pullbacks, profiles."""

import random
from fractions import Fraction

import pytest

from quasigalois import (
    FieldContext,
    HomoPoly,
    LineContainedInCurve,
    NotSmooth,
    PlaneCurve,
    PointNotOnCurve,
    PointNotOnLine,
    ProjLine,
    ProjMatrix,
    ProjPoint,
    ZeroDivisorEncountered,
    intersection_multiplicity,
    line_profile,
    tangent_line,
)
from quasigalois import catalog
from quasigalois.geometry import _canonicalize
from quasigalois.modular import split_reductions


def random_point(ctx, rng):
    while True:
        coords = [ctx.from_int(rng.randint(-6, 6)) for _ in range(3)]
        if not all(c.is_zero() for c in coords):
            return ProjPoint(ctx, coords)


def random_invertible(ctx, rng):
    while True:
        m = ProjMatrix.from_ints(
            ctx, [[rng.randint(-4, 4) for _ in range(3)] for _ in range(3)]
        )
        if not m.det().is_zero():
            return m


def random_form(ctx, rng, degree, n_terms=6):
    terms = {}
    for _ in range(n_terms):
        i = rng.randint(0, degree)
        j = rng.randint(0, degree - i)
        terms[(i, j, degree - i - j)] = ctx.from_int(rng.randint(-5, 5))
    f = HomoPoly(ctx, degree, terms)
    if f.is_zero():
        f = HomoPoly.from_int_terms(ctx, degree, {(degree, 0, 0): 1})
    return f


def test_point_canonicalization_ignores_scaling():
    ctx = FieldContext(8)
    rng = random.Random(5)
    for _ in range(30):
        p = random_point(ctx, rng)
        s = ctx.from_int(rng.choice([1, 2, -3, 5])) * ctx.zeta()
        q = ProjPoint(ctx, [s * c for c in p.coords])
        assert p == q
        assert hash(p) == hash(q)
        assert p.key() == q.key()


def test_zero_vector_is_not_a_point():
    ctx = FieldContext(4)
    with pytest.raises(ValueError):
        ProjPoint.from_ints(ctx, (0, 0, 0))
    with pytest.raises(ValueError):
        ProjLine.from_ints(ctx, (0, 0, 0))


def test_line_through_two_points_contains_both():
    ctx = FieldContext(12)
    rng = random.Random(17)
    for _ in range(40):
        p = random_point(ctx, rng)
        q = random_point(ctx, rng)
        if p == q:
            continue
        line = ProjLine.through(p, q)
        assert line.contains(p) and line.contains(q)
        a, b = (ProjPoint(ctx, v) for v in line.spanning_vectors())
        assert line.contains(a) and line.contains(b)


def test_meet_of_two_lines_lies_on_both():
    ctx = FieldContext(8)
    rng = random.Random(23)
    for _ in range(40):
        l1 = ProjLine(ctx, random_point(ctx, rng).coords)
        l2 = ProjLine(ctx, random_point(ctx, rng).coords)
        if l1 == l2:
            continue
        p = l1.meet(l2)
        assert l1.contains(p) and l2.contains(p)


def test_matrix_inverse_and_composition():
    ctx = FieldContext(12)
    rng = random.Random(31)
    ident = ProjMatrix.identity(ctx)
    for _ in range(25):
        m = random_invertible(ctx, rng)
        n = random_invertible(ctx, rng)
        assert m * m.adjugate() == ident
        p = random_point(ctx, rng)
        assert (m * n).apply_to_point(p) == m.apply_to_point(n.apply_to_point(p))


def test_matrix_action_preserves_incidence():
    ctx = FieldContext(8)
    rng = random.Random(47)
    for _ in range(40):
        m = random_invertible(ctx, rng)
        p = random_point(ctx, rng)
        q = random_point(ctx, rng)
        if p == q:
            continue
        line = ProjLine.through(p, q)
        image_line = m.apply_to_line(line)
        assert image_line.contains(m.apply_to_point(p))
        assert image_line.contains(m.apply_to_point(q))


def test_adjugate_against_inverse():
    ctx = FieldContext(5)
    rng = random.Random(53)
    for _ in range(20):
        m = random_invertible(ctx, rng)
        adj = m.adjugate()
        d = m.det()
        prod = m * adj
        for i in range(3):
            for j in range(3):
                expected = d if i == j else ctx.zero()
                assert prod.rows[i][j] == expected


def test_pullback_identity_is_identity():
    ctx = FieldContext(8)
    rng = random.Random(61)
    for _ in range(10):
        f = random_form(ctx, rng, 4)
        assert f.pullback(ProjMatrix.identity(ctx)) == f


def test_pullback_composition_law():
    ctx = FieldContext(12)
    rng = random.Random(67)
    for _ in range(25):
        f = random_form(ctx, rng, rng.choice([4, 5, 6]))
        m = random_invertible(ctx, rng)
        n = random_invertible(ctx, rng)
        assert f.pullback(m).pullback(n) == f.pullback(m * n)


def test_pullback_preserves_vanishing():
    ctx = FieldContext(8)
    rng = random.Random(71)
    fermat = catalog.make("fermat_quartic").curve.form
    c8 = fermat.context
    for _ in range(25):
        m = random_invertible(c8, rng)
        p = random_point(c8, rng)
        moved = m.apply_to_point(p)
        assert fermat.pullback(m).vanishes_at(p) == fermat.vanishes_at(moved)


def test_euler_relation_randomized():
    rng = random.Random(73)
    ctx = FieldContext(5)
    for _ in range(25):
        d = rng.choice([4, 5, 6])
        f = random_form(ctx, rng, d)
        total = HomoPoly.zero(ctx, d)
        for var in range(3):
            coeffs = [ctx.zero()] * 3
            coeffs[var] = ctx.one()
            xi = HomoPoly.linear_form(ctx, coeffs)
            total = total + xi * f.partial(var)
        assert total == f.scale(ctx.from_int(d))


def test_scale_takes_ints_and_fractions_as_multiplication_does():
    rng = random.Random(89)
    ctx = FieldContext(8)
    f = random_form(ctx, rng, 4)
    assert f.scale(2) == f * 2 == 2 * f
    assert f.scale(Fraction(1, 2)) == f * Fraction(1, 2)
    assert f.scale(0).is_zero()


def test_gradient_at_matches_partials():
    rng = random.Random(79)
    ctx = FieldContext(8)
    for _ in range(15):
        f = random_form(ctx, rng, 4)
        p = random_point(ctx, rng)
        grad = f.gradient_at(p)
        for var in range(3):
            assert grad[var] == f.partial(var).evaluate(p)


def test_proportional_forms_detected():
    ctx = FieldContext(8)
    rng = random.Random(83)
    for _ in range(15):
        f = random_form(ctx, rng, 4)
        s = ctx.zeta() * ctx.from_int(3)
        assert f.proportional_to(f.scale(s))
        g = f + HomoPoly.from_int_terms(ctx, 4, {(1, 1, 2): 1})
        if f != g:
            assert not (f.proportional_to(g) and g.proportional_to(f)) or f.is_zero()


def test_line_profile_of_fermat_coordinate_line():
    inst = catalog.make("fermat_quartic")
    form = inst.curve.form
    ctx = form.context
    profile = line_profile(form, ProjLine.from_ints(ctx, (0, 0, 1)))
    assert tuple(sorted(profile)) == (1, 1, 1, 1)


def test_line_profile_total_is_degree_for_random_lines():
    rng = random.Random(89)
    for name in catalog.entry_names():
        inst = catalog.make(name)
        form = inst.curve.form
        ctx = form.context
        d = form.degree
        for _ in range(12):
            line = ProjLine(ctx, random_point(ctx, rng).coords)
            assert sum(line_profile(form, line)) == d


def test_tangent_line_and_multiplicity():
    ctx = FieldContext(4)
    form = HomoPoly.from_int_terms(
        ctx, 4, {(3, 0, 1): 1, (0, 4, 0): 1, (0, 0, 4): 1}
    )
    p = ProjPoint.from_ints(ctx, (1, 0, 0))
    tl = tangent_line(form, p)
    assert tl == ProjLine.from_ints(ctx, (0, 0, 1))
    assert intersection_multiplicity(form, tl, p) == 4
    generic = ProjLine.from_ints(ctx, (0, 1, 0))
    assert intersection_multiplicity(form, generic, p) == 1


def test_tangency_detection_on_smooth_points():
    inst = catalog.make("fermat_quartic")
    form = inst.curve.form
    ctx = form.context
    p = ProjPoint(ctx, [ctx.one(), ctx.zeta(), ctx.zero()])
    assert form.vanishes_at(p)
    tl = tangent_line(form, p)
    assert intersection_multiplicity(form, tl, p) >= 2
    rng = random.Random(97)
    hits = 0
    for _ in range(40):
        line = ProjLine(ctx, random_point(ctx, rng).coords)
        if not line.contains(p) or line == tl:
            continue
        hits += 1
        assert intersection_multiplicity(form, line, p) == 1
    assert hits > 0


def test_intersection_multiplicity_at_either_spanning_vector():
    # (1 : zeta : 0) and (1 : 0 : zeta), zeta^4 = -1, are hyperflexes of the
    # Fermat quartic: the first spans (1, -1/zeta, a) as its first spanning
    # vector, the second (1, a, -1/zeta) as its second, so the pencil takes
    # the other vector in each case.  Each line is the tangent when a = 0.
    form = catalog.make("fermat_quartic").curve.form
    ctx = form.context
    w = -ctx.zeta().inverse()
    for a in map(ctx.from_int, range(-2, 3)):
        for slot, coeffs in ((0, [ctx.one(), w, a]), (1, [ctx.one(), a, w])):
            line = ProjLine(ctx, coeffs)
            point = ProjPoint(ctx, line.spanning_vectors()[slot])
            assert form.vanishes_at(point)
            expected = 4 if a.is_zero() else 1
            assert intersection_multiplicity(form, line, point) == expected


def test_intersection_multiplicity_requires_incidence():
    inst = catalog.make("fermat_quartic")
    form = inst.curve.form
    ctx = form.context
    p = ProjPoint.from_ints(ctx, (1, 1, 1))
    off_line = ProjLine.from_ints(ctx, (1, 0, 0))
    with pytest.raises(PointNotOnLine):
        intersection_multiplicity(form, off_line, p)


def test_tangent_line_requires_point_on_curve():
    inst = catalog.make("fermat_quartic")
    form = inst.curve.form
    ctx = form.context
    with pytest.raises(PointNotOnCurve):
        tangent_line(form, ProjPoint.from_ints(ctx, (1, 0, 0)))


def test_line_profile_rejects_component_lines():
    ctx = FieldContext(4)
    z = HomoPoly.linear_form(ctx, [ctx.zero(), ctx.zero(), ctx.one()])
    cubicish = random_form(ctx, random.Random(3), 3, n_terms=4)
    form = z * cubicish
    with pytest.raises(LineContainedInCurve):
        line_profile(form, ProjLine.from_ints(ctx, (0, 0, 1)))


def test_plane_curve_rejects_low_degree_and_singular_forms():
    ctx = FieldContext(4)
    cubic = HomoPoly.from_int_terms(
        ctx, 3, {(3, 0, 0): 1, (0, 3, 0): 1, (0, 0, 3): 1}
    )
    with pytest.raises(ValueError):
        PlaneCurve(cubic)
    from quasigalois import NotSmooth

    cusp = HomoPoly.from_int_terms(ctx, 4, {(3, 0, 1): 1, (0, 4, 0): 1})
    with pytest.raises(NotSmooth):
        PlaneCurve(cusp)


def test_restrict_to_pencil_degree():
    inst = catalog.make("fermat_quartic")
    form = inst.curve.form
    ctx = form.context
    p = ProjPoint.from_ints(ctx, (1, 0, 0))
    q = ProjPoint.from_ints(ctx, (0, 1, 0))
    coeffs = form.restrict_to_pencil(p, q)
    assert len(coeffs) == 5
    # F(s*e1 + t*e2) = s^4 + t^4 for the diagonal quartic
    assert coeffs[0].is_one() and coeffs[4].is_one()
    assert all(coeffs[m].is_zero() for m in (1, 2, 3))


def _kernel_contexts():
    """Conductors 3, 4, 24 and 28, and the quadratic extension of quartic_xy a=6."""
    return [FieldContext(n) for n in (3, 4, 24, 28)] + [
        catalog.make("quartic_xy", a=6).context
    ]


def random_element(ctx, rng):
    """A sparse element with small rational coordinates, including l-parts."""
    return ctx.from_coords(
        [
            Fraction(rng.randint(-4, 4), rng.randint(1, 3)) if rng.random() < 0.4 else 0
            for _ in range(ctx.dim)
        ]
    )


def random_kernel_form(ctx, rng, degree, dense):
    terms = {
        (i, j, degree - i - j): random_element(ctx, rng)
        for i in range(degree + 1)
        for j in range(degree + 1 - i)
        if dense or rng.random() < 0.25
    }
    terms[(degree, 0, 0)] = ctx.from_int(rng.randint(1, 3))
    return HomoPoly(ctx, degree, terms)


def random_kernel_matrix(ctx, rng, kind):
    """Sparse or dense rows; 'singular', 'rank1' and 'zero_row' degenerate them."""
    density = rng.choice([0.4, 1.0])
    rows = [
        [random_element(ctx, rng) if rng.random() < density else ctx.zero() for _ in range(3)]
        for _ in range(3)
    ]
    if kind == "singular":
        rows[2] = [a + b for a, b in zip(rows[0], rows[1])]
    elif kind == "rank1":
        scales = [random_element(ctx, rng) for _ in range(3)]
        rows = [[s * a for a in rows[0]] for s in scales]
    elif kind == "zero_row":
        rows[rng.randrange(3)] = [ctx.zero()] * 3
    return ProjMatrix(ctx, rows)


def test_pullback_evaluates_as_the_form_at_the_moved_vector():
    # F(M x) at x equals F at the raw product M x (before canonical scaling)
    rng = random.Random(97)
    for ctx in _kernel_contexts():
        for degree in range(4, 9):
            for kind in ("general", "singular", "rank1", "zero_row"):
                f = random_kernel_form(ctx, rng, degree, dense=rng.random() < 0.5)
                m = random_kernel_matrix(ctx, rng, kind)
                g = f.pullback(m)
                assert g.degree == degree
                for _ in range(2):
                    x = [random_element(ctx, rng) for _ in range(3)]
                    mx = [sum((a * b for a, b in zip(row, x)), ctx.zero()) for row in m.rows]
                    assert g.evaluate(x) == f.evaluate(mx)


def test_restrict_to_pencil_evaluates_as_the_form_on_the_pencil():
    # sum c_m s^(d-m) t^m equals F(sP + tQ) at random (s, t)
    rng = random.Random(101)
    for ctx in _kernel_contexts():
        for degree in (4, 6, 8):
            f = random_kernel_form(ctx, rng, degree, dense=rng.random() < 0.5)
            for _ in range(3):
                p, q = (
                    ProjPoint(ctx, [random_element(ctx, rng) for _ in range(2)] + [ctx.one()])
                    for _ in range(2)
                )
                coeffs = f.restrict_to_pencil(p, q)
                assert len(coeffs) == degree + 1
                s, t = random_element(ctx, rng), random_element(ctx, rng)
                binary = sum(
                    (c * s ** (degree - m) * t ** m for m, c in enumerate(coeffs)),
                    ctx.zero(),
                )
                point = [s * a + t * b for a, b in zip(p.coords, q.coords)]
                assert binary == f.evaluate(point)


# The element-by-element formulas that the sum-of-products kernel replaced.
# Each must agree bit for bit with the rewired method, since every field
# element has one normal form.


def _old_cross(a, b):
    return [
        a[1] * b[2] - a[2] * b[1],
        a[2] * b[0] - a[0] * b[2],
        a[0] * b[1] - a[1] * b[0],
    ]


def _old_matmul(a, b):
    return [
        [a[i][0] * b[0][j] + a[i][1] * b[1][j] + a[i][2] * b[2][j] for j in range(3)]
        for i in range(3)
    ]


def _old_det(r):
    return (
        r[0][0] * (r[1][1] * r[2][2] - r[1][2] * r[2][1])
        - r[0][1] * (r[1][0] * r[2][2] - r[1][2] * r[2][0])
        + r[0][2] * (r[1][0] * r[2][1] - r[1][1] * r[2][0])
    )


def _old_adjugate(r):
    return [
        [
            r[1][1] * r[2][2] - r[1][2] * r[2][1],
            r[0][2] * r[2][1] - r[0][1] * r[2][2],
            r[0][1] * r[1][2] - r[0][2] * r[1][1],
        ],
        [
            r[1][2] * r[2][0] - r[1][0] * r[2][2],
            r[0][0] * r[2][2] - r[0][2] * r[2][0],
            r[0][2] * r[1][0] - r[0][0] * r[1][2],
        ],
        [
            r[1][0] * r[2][1] - r[1][1] * r[2][0],
            r[0][1] * r[2][0] - r[0][0] * r[2][1],
            r[0][0] * r[1][1] - r[0][1] * r[1][0],
        ],
    ]


def _old_inverse(r):
    inv = _old_det(r).inverse()
    return [[c * inv for c in row] for row in _old_adjugate(r)]


def _old_image(r, x):
    return [r[i][0] * x[0] + r[i][1] * x[1] + r[i][2] * x[2] for i in range(3)]


def _old_line_image(r, a):
    minv = _old_inverse(r)
    return [a[0] * minv[0][j] + a[1] * minv[1][j] + a[2] * minv[2][j] for j in range(3)]


def _old_evaluate(f, x):
    d = f.degree
    ctx = f.context
    powers = []
    for v in x:
        p = [ctx.one()]
        for _ in range(d):
            p.append(p[-1] * v)
        powers.append(p)
    acc = ctx.zero()
    for (i, j, k), c in f.terms.items():
        acc = acc + c * powers[0][i] * powers[1][j] * powers[2][k]
    return acc


def _keys(rows):
    return [[c.key() for c in row] for row in rows]


def _nonzero_triple(ctx, rng):
    while True:
        x = [random_element(ctx, rng) for _ in range(3)]
        if any(not c.is_zero() for c in x):
            return x


def test_sum_of_products_kernel_matches_the_elementwise_formulas():
    rng = random.Random(20261018)
    contexts = [FieldContext(4), FieldContext(28), catalog.make("quartic_xy", a=6).context]
    for ctx in contexts:
        for kind in ("general", "general", "singular", "rank1", "zero_row"):
            m = random_kernel_matrix(ctx, rng, kind)
            n = random_kernel_matrix(ctx, rng, "general")
            r = m.rows
            assert _keys((m * n).rows) == _keys(_old_matmul(r, n.rows))
            assert m.det().key() == _old_det(r).key()
            assert _keys(m.adjugate().rows) == _keys(_old_adjugate(r))
            x = _nonzero_triple(ctx, rng)
            image = _old_image(r, x)
            if any(not c.is_zero() for c in image):
                assert m.apply_to_point(ProjPoint(ctx, x)).key() == ProjPoint(ctx, image).key()
            f = random_kernel_form(ctx, rng, rng.choice((4, 6)), dense=rng.random() < 0.5)
            assert f.evaluate(x).key() == _old_evaluate(f, x).key()
            p, q = ProjPoint(ctx, x), ProjPoint(ctx, _nonzero_triple(ctx, rng))
            line = ProjLine(ctx, _nonzero_triple(ctx, rng))
            old_value = sum((c * v for c, v in zip(line.coeffs, p.coords)), ctx.zero())
            assert line.evaluate(p).key() == old_value.key()
            if p != q:
                assert ProjLine.through(p, q).key() == ProjLine(
                    ctx, _old_cross(p.coords, q.coords)
                ).key()
            other = ProjLine(ctx, _nonzero_triple(ctx, rng))
            if line != other:
                assert line.meet(other).key() == ProjPoint(
                    ctx, _old_cross(line.coeffs, other.coeffs)
                ).key()
            if kind != "general" or _old_det(r).is_zero():
                with pytest.raises(ZeroDivisionError, match="matrix is singular"):
                    m.apply_to_line(line)
                continue
            assert m.apply_to_line(line).key() == ProjLine(
                ctx, _old_line_image(r, line.coeffs)
            ).key()


def test_a_point_never_equals_the_line_with_its_coordinates():
    ctx = FieldContext(12)
    rng = random.Random(20261019)
    for _ in range(20):
        coords = _nonzero_triple(ctx, rng)
        p, line = ProjPoint(ctx, coords), ProjLine(ctx, coords)
        assert p.coords == line.coords == line.coeffs
        assert p.key() == line.key() and hash(p) == hash(line)
        assert p != line and line != p
        assert not (p == line) and not (line == p)
        table = {p: "point", line: "line"}
        assert len(table) == 2
        assert table[ProjPoint(ctx, coords)] == "point"
        assert table[ProjLine(ctx, coords)] == "line"
    with pytest.raises(ValueError, match="a plane point needs 3 coordinates"):
        ProjPoint.from_ints(ctx, (1, 0))
    with pytest.raises(ValueError, match="a line needs 3 coefficients"):
        ProjLine.from_ints(ctx, (1, 0, 0, 0))


def _ratio_proportional(f, g):
    """The ratio test proportional_to used before: one inverse, then c * ratio."""
    if f.degree != g.degree:
        return False
    if f.is_zero() or g.is_zero():
        return f.is_zero() and g.is_zero()
    if set(f.terms) != set(g.terms):
        return False
    e0 = next(iter(sorted(f.terms)))
    ratio = g.terms[e0] * f.terms[e0].inverse()
    return all(g.terms[e] == c * ratio for e, c in f.terms.items())


def test_proportional_to_matches_the_ratio_test():
    rng = random.Random(20261020)
    for ctx in _kernel_contexts():
        zero4, zero6 = HomoPoly.zero(ctx, 4), HomoPoly.zero(ctx, 6)
        for _ in range(12):
            degree = rng.choice((4, 6))
            f = random_kernel_form(ctx, rng, degree, dense=rng.random() < 0.5)
            s = random_element(ctx, rng)
            while s.is_zero() or s.is_rational():
                s = random_element(ctx, rng)
            e = rng.choice(sorted(f.terms))
            bumped = dict(f.scale(s).terms)
            bumped[e] = bumped[e] + ctx.one()
            dropped = {k: c for k, c in f.terms.items() if k != e}
            for g in (
                f,
                f.scale(s),
                HomoPoly(ctx, degree, bumped),
                HomoPoly(ctx, degree, dropped),
                random_kernel_form(ctx, rng, degree, dense=False),
                zero4,
                zero6,
            ):
                for a, b in ((f, g), (g, f), (g, g)):
                    assert a.proportional_to(b) == _ratio_proportional(a, b)
            assert f.proportional_to(f.scale(s))
            assert not f.proportional_to(HomoPoly(ctx, degree, dropped))
            if len(f.terms) > 1:
                assert not f.proportional_to(HomoPoly(ctx, degree, bumped))
        assert zero4.proportional_to(zero4) and not zero4.proportional_to(zero6)


def test_proportional_to_edge_cases():
    ctx = FieldContext(24)
    z = ctx.zeta()
    red = next(split_reductions(ctx, []))
    f = HomoPoly.from_int_terms(ctx, 4, {(4, 0, 0): 2, (0, 4, 0): -3, (1, 1, 2): 5})
    moved = HomoPoly.from_int_terms(ctx, 4, {(4, 0, 0): 2, (0, 4, 0): -3, (1, 2, 1): 5})
    fewer = HomoPoly.from_int_terms(ctx, 4, {(4, 0, 0): 2, (0, 4, 0): -3})
    zero = HomoPoly.zero(ctx, 4)
    bump = HomoPoly.from_int_terms(ctx, 4, {(4, 0, 0): 1})
    for g in (moved, fewer, zero):
        assert not f.proportional_to(g) and not g.proportional_to(f)
    assert zero.proportional_to(zero)
    # a root of unity, the prime itself and z - r (zero mod P) are all
    # nonzero scalars of the field
    non_unit = z - red.root
    assert red.element(non_unit) == 0
    for s in (z, ctx.from_int(red.p), non_unit, non_unit.inverse(), -ctx.one()):
        assert f.proportional_to(f.scale(s)) and f.scale(s).proportional_to(f)
        assert not f.proportional_to(f.scale(s) + bump)
        assert ProjMatrix(ctx, [[c * s for c in row] for row in _diagonal(ctx, z)]) == (
            ProjMatrix(ctx, _diagonal(ctx, z))
        )


def _diagonal(ctx, d):
    one, zero = ctx.one(), ctx.zero()
    return [[d, zero, zero], [zero, one, zero], [zero, zero, one]]


def test_matrix_equality_agrees_with_canonical_keys():
    rng = random.Random(20261019)
    for ctx in _kernel_contexts():
        for _ in range(10):
            a = random_kernel_matrix(ctx, rng, rng.choice(("general", "rank1")))
            if all(c.is_zero() for row in a.rows for c in row):
                continue
            s = random_element(ctx, rng)
            while s.is_zero():
                s = random_element(ctx, rng)
            scaled = ProjMatrix(ctx, [[c * s for c in row] for row in a.rows])
            bumped = [list(row) for row in scaled.rows]
            i, j = rng.randrange(3), rng.randrange(3)
            bumped[i][j] = bumped[i][j] + ctx.one()
            for b in (a, scaled, ProjMatrix(ctx, bumped), random_invertible(ctx, rng)):
                same = a.canonical_key() == b.canonical_key()
                assert (a == b) == (b == a) == same
                assert not same or hash(a) == hash(b)


def test_a_zero_divisor_pivot_raises_as_its_inversion_would():
    base = FieldContext(8)
    ctx = base.extend_sqrt(base.from_int(4))  # K x K: l = (2, -2)
    l = ctx.sqrt_generator()
    e = ctx.one() + l * Fraction(1, 2)  # (2, 0), a zero divisor
    a = ProjMatrix(ctx, _diagonal(ctx, e))
    b = ProjMatrix(ctx, [[c * ctx.embed(base.zeta()) for c in row] for row in a.rows])
    assert a == a
    with pytest.raises(ZeroDivisorEncountered):
        a.canonical_key()
    with pytest.raises(ZeroDivisorEncountered):
        a == b
    f = HomoPoly(ctx, 4, {(4, 0, 0): e, (0, 4, 0): ctx.one()})
    with pytest.raises(ZeroDivisorEncountered):
        f.proportional_to(f.scale(ctx.embed(base.zeta())))


def _scale_every_entry(coords):
    """The former _canonicalize: every entry, pivot and zeros included, times
    the pivot's inverse."""
    pivot = next(c for c in coords if not c.is_zero())
    if pivot.is_one():
        return tuple(coords)
    inv = pivot.inverse()
    return tuple(c * inv for c in coords)


def test_canonicalize_matches_scaling_every_entry():
    rng = random.Random(20261023)
    base = FieldContext(24)
    contexts = [FieldContext(n) for n in (3, 4, 24, 28)]
    contexts.append(base.extend_sqrt(base.zeta() + 3))

    def entry(ctx):
        if rng.random() < 0.4:
            return ctx.zero()
        return ctx.from_coords(
            [Fraction(rng.randint(-5, 5), rng.randint(1, 4)) for _ in range(ctx.dim)]
        )

    for ctx in contexts:
        for length in (3, 9):
            for _ in range(12):
                coords = [entry(ctx) for _ in range(length)]
                if all(c.is_zero() for c in coords):
                    coords[-1] = ctx.zeta()
                expected = _scale_every_entry(coords)
                got = _canonicalize(coords)
                assert [c.key() for c in got] == [c.key() for c in expected]
                assert got == expected
                assert all(c.context is ctx for c in got)
        with pytest.raises(ValueError):
            _canonicalize([ctx.zero()] * 3)


def test_gradient_at_matches_the_partials_on_dense_forms():
    rng = random.Random(20261024)
    for conductor in (3, 4, 24):
        ctx = FieldContext(conductor)
        z = ctx.zeta()
        for degree in range(4, 9):
            f = HomoPoly(
                ctx,
                degree,
                {
                    (i, j, degree - i - j): ctx.from_coords(
                        [Fraction(rng.randint(-9, 9), rng.randint(1, 3)) for _ in range(ctx.dim)]
                    )
                    for i in range(degree + 1)
                    for j in range(degree + 1 - i)
                },
            )
            for coords in ([ctx.one(), z + 2, -z * z], [ctx.zero(), ctx.one(), z - 1]):
                p = ProjPoint(ctx, coords)
                expected = tuple(f.partial(v).evaluate(p) for v in range(3))
                assert f.gradient_at(p) == expected
                assert f.gradient_at(p.coords) == expected


_C4 = FieldContext(4)
_E1 = ProjPoint.from_ints(_C4, (1, 0, 0))
_Z0 = ProjLine.from_ints(_C4, (0, 0, 1))
_X4_Y2Z2 = HomoPoly.from_int_terms(_C4, 4, {(4, 0, 0): 1, (0, 2, 2): 1})


@pytest.mark.parametrize(
    "call, error, match",
    [
        pytest.param(lambda: ProjLine.through(_E1, _E1), ValueError, "points coincide", id="through"),
        pytest.param(lambda: _Z0.meet(_Z0), ValueError, "lines coincide", id="meet"),
        pytest.param(lambda: ProjMatrix.from_ints(_C4, ((1, 0, 0), (0, 1, 0))), ValueError, "3x3", id="2x3"),
        pytest.param(lambda: HomoPoly(_C4, 4, {(3, 0, 0): _C4.one()}), ValueError, "incompatible", id="exponent"),
        pytest.param(
            lambda: _X4_Y2Z2 + HomoPoly.from_int_terms(_C4, 3, {(3, 0, 0): 1}),
            ValueError,
            "degrees differ",
            id="degrees",
        ),
        pytest.param(
            lambda: intersection_multiplicity(
                HomoPoly.from_int_terms(_C4, 4, {(3, 0, 1): 1, (0, 3, 1): 1}), _Z0, _E1
            ),
            LineContainedInCurve,
            "lies entirely",
            id="component",
        ),
        pytest.param(
            lambda: tangent_line(_X4_Y2Z2, ProjPoint.from_ints(_C4, (0, 1, 0))),
            NotSmooth,
            "singular at the given point",
            id="singular",
        ),
    ],
)
def test_degenerate_geometry_calls_raise(call, error, match):
    with pytest.raises(error, match=match):
        call()
