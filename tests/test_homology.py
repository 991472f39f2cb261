"""Homologies: construction, recognition, and point classification."""

import math
import random

import pytest

from quasigalois import (
    FieldContext,
    HomoPoly,
    InvariantViolation,
    NotAHomology,
    ProjLine,
    ProjMatrix,
    ProjPoint,
    RootOfUnityUnavailable,
    classify_point,
    homology_from_matrix,
    homology_matrix,
    intersection_multiplicity,
    multiplicative_order,
    projective_order,
    solve_homology,
    tangent_line,
)
from quasigalois import catalog
from quasigalois.homology import _axis_and_order


def random_point(ctx, rng):
    while True:
        coords = [ctx.from_int(rng.randint(-5, 5)) for _ in range(3)]
        if not all(c.is_zero() for c in coords):
            return ProjPoint(ctx, coords)


def test_homology_matrix_fixes_center_and_axis_randomized():
    ctx = FieldContext(12)
    rng = random.Random(1009)
    for _ in range(30):
        center = random_point(ctx, rng)
        axis = ProjLine(ctx, random_point(ctx, rng).coords)
        if axis.contains(center):
            continue
        n = rng.choice([2, 3, 4, 6, 12])
        zeta = ctx.root_of_unity(n)
        m = homology_matrix(center, axis, zeta)
        assert m.apply_to_point(center) == center
        assert projective_order(m) == n
        p, q = (ProjPoint(ctx, v) for v in axis.spanning_vectors())
        assert m.apply_to_point(p) == p
        assert m.apply_to_point(q) == q
        # any non-fixed point moves along a line through the center
        x = random_point(ctx, rng)
        if x != center and not axis.contains(x):
            y = m.apply_to_point(x)
            if x != y:
                assert ProjLine.through(x, y).contains(center)


def test_homology_matrix_rejects_center_on_axis():
    ctx = FieldContext(4)
    center = ProjPoint.from_ints(ctx, (1, 0, 0))
    axis = ProjLine.from_ints(ctx, (0, 0, 1))
    with pytest.raises(ValueError):
        homology_matrix(center, axis, ctx.root_of_unity(2))


def test_homology_from_matrix_round_trip_randomized():
    ctx = FieldContext(8)
    rng = random.Random(2027)
    for _ in range(25):
        center = random_point(ctx, rng)
        axis = ProjLine(ctx, random_point(ctx, rng).coords)
        if axis.contains(center):
            continue
        n = rng.choice([2, 4, 8])
        m = homology_matrix(center, axis, ctx.root_of_unity(n))
        h = homology_from_matrix(m)
        assert h.center == center
        assert h.axis == axis
        assert h.order == n
        assert multiplicative_order(h.zeta) == n
        assert h.matrix == m


def test_homology_from_matrix_rejects_non_homologies():
    ctx = FieldContext(12)
    with pytest.raises(NotAHomology):
        homology_from_matrix(ProjMatrix.from_ints(ctx, ((1, 0, 0), (0, 2, 0), (0, 0, 3))))
    with pytest.raises(NotAHomology):
        homology_from_matrix(ProjMatrix.from_ints(ctx, ((0, 0, 1), (1, 0, 0), (0, 1, 0))))
    # identity is not a homology either: no unique center/axis
    with pytest.raises(NotAHomology):
        homology_from_matrix(ProjMatrix.identity(ctx))


def test_solve_homology_known_diagonal_answer():
    inst = catalog.make("hessian_sextic")
    form = inst.curve.form
    ctx = form.context
    e1 = ProjPoint.from_ints(ctx, (1, 0, 0))
    zeta3 = ctx.root_of_unity(3)
    h = solve_homology(form, e1, zeta3)
    assert h is not None
    expected = ProjMatrix(
        ctx,
        (
            (zeta3, ctx.zero(), ctx.zero()),
            (ctx.zero(), ctx.one(), ctx.zero()),
            (ctx.zero(), ctx.zero(), ctx.one()),
        ),
    )
    assert h.matrix == expected
    assert h.center == e1
    assert h.axis == ProjLine.from_ints(ctx, (1, 0, 0))


def test_solve_homology_returns_none_off_the_classification():
    inst = catalog.make("fermat_quartic")
    form = inst.curve.form
    ctx = form.context
    generic = ProjPoint.from_ints(ctx, (1, 2, 3))
    assert solve_homology(form, generic, ctx.root_of_unity(4)) is None
    assert solve_homology(form, generic, ctx.root_of_unity(2)) is None


def test_solve_homology_order_must_divide_projection_degree():
    inst = catalog.make("fermat_quartic")
    form = inst.curve.form
    ctx = form.context
    e1 = ProjPoint.from_ints(ctx, (1, 0, 0))
    # order 8 does not divide the projection degree 4, so zeta_8^g != 1
    assert solve_homology(form, e1, ctx.root_of_unity(8)) is None


def test_classify_point_outer_orders():
    fermat = catalog.make("fermat_quartic").curve.form
    ctx = fermat.context
    rec = classify_point(fermat, ProjPoint.from_ints(ctx, (1, 0, 0)))
    assert rec.kind == "outer"
    assert not rec.on_curve
    assert rec.order == 4
    assert rec.projection_degree == 4
    assert rec.is_quasi_galois and rec.is_galois

    rec2 = classify_point(fermat, ProjPoint.from_ints(ctx, (1, 1, 0)))
    assert rec2.kind == "outer"
    assert rec2.order == 2
    assert rec2.is_quasi_galois and not rec2.is_galois

    rec3 = classify_point(fermat, ProjPoint.from_ints(ctx, (1, 2, 3)))
    assert rec3.order == 1
    assert not rec3.is_quasi_galois
    assert rec3.generator is None


def test_classify_point_inner_with_tangency_congruence():
    # X^3 Z + Y^4 + Z^4 passes through (1 : 0 : 0); the projection away from
    # an inner point has degree d - 1 and its homology order must leave the
    # tangency intersection multiplicity congruent to 1.  Conductor 12 holds
    # the cube root of unity that the order-3 generator needs.
    ctx = FieldContext(12)
    form = HomoPoly.from_int_terms(
        ctx, 4, {(3, 0, 1): 1, (0, 4, 0): 1, (0, 0, 4): 1}
    )
    p = ProjPoint.from_ints(ctx, (1, 0, 0))
    rec = classify_point(form, p)
    assert rec.kind == "inner"
    assert rec.on_curve
    assert rec.projection_degree == 3
    assert rec.order == 3
    assert rec.tangency == 4
    assert rec.tangency % rec.order == 1


def test_an_order_needs_no_root_of_unity_but_its_generator_does():
    # Q(i) has no cube root of unity.  The Fermat sextic's reflection center
    # (1 : -1 : 0) still gets its order 2, while (1 : 0 : 0) of order 6 and
    # the inner point (1 : 0 : 0) of X^3 Z + Y^4 + Z^4 of order 3 cannot be
    # given a generator.
    ctx = FieldContext(4)
    sextic = HomoPoly.from_int_terms(ctx, 6, {(6, 0, 0): 1, (0, 6, 0): 1, (0, 0, 6): 1})
    rec = classify_point(sextic, ProjPoint.from_ints(ctx, (1, -1, 0)))
    assert (rec.kind, rec.order) == ("outer", 2)
    assert sextic.pullback(rec.generator.matrix).proportional_to(sextic)
    quartic = HomoPoly.from_int_terms(ctx, 4, {(3, 0, 1): 1, (0, 4, 0): 1, (0, 0, 4): 1})
    for form, order in ((sextic, 6), (quartic, 3)):
        with pytest.raises(RootOfUnityUnavailable) as info:
            classify_point(form, ProjPoint.from_ints(ctx, (1, 0, 0)))
        assert info.value.order == order


def _lift(element, big):
    """The image of an element of Q(zeta_N) in Q(zeta_M), N | M, under zeta_N -> zeta_M^(M/N)."""
    w = big.zeta() ** (big.conductor // element.context.conductor)
    return sum(
        (big.from_rational(c) * w ** k for k, c in enumerate(element.coords())),
        big.zero(),
    )


def _fermat_quartic_inner_points(ctx):
    # x^4 + y^4 = 0 and its permutations: the 12 hyperflexes
    z8 = ctx.root_of_unity(8)
    zero, one = ctx.zero(), ctx.one()
    points = []
    for k in (1, 3, 5, 7):
        r = z8 ** k
        points += [[r, one, zero], [r, zero, one], [zero, r, one]]
    return points


def _sextic_delta8_inner_points(ctx):
    # the 18 points of x^6 + 20 x^3 y^3 - 8 y^6 + z^6 on the coordinate
    # triangle: x^6 = -z^6, z^6 = 8 y^6 and x^3 / y^3 = -10 +- 6 sqrt 3
    z8, z12 = ctx.root_of_unity(8), ctx.root_of_unity(12)
    sqrt2, sqrt3 = z8 + z8 ** 7, z12 + z12 ** 11
    zero, one = ctx.zero(), ctx.one()
    points = []
    for k in range(6):
        points.append([z12 ** (2 * k + 1), zero, one])
        points.append([zero, one, sqrt2 * z12 ** (2 * k)])
    for k in range(3):
        for r in (sqrt3 - one, -sqrt3 - one):
            points.append([r * z12 ** (4 * k), one, zero])
    return points


@pytest.mark.parametrize(
    "name, inner_points, conductor",
    [
        ("fermat_quartic", _fermat_quartic_inner_points, 24),
        ("sextic_delta8", _sextic_delta8_inner_points, 120),
    ],
    ids=["fermat_quartic", "sextic_delta8"],
)
def test_inner_classification_is_the_same_over_a_larger_field(name, inner_points, conductor):
    # the order, locus and tangency of a point do not depend on the field it
    # is read in; the larger field holds a root of unity of every order
    # dividing the projection degree, the catalog field does not
    form = catalog.make(name).curve.form
    ctx, big = form.context, FieldContext(conductor)
    lifted = HomoPoly(big, form.degree, {e: _lift(c, big) for e, c in form.terms.items()})
    for coords in inner_points(ctx):
        point = ProjPoint(ctx, coords)
        assert form.vanishes_at(point)
        rec = classify_point(form, point)
        big_rec = classify_point(lifted, ProjPoint(big, [_lift(c, big) for c in coords]))
        assert rec.on_curve
        assert (rec.order, rec.on_curve, rec.tangency) == (
            big_rec.order,
            big_rec.on_curve,
            big_rec.tangency,
        )


def _hyperflex_quartic():
    # X^4 + Y^3 Z + Z^4: (0 : 1 : 0) is on the curve with tangent Z = 0, and
    # Y -> zeta_3 Y is a homology with that center and axis Y = 0
    ctx = FieldContext(12)
    form = HomoPoly.from_int_terms(ctx, 4, {(4, 0, 0): 1, (0, 3, 1): 1, (0, 0, 4): 1})
    return form, ProjPoint.from_ints(ctx, (0, 1, 0))


def test_inner_axis_is_the_conic_quotient():
    form, p = _hyperflex_quartic()
    ctx = form.context
    rec = classify_point(form, p)
    assert rec.kind == "inner"
    assert rec.projection_degree == 3
    assert rec.order == 3 and rec.is_galois
    assert rec.generator.axis == ProjLine.from_ints(ctx, (0, 1, 0))
    assert rec.tangency == 4
    direct = solve_homology(form, p, ctx.root_of_unity(3))
    assert direct is not None and direct.matrix == rec.generator.matrix


def test_inner_point_without_homology():
    # (1 : zeta_8 : 0) is a hyperflex of the Fermat quartic (tangency 4, so
    # 1 mod 3), yet no homology of order 3 has its center there
    ctx = FieldContext(24)
    form = HomoPoly.from_int_terms(ctx, 4, {(4, 0, 0): 1, (0, 4, 0): 1, (0, 0, 4): 1})
    p = ProjPoint(ctx, [ctx.one(), ctx.root_of_unity(8), ctx.zero()])
    assert intersection_multiplicity(form, tangent_line(form, p), p) == 4
    rec = classify_point(form, p)
    assert rec.kind == "inner"
    assert rec.order == 1
    assert rec.generator is None and rec.tangency is None
    assert solve_homology(form, p, ctx.root_of_unity(3)) is None


def test_order_not_dividing_the_projection_degree_is_an_invariant_violation():
    # X (X^3 + Y^3 + Z^3) contains the polar line X = 0 of (1 : 0 : 0), and
    # X -> zeta_3 X preserves it although 3 does not divide 4
    ctx = FieldContext(12)
    form = HomoPoly.from_int_terms(ctx, 4, {(4, 0, 0): 1, (1, 3, 0): 1, (1, 0, 3): 1})
    p = ProjPoint.from_ints(ctx, (1, 0, 0))
    h = solve_homology(form, p, ctx.root_of_unity(3))
    assert h is not None and h.axis == ProjLine.from_ints(ctx, (1, 0, 0))
    with pytest.raises(InvariantViolation, match="must divide the projection degree"):
        classify_point(form, p)


def test_classify_point_matches_solve_homology_generator():
    hessian = catalog.make("hessian_sextic").curve.form
    ctx = hessian.context
    e2 = ProjPoint.from_ints(ctx, (0, 1, 0))
    rec = classify_point(hessian, e2)
    assert rec.order == 3
    assert rec.generator is not None
    assert rec.generator.center == e2
    direct = solve_homology(hessian, e2, rec.generator.zeta)
    assert direct is not None and direct.order == 3
    assert direct.matrix == rec.generator.matrix


def test_order_six_point_on_mixed_sextic():
    inst = catalog.make("sextic_delta8")
    form = inst.curve.form
    ctx = form.context
    e3 = ProjPoint.from_ints(ctx, (0, 0, 1))
    rec = classify_point(form, e3)
    assert rec.order == 6
    assert rec.kind == "outer"
    assert projective_order(rec.generator.matrix) == 6


def test_generator_preserves_the_curve():
    rng = random.Random(31337)
    for name in ("fermat_quartic", "hessian_sextic", "quartic_klein"):
        form = catalog.make(name).curve.form
        ctx = form.context
        seeds = catalog.make(name).seeds
        for seed in seeds[:3]:
            rec = classify_point(form, seed)
            if rec.generator is None:
                continue
            pulled = form.pullback(rec.generator.matrix)
            assert pulled.proportional_to(form)


def test_classify_point_moves_the_point_once(monkeypatch):
    # an outer point of the Hessian sextic has candidate orders 2, 3 and 6;
    # F is pulled back by the base change once, not once per order
    form = catalog.make("hessian_sextic").curve.form
    point = ProjPoint.from_ints(form.context, (0, 1, 0))
    sources = []
    original = HomoPoly.pullback

    def counting(self, matrix):
        sources.append(self)
        return original(self, matrix)

    monkeypatch.setattr(HomoPoly, "pullback", counting)
    rec = classify_point(form, point)
    assert rec.kind == "outer" and rec.projection_degree == 6
    assert sum(src is form for src in sources) == 1


def _generic_sextic_point():
    form = catalog.make("hessian_sextic").curve.form
    return form, ProjPoint.from_ints(form.context, (1, 2, 3))


@pytest.mark.parametrize(
    "case, kind, order", [(_generic_sextic_point, "outer", 1), (_hyperflex_quartic, "inner", 3)]
)
def test_classify_point_pulls_back_once(monkeypatch, case, kind, order):
    # an order-1 point and an inner point are also settled by one pullback
    form, point = case()
    sources = []
    original = HomoPoly.pullback

    def counting(self, matrix):
        sources.append(self)
        return original(self, matrix)

    monkeypatch.setattr(HomoPoly, "pullback", counting)
    rec = classify_point(form, point)
    assert (rec.kind, rec.order) == (kind, order)
    assert sum(src is form for src in sources) == 1


def _parent_classify(form, point):
    """The earlier solver: move the point to (1:0:0), solve for (b, c), pull back.

    Returns (order, on_curve, generator matrix, axis, tangency).  In the moved
    form G = sum_i X^i * A_i(Y, Z) with top X-degree m, the homology
    (X, Y, Z) -> (zeta X + bY + cZ, Y, Z) needs m (bY + cZ) A_m = (zeta - 1)
    A_(m-1), and each candidate order is confirmed by its own pullback.
    """
    ctx = form.context
    d = form.degree
    zero, one = ctx.zero(), ctx.one()
    piv = next(i for i, c in enumerate(point.coords) if not c.is_zero())
    basis = [ProjPoint(ctx, [one if i == k else zero for i in range(3)]) for k in range(3)]
    B = ProjMatrix.from_columns(point, *[basis[k] for k in range(3) if k != piv])
    G = form.pullback(B)
    buckets = {}
    for (i, _, k), c in G.terms.items():
        buckets.setdefault(i, [zero] * (d - i + 1))[k] = c
    on_curve = d not in buckets
    m = max(buckets)
    a_top = buckets[m]
    a_next = buckets.get(m - 1, [zero] * (d - m + 2))

    def at(arr, s):
        return arr[s] if 0 <= s < len(arr) else zero

    found = {}
    for n in range(2, m + 1):
        if m % n:
            continue
        zeta = ctx.root_of_unity(n)
        target = [(zeta - one) * ctx.from_int(m).inverse() * v for v in a_next]
        s0 = next(s for s, v in enumerate(a_top) if not v.is_zero())
        b = at(target, s0) * a_top[s0].inverse()
        c = (at(target, s0 + 1) - b * at(a_top, s0 + 1)) * a_top[s0].inverse()
        if any(target[s] != b * at(a_top, s) + c * at(a_top, s - 1) for s in range(len(target))):
            continue
        local = ProjMatrix(ctx, [[zeta, b, c], [zero, one, zero], [zero, zero, one]])
        if G.pullback(local) == G.scale(zeta ** m):
            found[n] = (zeta, b, c, local)
    if not found:
        return 1, on_curve, None, None, None
    order = max(found)
    zeta, b, c, local = found[order]
    binv = B.adjugate()
    axis = ProjLine(ctx, [ctx.dot((zeta - one, b, c), col) for col in zip(*binv.rows)])
    tangency = None
    if on_curve:
        tangency = intersection_multiplicity(form, tangent_line(form, point), point)
    return order, on_curve, B * local * binv, axis, tangency


def _unimodular(ctx, rng):
    while True:
        m = ProjMatrix.from_ints(ctx, [[rng.randint(-2, 2) for _ in range(3)] for _ in range(3)])
        if m.det().is_one() or (-m.det()).is_one():
            return m


def test_classify_point_agrees_with_the_parent_solver(evaluations):
    cases = []
    for ev in evaluations.values():
        if ev.report is not None:
            form = ev.instance.curve.form
            cases.extend((form, p) for p in ev.report.records)
    rng = random.Random(4099)
    for name in ("hessian_sextic", "quartic_klein"):
        form = catalog.make(name).curve.form
        cases.extend((form, random_point(form.context, rng)) for _ in range(12))
    for name in ("quartic_symmetric", "quartic_5family"):
        inst = catalog.make(name)
        m = _unimodular(inst.context, rng)
        inv = m.adjugate()
        form = inst.curve.form.pullback(m)
        cases.extend((form, inv.apply_to_point(p)) for p in inst.seeds)
    inner_form, inner_point = _hyperflex_quartic()
    cases.append((inner_form, inner_point))
    cases.append((inner_form, ProjPoint.from_ints(inner_form.context, (0, -1, 1))))
    qg = 0
    for form, p in cases:
        rec = classify_point(form, p)
        order, on_curve, matrix, axis, tangency = _parent_classify(form, p)
        assert (rec.order, rec.on_curve, rec.tangency) == (order, on_curve, tangency), p
        if matrix is None:
            assert rec.generator is None, p
        else:
            assert rec.generator.matrix == matrix, p
            assert rec.generator.axis == axis, p
            qg += 1
    assert qg > 100


def test_census_generators_round_trip_through_homology_from_matrix(evaluations):
    # every generator a catalog census finds is recognized with the center,
    # axis and order that classify_point reported
    checked = 0
    for ev in evaluations.values():
        for rec in ev.report.quasi_galois_points():
            h = homology_from_matrix(rec.generator.matrix)
            assert h.center == rec.point == rec.generator.center
            assert h.axis == rec.generator.axis
            assert h.order == rec.order == rec.generator.order
            checked += 1
    assert checked > 0


def test_homology_from_matrix_rejects_an_elation_and_a_jordan_block():
    ctx = FieldContext(12)
    # an elation has the triple eigenvalue 1, so s1^2 = 3 s2
    with pytest.raises(NotAHomology):
        homology_from_matrix(ProjMatrix.from_ints(ctx, ((1, 1, 0), (0, 1, 0), (0, 0, 1))))
    # nu = 2 passes the closed form, but rank(M - 2I) = 2
    with pytest.raises(NotAHomology):
        homology_from_matrix(ProjMatrix.from_ints(ctx, ((2, 1, 0), (0, 2, 0), (0, 0, 3))))


def test_homology_from_matrix_recognizes_a_scaled_homology():
    ctx = FieldContext(12)
    rng = random.Random(3)
    checked = 0
    while checked < 10:
        center = random_point(ctx, rng)
        axis = ProjLine(ctx, random_point(ctx, rng).coords)
        if axis.contains(center):
            continue
        n = rng.choice([2, 3, 4, 6, 12])
        m = homology_matrix(center, axis, ctx.root_of_unity(n))
        h = homology_from_matrix(ProjMatrix(ctx, [[3 * c for c in row] for row in m.rows]))
        assert (h.center, h.axis, h.order) == (center, axis, n)
        assert h.zeta == ctx.root_of_unity(n)
        checked += 1


def test_homology_from_matrix_recognizes_a_ratio_of_order_2n_at_odd_conductor():
    # Q(zeta_129) holds a primitive 258th root of unity, past the former cap 256
    ctx = FieldContext(129)
    center = ProjPoint.from_ints(ctx, (1, 0, 0))
    axis = ProjLine.from_ints(ctx, (1, 0, 0))
    h = homology_from_matrix(homology_matrix(center, axis, ctx.root_of_unity(258)))
    assert h.order == 258
    assert h.center == center
    assert h.axis == axis


def _axis_and_order_by_canonical_points(form, point):
    """The former _axis_and_order: the gradient from three partial forms, and
    B's last two columns the canonical spanning points of the axis."""
    ctx = form.context
    t = tuple(form.partial(v).evaluate(point) for v in range(3))
    on_curve = ctx.dot(t, point.coords).is_zero()
    k = next(i for i, c in enumerate(t) if not c.is_zero())
    if on_curve:
        h = form.partial(k).gradient_at(point)
        two_tk = ctx.from_int(2) * t[k]
        axis = ProjLine(ctx, [two_tk * h[j] - h[k] * t[j] for j in range(3)])
    else:
        axis = ProjLine(ctx, t)
    p, q = (ProjPoint(ctx, v) for v in axis.spanning_vectors())
    G = form.pullback(ProjMatrix.from_columns(point, p, q))
    degrees = {i for i, _, _ in G.terms}
    m = max(degrees)
    return on_curve, axis, math.gcd(*(m - i for i in degrees)), t


def _assert_classified_as_by_canonical_points(form, point):
    on_curve, axis, g, t = _axis_and_order_by_canonical_points(form, point)
    assert _axis_and_order(form, point) == (on_curve, axis, g, t), point
    rec = classify_point(form, point)
    assert (rec.on_curve, rec.order) == (on_curve, g), point
    if g == 1:
        assert rec.generator is None and rec.tangency is None, point
        return False
    ctx = form.context
    matrix = homology_matrix(point, axis, ctx.root_of_unity(g))
    assert rec.generator.axis == axis, point
    assert rec.generator.matrix.canonical_key() == matrix.canonical_key(), point
    tangency = None
    if on_curve:
        tangency = intersection_multiplicity(form, ProjLine(ctx, t), point)
    assert rec.tangency == tangency, point
    return True


def test_classification_by_raw_spanning_vectors_matches_canonical_points(evaluations):
    qg = 0
    for ev in evaluations.values():
        if ev.report is not None:
            form = ev.instance.curve.form
            for p in ev.report.records:
                qg += _assert_classified_as_by_canonical_points(form, p)
    assert qg > 100
    # conductor 199: a generic point (three dense inversions before), and
    # the order-2 center of X -> -X moved by a shear with entries zeta
    ctx = FieldContext(199)
    z, one, zero = ctx.zeta(), ctx.one(), ctx.zero()
    form = HomoPoly.from_int_terms(ctx, 4, {(4, 0, 0): 1, (0, 4, 0): 1, (0, 0, 4): 1, (1, 3, 0): 1})
    assert not _assert_classified_as_by_canonical_points(form, ProjPoint(ctx, [one, z, z + 2]))
    even = HomoPoly.from_int_terms(
        ctx, 4, {(4, 0, 0): 1, (2, 1, 1): 1, (0, 4, 0): 1, (0, 1, 3): 1, (0, 0, 4): 1}
    )
    shear = ProjMatrix(ctx, [[one, zero, zero], [z, one, zero], [zero, z, one]])
    center = shear.adjugate().apply_to_point(ProjPoint.from_ints(ctx, (1, 0, 0)))
    assert _assert_classified_as_by_canonical_points(even.pullback(shear), center)


def test_homology_from_matrix_rejects_singular_matrices():
    # diag(1, 0, 0) has the double eigenvalue nu = 0, which used to reach mu / nu
    ctx = FieldContext(12)
    for diagonal in ((1, 0, 0), (0, 1, 1)):
        rows = [[diagonal[i] if i == j else 0 for j in range(3)] for i in range(3)]
        with pytest.raises(NotAHomology, match="invertible"):
            homology_from_matrix(ProjMatrix.from_ints(ctx, rows))


def test_misuse_of_the_classification_raises():
    ctx = FieldContext(4)
    cusp = HomoPoly.from_int_terms(ctx, 4, {(3, 0, 1): 1, (0, 4, 0): 1})
    with pytest.raises(ValueError, match="singular at the point"):
        classify_point(cusp, ProjPoint.from_ints(ctx, (0, 0, 1)))
    fermat = catalog.make("fermat_quartic")
    vertex = ProjPoint.from_ints(fermat.context, (1, 0, 0))
    with pytest.raises(ValueError, match="different from 1"):
        solve_homology(fermat.curve.form, vertex, fermat.context.one())
    # eigenvalues 2, 1, 1: a plane of fixed points, but a ratio of infinite order
    with pytest.raises(NotAHomology, match="not a root of unity"):
        homology_from_matrix(ProjMatrix.from_ints(ctx, ((2, 0, 0), (0, 1, 0), (0, 0, 1))))
