"""Matrix group closures, projective orders, and line actions."""

import random
from fractions import Fraction

import pytest

from quasigalois import (
    ClosureCapExceeded,
    CurveNotPreserved,
    FieldContext,
    LineNotPreserved,
    PlaneCurve,
    ProjLine,
    ProjMatrix,
    group_closure,
    line_action_analysis,
    order_histogram,
    projective_order,
    restrict_to_line,
    ZeroDivisorEncountered,
)
from quasigalois import catalog
from quasigalois.cyclotomic import FieldElement
from quasigalois.modular import split_reductions


def diag(ctx, *entries):
    rows = [
        [entries[i] if i == j else ctx.zero() for j in range(3)] for i in range(3)
    ]
    return ProjMatrix(ctx, rows)


def test_projective_order_basics():
    ctx = FieldContext(8)
    z = ctx.zeta()
    assert projective_order(ProjMatrix.identity(ctx)) == 1
    assert projective_order(diag(ctx, z, ctx.one(), ctx.one())) == 8
    # a global scalar is projectively trivial
    assert projective_order(diag(ctx, z, z, z)) == 1
    assert projective_order(diag(ctx, -ctx.one(), ctx.one(), ctx.one())) == 2
    swap = ProjMatrix.from_ints(ctx, ((0, 1, 0), (1, 0, 0), (0, 0, 1)))
    assert projective_order(swap) == 2


def test_projective_order_respects_cap():
    ctx = FieldContext(24)
    z = ctx.zeta()
    m = diag(ctx, z, ctx.one(), ctx.one())
    with pytest.raises(ValueError):
        projective_order(m, cap=10)


def test_closure_of_single_generator_is_cyclic():
    ctx = FieldContext(8)
    i4 = ctx.root_of_unity(4)
    g = group_closure([diag(ctx, i4, ctx.one(), ctx.one())])
    assert len(g) == 4
    assert order_histogram(g) == {1: 1, 2: 1, 4: 2}


def test_closure_of_commuting_diagonals():
    ctx = FieldContext(8)
    i4 = ctx.root_of_unity(4)
    one = ctx.one()
    g = group_closure([diag(ctx, i4, one, one), diag(ctx, one, i4, one)])
    assert len(g) == 16
    assert order_histogram(g) == {1: 1, 2: 3, 4: 12}


def test_closure_contains_inverses_and_products():
    ctx = FieldContext(12)
    z3 = ctx.root_of_unity(3)
    one = ctx.one()
    swap = ProjMatrix.from_ints(ctx, ((0, 1, 0), (1, 0, 0), (0, 0, 1)))
    g = group_closure([diag(ctx, z3, one, one), swap])
    keys = {m.canonical_key() for m in g}
    assert len(keys) == len(g)
    for a in g[:6]:
        assert a.adjugate().canonical_key() in keys
        for b in g[:6]:
            assert (a * b).canonical_key() in keys


def test_closure_cap_raises():
    ctx = FieldContext(24)
    z = ctx.zeta()
    with pytest.raises(ClosureCapExceeded):
        group_closure([diag(ctx, z, ctx.one(), ctx.one())], cap=10)


def test_vertex_stabilizer_group_of_diagonal_quartic(evaluations):
    gens = evaluations["quartic_xy"].groups["generators"]
    assert len(gens) == 16


def test_full_group_orders_from_catalog(evaluations):
    assert len(evaluations["fermat_quartic"].groups["generators"]) == 96
    assert len(evaluations["quartic_klein"].groups["generators"]) == 168
    assert len(evaluations["quartic_symmetric"].groups["generators"]) == 24
    assert len(evaluations["quartic_5family"].groups["generators"]) == 8
    assert len(evaluations["hessian_sextic"].groups["generators"]) == 216


def test_line_action_kernel_image_and_histogram():
    ctx = FieldContext(8)
    i4 = ctx.root_of_unity(4)
    one = ctx.one()
    g = group_closure([diag(ctx, i4, one, one), diag(ctx, one, i4, one)])
    line = ProjLine.from_ints(ctx, (0, 0, 1))
    report = line_action_analysis(g, line)
    assert report.group_order == 16
    # scalar action on the line collapses the diagonal subgroup a = b
    assert report.kernel_order == 4
    assert report.image_order == 4
    assert report.histogram == {1: 1, 2: 1, 4: 2}
    assert report.kernel_order * report.image_order == report.group_order


def test_line_action_rejects_unpreserved_lines():
    ctx = FieldContext(8)
    cycle = ProjMatrix.from_ints(ctx, ((0, 0, 1), (1, 0, 0), (0, 1, 0)))
    g = group_closure([cycle])
    with pytest.raises(LineNotPreserved):
        line_action_analysis(g, ProjLine.from_ints(ctx, (0, 0, 1)))


def test_octahedral_and_tetrahedral_line_actions(evaluations):
    ev = evaluations["sextic_delta8"]
    g3 = ev.groups["g3"]
    aut = ev.groups["aut"]
    assert len(g3) == 72
    assert len(aut) == 144
    ctx = ev.instance.context
    line = ProjLine.from_ints(ctx, (0, 0, 1))
    small = line_action_analysis(g3, line)
    big = line_action_analysis(aut, line)
    assert (small.kernel_order, small.image_order) == (6, 12)
    assert small.histogram == {1: 1, 2: 3, 3: 8}
    assert (big.kernel_order, big.image_order) == (6, 24)
    assert big.histogram == {1: 1, 2: 9, 3: 8, 4: 6}


def test_line_action_of_s3_on_the_invariant_line_x_plus_y_plus_z():
    # the permutation matrices preserve X + Y + Z = 0 and act on it faithfully
    ctx = FieldContext(3)
    cycle = ProjMatrix.from_ints(ctx, ((0, 0, 1), (1, 0, 0), (0, 1, 0)))
    swap = ProjMatrix.from_ints(ctx, ((0, 1, 0), (1, 0, 0), (0, 0, 1)))
    line = ProjLine.from_ints(ctx, (1, 1, 1))
    report = line_action_analysis(group_closure([cycle, swap]), line)
    assert (report.group_order, report.kernel_order, report.image_order) == (6, 1, 6)
    assert report.histogram == {1: 1, 2: 3, 3: 2}


def test_identity_restricts_to_a_scalar_on_every_line():
    ctx = FieldContext(3)
    identity = ProjMatrix.identity(ctx)
    for coeffs in ((0, 1, 1), (1, 1, 1), (1, 0, 2)):
        (a, b), (c, d) = restrict_to_line(identity, ProjLine.from_ints(ctx, coeffs))
        assert b.is_zero() and c.is_zero() and a == d and not a.is_zero(), coeffs


def test_line_actions_survive_a_change_of_coordinates(evaluations):
    # x -> M^-1 g M preserves the line L*M when g preserves L; Z = 0 moves to
    # X + Z = 0, whose spanning vectors are not canonically scaled
    ev = evaluations["sextic_delta8"]
    ctx = ev.instance.context
    M = ProjMatrix.from_ints(ctx, ((1, 1, 0), (0, 1, 1), (1, 0, 1)))
    adj = M.adjugate()
    moved_line = ProjLine(ctx, M.rows[2])
    assert moved_line == ProjLine.from_ints(ctx, (1, 0, 1))
    expected = {
        "g3": (6, 12, {1: 1, 2: 3, 3: 8}),
        "aut": (6, 24, {1: 1, 2: 9, 3: 8, 4: 6}),
    }
    for key, wanted in expected.items():
        moved = [adj * g * M for g in ev.groups[key]]
        report = line_action_analysis(moved, moved_line)
        actual = (report.kernel_order, report.image_order, report.histogram)
        assert actual == wanted, key


def _catalog_closures(evaluations):
    """(name, group key, generators, curve) for every closure evaluate makes."""
    for name, ev in sorted(evaluations.items()):
        if ev.report is None:
            continue
        qg = ev.report.quasi_galois_points()
        gens3 = [r.generator.matrix for r in qg if r.order % 3 == 0]
        sets = {"g3": gens3, "generators": [r.generator.matrix for r in qg]}
        if "aut" in ev.groups:
            sets["aut"] = gens3 + [ev.instance.extras["swap_automorphism"]]
        for key in ev.groups:
            yield name, key, sets[key], ev.instance.curve


def _reference_closure(generators, cap=1000):
    """Breadth-first closure on exact keys: every element times every generator."""
    identity = ProjMatrix.identity(generators[0].context)
    elements = [identity]
    seen = {identity.canonical_key()}
    for m in elements:  # grows while it is iterated
        for g in generators:
            nm = g * m
            key = nm.canonical_key()
            if key not in seen:
                if len(seen) >= cap:
                    raise ClosureCapExceeded(cap)
                seen.add(key)
                elements.append(nm)
    return elements


def _assert_same_group(group, reference, label):
    keys = [m.canonical_key() for m in group]
    assert len(keys) == len(set(keys)) == len(reference), label
    assert set(keys) == {m.canonical_key() for m in reference}, label


def test_closure_equals_reference_closure_on_catalog(evaluations):
    closures = list(_catalog_closures(evaluations))
    assert len(closures) == 11
    for name, key, gens, curve in closures:
        reference = _reference_closure(gens)
        _assert_same_group(group_closure(gens), reference, (name, key))
        _assert_same_group(group_closure(gens, curve=curve), reference, (name, key))
        _assert_same_group(evaluations[name].groups[key], reference, (name, key))


def _unimodular(ctx, rng):
    """A random ProjMatrix with integer entries in -2..2 and determinant +-1."""
    while True:
        m = ProjMatrix.from_ints(ctx, [[rng.randint(-2, 2) for _ in range(3)] for _ in range(3)])
        det = m.det()
        if det.is_one() or (-det).is_one():
            return m


def test_closure_equals_reference_closure_on_moved_members(evaluations):
    # the members of the coordinate-change census test: F(Mx) with the
    # generators M^-1 G M of the catalog closures
    rng = random.Random(8128)
    closures = {}
    for name, key, gens, curve in _catalog_closures(evaluations):
        closures.setdefault(name, []).append((key, gens))
    for name, ev in evaluations.items():
        for _ in range(2):
            m = _unimodular(ev.instance.context, rng)
            inv = m.adjugate()
            moved = PlaneCurve(ev.instance.curve.form.pullback(m))
            for key, gens in closures.get(name, ()):
                moved_gens = [inv * g * m for g in gens]
                group = group_closure(moved_gens, curve=moved)
                _assert_same_group(group, _reference_closure(moved_gens), (name, key))


def test_closure_cap_boundary(evaluations):
    for name, key, gens, curve in _catalog_closures(evaluations):
        order = len(evaluations[name].groups[key])
        assert len(group_closure(gens, cap=order, curve=curve)) == order
        with pytest.raises(ClosureCapExceeded):
            group_closure(gens, cap=order - 1, curve=curve)


def test_redundant_generators_leave_the_group_unchanged(evaluations):
    ev = evaluations["hessian_sextic"]
    gens = [r.generator.matrix for r in ev.report.quasi_galois_points()]
    ctx = ev.instance.context
    z = ctx.zeta()
    scaled = [ProjMatrix(ctx, [[c * z for c in row] for row in g.rows]) for g in gens]
    reference = group_closure(gens)
    for extra in (
        [ProjMatrix.identity(ctx)] + gens,
        gens + gens[::-1],
        scaled,
        gens[:1] + scaled + [ProjMatrix.identity(ctx)],
    ):
        _assert_same_group(group_closure(extra), reference, len(extra))


def test_singular_generator_is_rejected():
    ctx = FieldContext(8)
    one, zero = ctx.one(), ctx.zero()
    swap = ProjMatrix.from_ints(ctx, ((0, 1, 0), (1, 0, 0), (0, 0, 1)))
    singular = diag(ctx, one, one, zero)
    with pytest.raises(ValueError, match="generator 1 is singular"):
        group_closure([swap, singular])
    with pytest.raises(ValueError, match="generator 0 is singular"):
        group_closure([ProjMatrix.from_ints(ctx, ((0,) * 3,) * 3)])


def test_infinite_group_without_curve_exceeds_cap():
    ctx = FieldContext(3)
    shear = ProjMatrix.from_ints(ctx, ((1, 1, 0), (0, 1, 0), (0, 0, 1)))
    with pytest.raises(ClosureCapExceeded):
        group_closure([shear])


def test_generator_not_preserving_the_curve_is_rejected(instances):
    curve = instances["fermat_quartic"].curve
    ctx = curve.context
    i4 = ctx.root_of_unity(4)
    one = ctx.one()
    shear = ProjMatrix.from_ints(ctx, ((1, 1, 0), (0, 1, 0), (0, 0, 1)))
    with pytest.raises(CurveNotPreserved, match="generator 1 does not preserve"):
        group_closure([diag(ctx, i4, one, one), shear], curve=curve)


def test_quadratic_extension_keeps_exact_keys():
    special = catalog.make("quartic_xy", a=6)  # Q(zeta_8)[l], l^2 = 2*sqrt(2)
    ctx = special.context
    t = special.extras["fermat_transform"]  # F(t x) = 8 * (X^4 + Y^4 + Z^4)
    t_inv = t.adjugate()
    one = ctx.one()
    i4 = ctx.embed(ctx.base.root_of_unity(4))
    cycle = ProjMatrix.from_ints(ctx, ((0, 0, 1), (1, 0, 0), (0, 1, 0)))
    gens = [t * m * t_inv for m in (diag(ctx, i4, one, one), cycle)]
    exact = group_closure(gens)
    with_curve = group_closure(gens, curve=special.curve)
    assert len(exact) == 48
    assert len(with_curve) == len(exact)
    assert all(a == b for a, b in zip(with_curve, exact))


def _default_reduction(ctx, entries):
    """The least split prime, for ctx, at which every entry is P-integral."""
    dens = {c.den for c in entries}
    return next(split_reductions(ctx, dens))


def _scaled(m, s):
    return ProjMatrix(m.context, [[c * s for c in row] for row in m.rows])


def test_generators_scaled_by_non_units_at_the_default_prime(evaluations):
    # p and zeta - r reduce to 0 at the prime P that keys the plain
    # generators, so the keys must come from another prime
    for name, key, gens, _curve in _catalog_closures(evaluations):
        if key == "generators" and name != "quartic_klein":
            continue
        ctx = gens[0].context
        red = _default_reduction(ctx, [c for g in gens for c in g.entries()])
        non_unit = ctx.zeta() - red.root
        assert red.element(non_unit) == 0
        reference = _reference_closure(gens)
        for scaled in (
            [_scaled(g, ctx.from_int(red.p)) for g in gens],
            [_scaled(g, non_unit) if i % 2 else g for i, g in enumerate(gens)],
        ):
            _assert_same_group(group_closure(scaled), reference, (name, key, red.p))


def test_line_action_of_elements_scaled_by_non_units(evaluations):
    ev = evaluations["sextic_delta8"]
    ctx = ev.instance.context
    line = ProjLine.from_ints(ctx, (0, 0, 1))
    for key in ("g3", "aut"):
        group = ev.groups[key]
        entries = [c for m in group for row in restrict_to_line(m, line) for c in row]
        red = _default_reduction(ctx, entries)
        plain = line_action_analysis(group, line)
        expected = (plain.kernel_order, plain.image_order, plain.histogram)
        for s in (ctx.from_int(red.p), ctx.zeta() - red.root):
            assert red.element(s) == 0
            for moved in (
                [_scaled(m, s) for m in group],
                [_scaled(m, s) if i % 3 else m for i, m in enumerate(group)],
            ):
                report = line_action_analysis(moved, line)
                actual = (report.kernel_order, report.image_order, report.histogram)
                assert actual == expected, (key, red.p)


def test_closure_and_line_action_make_no_field_inversion(evaluations, monkeypatch):
    ev = evaluations["sextic_delta8"]
    gens = next(
        g for n, k, g, _c in _catalog_closures(evaluations) if (n, k) == ("sextic_delta8", "aut")
    )
    aut = ev.groups["aut"]
    line = ProjLine.from_ints(ev.instance.context, (0, 0, 1))

    def no_inversion(self):
        raise AssertionError("a field inversion")

    monkeypatch.setattr(FieldElement, "inverse", no_inversion)
    group = group_closure(gens)
    report = line_action_analysis(aut, line)
    monkeypatch.undo()
    _assert_same_group(group, aut, "aut")
    assert (report.kernel_order, report.image_order) == (6, 24)


def test_closure_over_k_times_k():
    # l^2 = 4 splits Q(zeta_8)[l] as K x K with l = (2, -2): l/2 = (1, -1)
    base = FieldContext(8)
    ctx = base.extend_sqrt(base.from_int(4))
    half_l = ctx.sqrt_generator() * Fraction(1, 2)
    one = ctx.one()
    gens = [diag(ctx, half_l, one, one), diag(ctx, ctx.embed(base.zeta()), one, one)]
    group = group_closure(gens)
    assert len(group) == 16
    _assert_same_group(group, _reference_closure(gens), "K x K")
    # a determinant that is a zero divisor is no unit: the group is not one
    e = one + half_l  # (2, 0)
    with pytest.raises(ZeroDivisorEncountered):
        group_closure([diag(ctx, e, one, one)])


def test_prime_choice_skips_denominators_and_singular_restrictions():
    ctx = FieldContext(24)
    z, one = ctx.zeta(), ctx.one()
    red = _default_reduction(ctx, [one])
    # entries with p in their denominator are not P-integral: another prime keys them
    zero = ctx.zero()
    shift = one * Fraction(1, red.p)
    m = ProjMatrix(ctx, [[one, shift, zero], [zero, one, zero], [zero, zero, one]])
    g = m.adjugate() * diag(ctx, z, one, one) * m
    assert any(c.den % red.p == 0 for c in g.entries())
    assert len(group_closure([g])) == 24
    line = ProjLine.from_ints(ctx, (0, 0, 1))
    flat = diag(ctx, one, ctx.zero(), one)
    with pytest.raises(ValueError, match="element 1 restricts to a singular matrix"):
        line_action_analysis([ProjMatrix.identity(ctx), flat], line)
