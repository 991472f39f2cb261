"""Exact smoothness decisions over the algebraic closure."""

import random

import pytest

from quasigalois import (
    FieldContext,
    HomoPoly,
    NotSmooth,
    PlaneCurve,
    ProjMatrix,
    is_smooth,
)
from quasigalois import catalog
from quasigalois.cyclotomic import _conjugate
from quasigalois.smoothness import _monomials


def test_all_catalog_forms_are_smooth(instances):
    for name, inst in instances.items():
        assert is_smooth(inst.curve.form), name


def test_known_singular_quartics():
    ctx = FieldContext(4)
    # cuspidal: X^3 Z + Y^4 has a singular point at (0 : 0 : 1)
    cusp = HomoPoly.from_int_terms(ctx, 4, {(3, 0, 1): 1, (0, 4, 0): 1})
    assert not is_smooth(cusp)
    # union of four lines through coordinate vertices
    lines = HomoPoly.from_int_terms(ctx, 4, {(2, 2, 0): 1, (0, 2, 2): 1})
    assert not is_smooth(lines)
    # binary quartic in X, Y only: singular at (0 : 0 : 1)
    binary = HomoPoly.from_int_terms(ctx, 4, {(4, 0, 0): 1, (0, 4, 0): 1})
    assert not is_smooth(binary)


def test_parameter_boundaries_are_singular():
    with pytest.raises(NotSmooth):
        catalog.make("quartic_xy", a=2)
    with pytest.raises(NotSmooth):
        catalog.make("quartic_xy", a=-2)
    with pytest.raises(NotSmooth):
        catalog.make("quartic_symmetric", a=-1)
    with pytest.raises(NotSmooth):
        catalog.make("quartic_symmetric", a=2)
    with pytest.raises(NotSmooth):
        catalog.make("quartic_symmetric", a=-2)


def test_singularity_can_be_invisible_over_the_base_field():
    # X^4 + 2 X^2 Y^2 + Y^4 + ... style: nodes only at conjugate points
    ctx = FieldContext(4)
    # (X^2 + Y^2)^2 + Z^4 is singular exactly at (1 : ±i : 0)
    form = HomoPoly.from_int_terms(
        ctx, 4, {(4, 0, 0): 1, (2, 2, 0): 2, (0, 4, 0): 1, (0, 0, 4): 1}
    )
    assert not is_smooth(form)


def test_smoothness_is_invariant_under_linear_substitution():
    rng = random.Random(1291)
    ctx = FieldContext(4)
    smooth = HomoPoly.from_int_terms(
        ctx, 4, {(4, 0, 0): 1, (0, 4, 0): 1, (0, 0, 4): 1}
    )
    singular = HomoPoly.from_int_terms(ctx, 4, {(3, 0, 1): 1, (0, 4, 0): 1})
    for _ in range(8):
        while True:
            m = ProjMatrix.from_ints(
                ctx, [[rng.randint(-3, 3) for _ in range(3)] for _ in range(3)]
            )
            if not m.det().is_zero():
                break
        assert is_smooth(smooth.pullback(m))
        assert not is_smooth(singular.pullback(m))


def test_plane_curve_gate_matches_is_smooth():
    ctx = FieldContext(4)
    cusp = HomoPoly.from_int_terms(ctx, 4, {(3, 0, 1): 1, (0, 4, 0): 1})
    with pytest.raises(NotSmooth):
        PlaneCurve(cusp)
    good = HomoPoly.from_int_terms(
        ctx, 4, {(3, 0, 1): 1, (0, 4, 0): 1, (0, 0, 4): 1}
    )
    curve = PlaneCurve(good)
    assert curve.form == good
    assert curve.degree == 4


def test_sextic_boundary_values():
    # the one-parameter sextic family degenerates at a = 0 but stays smooth
    # at other small integers
    for a in (1, -1, 3, 7):
        inst = catalog.make("sextic_delta4", a=a)
        assert is_smooth(inst.curve.form)


def _random_invertible(rng, ctx):
    while True:
        m = ProjMatrix.from_ints(
            ctx, [[rng.randint(-2, 2) for _ in range(3)] for _ in range(3)]
        )
        if not m.det().is_zero():
            return m


@pytest.mark.parametrize(
    "conductor, degree",
    [(3, d) for d in (2, 3, 4, 5, 6)] + [(4, d) for d in (2, 3, 4, 5)],
)
def test_moved_forms_of_every_degree(conductor, degree):
    # A form with no monomial of X-degree >= d - 1 has all partials zero at
    # (1 : 0 : 0); a change of coordinates hides that point but keeps it
    # singular, and keeps the Fermat curve smooth.
    rng = random.Random(1000 * conductor + degree)
    ctx = FieldContext(conductor)
    singular = HomoPoly.from_int_terms(
        ctx,
        degree,
        {
            e: rng.choice((-3, -2, -1, 1, 2, 3))
            for e in _monomials(degree)
            if e[0] <= degree - 2
        },
    )
    fermat = HomoPoly.from_int_terms(
        ctx, degree, {(degree, 0, 0): 1, (0, degree, 0): 1, (0, 0, degree): 1}
    )
    assert not is_smooth(singular.pullback(_random_invertible(rng, ctx)))
    assert is_smooth(fermat.pullback(_random_invertible(rng, ctx)))


def test_sextic_singular_only_at_points_outside_the_field():
    # (X^2 + Y^2)^3 + Z^6 is singular exactly at (1 : +-i : 0), and i is not
    # in Q(zeta_3)
    ctx = FieldContext(3)
    form = HomoPoly.from_int_terms(
        ctx,
        6,
        {(6, 0, 0): 1, (4, 2, 0): 3, (2, 4, 0): 3, (0, 6, 0): 1, (0, 0, 6): 1},
    )
    assert not is_smooth(form)


def test_low_degree_forms():
    ctx = FieldContext(1)
    nodal_cubic = HomoPoly.from_int_terms(
        ctx, 3, {(0, 2, 1): 1, (3, 0, 0): -1, (2, 0, 1): -1}
    )
    assert not is_smooth(nodal_cubic)
    assert is_smooth(
        HomoPoly.from_int_terms(ctx, 3, {(3, 0, 0): 1, (0, 3, 0): 1, (0, 0, 3): 1})
    )
    assert not is_smooth(HomoPoly.from_int_terms(ctx, 2, {(1, 1, 0): 1}))
    assert is_smooth(
        HomoPoly.from_int_terms(ctx, 2, {(2, 0, 0): 1, (0, 2, 0): 1, (0, 0, 2): 1})
    )
    for coeffs in ((1, 0, 0), (0, 0, -2), (3, -1, 5)):
        line = HomoPoly.linear_form(ctx, [ctx.from_int(c) for c in coeffs])
        assert is_smooth(line)
    with pytest.raises(ValueError):
        is_smooth(HomoPoly.zero(ctx, 4))


def test_smoothness_is_invariant_under_galois_conjugation():
    ctx = FieldContext(8)
    zeta = ctx.zeta()
    smooth = catalog.make("quartic_symmetric", a=zeta + 1).curve.form
    # (X^2 + zeta Y^2)^2 + Z^4 is singular along X^2 + zeta Y^2 = Z = 0
    one = ctx.one()
    singular = HomoPoly(
        ctx,
        4,
        {(4, 0, 0): one, (2, 2, 0): zeta * 2, (0, 4, 0): zeta * zeta, (0, 0, 4): one},
    )
    for form, expected in ((smooth, True), (singular, False)):
        assert is_smooth(form) is expected
        for k in (5, 7):
            terms = {e: _conjugate(c, k) for e, c in form.terms.items()}
            assert terms != form.terms
            assert is_smooth(HomoPoly(ctx, form.degree, terms)) is expected
