"""Floating-point cross-checks: embeddings and center counting."""

import random
from fractions import Fraction

import numpy as np
import pytest

from quasigalois import (
    FieldContext,
    ProjPoint,
    embed_element,
    embed_point,
    numeric_census,
    numeric_curve,
)
from quasigalois import catalog, oracle


def random_element(ctx, rng):
    coords = [Fraction(rng.randint(-6, 6), rng.randint(1, 4)) for _ in range(ctx.dim)]
    return ctx.from_coords(coords)


def test_embedding_is_a_ring_homomorphism():
    rng = random.Random(60601)
    contexts = [FieldContext(n) for n in (3, 8, 24, 28)]
    c5 = FieldContext(5)
    contexts.append(c5.extend_sqrt(c5.one() - c5.zeta() - c5.zeta() ** 4))
    for ctx in contexts:
        for _ in range(25):
            a = random_element(ctx, rng)
            b = random_element(ctx, rng)
            assert abs(embed_element(a + b) - (embed_element(a) + embed_element(b))) <= 1e-12
            assert abs(embed_element(a * b) - embed_element(a) * embed_element(b)) <= 1e-10
        assert abs(embed_element(ctx.one()) - 1.0) <= 1e-15
        assert abs(embed_element(ctx.zero())) <= 1e-15


def test_embedding_sends_zeta_to_principal_root():
    for n in (3, 8, 12):
        ctx = FieldContext(n)
        expected = np.exp(2j * np.pi / n)
        assert abs(embed_element(ctx.zeta()) - expected) <= 1e-12


def test_extension_embedding_squares_to_tag():
    ctx = FieldContext(5)
    lam = ctx.one() - ctx.zeta() - ctx.zeta() ** 4
    ext = ctx.extend_sqrt(lam)
    g = embed_element(ext.sqrt_generator())
    assert abs(g * g - embed_element(lam)) <= 1e-12


def test_point_embedding_is_normalized():
    ctx = FieldContext(8)
    p = embed_point(ProjPoint.from_ints(ctx, (1, 2, 3)))
    assert p.shape == (3,)
    assert abs(np.linalg.norm(p) - 1.0) <= 1e-12


def test_numeric_curve_vanishes_on_curve_points():
    inst = catalog.make("fermat_quartic")
    nc = numeric_curve(inst.curve)
    assert nc.degree == 4
    ctx = inst.context
    on = embed_point(ProjPoint(ctx, [ctx.one(), ctx.zeta(), ctx.zero()]))
    off = embed_point(ProjPoint.from_ints(ctx, (1, 0, 0)))
    assert abs(nc.evaluate(on)) <= 1e-12
    assert abs(nc.evaluate(off)) >= 1e-3
    # the form and the wrapped curve give the same embedding
    nc2 = numeric_curve(inst.curve.form)
    assert abs(nc2.evaluate(on)) <= 1e-12


def test_numeric_census_counts_fermat_fourfold_centers():
    inst = catalog.make("fermat_quartic")
    result = numeric_census(inst.curve, 4, starts=150, seed=0)
    assert result.count == 3
    assert len(result.centers) == 3
    assert result.diagnostics["order"] == 4
    # the three centers are the coordinate vertices
    expected = [
        embed_point(ProjPoint.from_ints(inst.context, v))
        for v in ((1, 0, 0), (0, 1, 0), (0, 0, 1))
    ]
    for target in expected:
        dots = [abs(np.vdot(target, c)) for c in result.centers]
        assert max(dots) >= 1 - 1e-6


def test_numeric_census_is_deterministic_for_a_seed():
    inst = catalog.make("quartic_5family")
    a = numeric_census(inst.curve, 2, starts=120, seed=7)
    b = numeric_census(inst.curve, 2, starts=120, seed=7)
    assert a.count == b.count
    assert len(a.centers) == len(b.centers)
    for x, y in zip(a.centers, b.centers):
        assert np.allclose(x, y, atol=1e-12)


def test_numeric_census_zero_when_no_such_order():
    inst = catalog.make("fermat_quartic")
    result = numeric_census(inst.curve, 3, starts=100, seed=0)
    assert result.count == 0
    assert result.centers == [] or len(result.centers) == 0


def test_numeric_census_validates_arguments():
    inst = catalog.make("fermat_quartic")
    with pytest.raises(ValueError):
        numeric_census(inst.curve, 1, starts=10)
    with pytest.raises(ValueError):
        numeric_census(inst.curve, 5, starts=10)


def test_objective_landscape_is_seed_independent():
    # different RNG seeds must optimize the same objective: the same curve
    # and order give identical center sets once converged
    inst = catalog.make("quartic_xy")
    a = numeric_census(inst.curve, 4, starts=200, seed=0)
    b = numeric_census(inst.curve, 4, starts=200, seed=123)
    assert a.count == b.count == 1
    assert abs(np.vdot(a.centers[0], b.centers[0])) >= 1 - 1e-6


def test_numeric_census_rejects_negative_starts():
    inst = catalog.make("fermat_quartic")
    with pytest.raises(ValueError):
        numeric_census(inst.curve, 2, starts=-1)


def test_fubini_study_resolves_angles_far_below_the_square_root_of_epsilon():
    rng = np.random.default_rng(5)
    p = rng.normal(size=3) + 1j * rng.normal(size=3)
    p /= np.linalg.norm(p)
    u = np.cross(p.conjugate(), rng.normal(size=3))  # vdot(p, u) = 0
    u /= np.linalg.norm(u)
    for eps in (1e-12, 1e-9, 1e-6):
        # the distance is the sine of the angle, for any scale and phase of q
        q = (2.0 - 3j) * (p + eps * u)
        assert abs(oracle._fubini_study(p, q) - eps) <= 1e-3 * eps
    assert oracle._fubini_study(p, 1j * p) <= 1e-15
    assert abs(oracle._fubini_study(p, u) - 1.0) <= 1e-15


def _realified_image(num, samples, zeta, chart, x):
    """F(M samples) for the homology M of the chart's parameters, realified."""
    cx = x[:4] + 1j * x[4:]
    center = np.insert(cx[:2], chart[0], 1.0)
    axis = np.insert(cx[2:], chart[1], 1.0)
    m = np.eye(3) + (zeta - 1.0) * np.outer(center, axis) / (axis @ center)
    g = num.evaluate_many(samples @ m.T)
    return np.concatenate([g.real, g.imag])


@pytest.mark.parametrize("name, n", [("fermat_quartic", 2), ("hessian_sextic", 3)])
def test_jacobian_matches_central_differences_in_every_chart(name, n):
    # with the projection scale frozen, the residual's Jacobian is the
    # derivative of g(x) = F(y(x)) at the fixed samples
    num = numeric_curve(catalog.make(name).curve)
    search = oracle._Search(num, n, seed=0, starts=9)
    h = 1e-6
    for idx in range(9):
        chart = (idx % 3, idx // 3)
        search.set_chart(chart)
        x = search.starts[idx]
        jac = search.jacobian(x)
        assert jac.shape == (2 * len(search.samples), 8)
        fd = np.empty_like(jac)
        for j in range(8):
            step = np.zeros(8)
            step[j] = h
            fd[:, j] = (
                _realified_image(num, search.samples, search.zeta, chart, x + step)
                - _realified_image(num, search.samples, search.zeta, chart, x - step)
            ) / (2 * h)
        assert np.abs(jac - fd).max() <= 1e-6 * max(1.0, np.abs(fd).max()), (name, chart)


def _reference_evaluation(search, num, chart, x):
    """Residual and Jacobian by a 3x3 homology matrix and per-form contraction.

    Each partial of F is contracted over its own monomials, as an
    evaluation with one curve per partial does.
    """
    cx = x[:4] + 1j * x[4:]
    center = np.insert(cx[:2], chart[0], 1.0 + 0j)
    axis = np.insert(cx[2:4], chart[1], 1.0 + 0j)
    denom = axis @ center
    m = np.eye(3, dtype=complex) + (search.zeta - 1.0) * np.outer(center, axis) / denom
    s = search.samples
    y = s @ m.T
    g = num.evaluate_many(y)
    scale = np.vdot(search.f_samples, g) / search.f_norm2
    r = g - scale * search.f_samples
    grad = []
    for v in range(3):
        keep = num.exps[:, v] > 0
        exps = num.exps[keep].copy()
        coeffs = num.coeffs[keep] * exps[:, v]
        exps[:, v] -= 1
        mono = y[:, 0:1] ** exps[:, 0] * y[:, 1:2] ** exps[:, 1] * y[:, 2:3] ** exps[:, 2]
        grad.append(mono @ coeffs)
    grad = np.stack(grad, axis=1)
    t = s @ axis
    gp = grad @ center
    w = (search.zeta - 1.0) / denom
    jac = np.empty((len(s), 4), dtype=complex)
    free_p = [i for i in range(3) if i != chart[0]]
    free_l = [i for i in range(3) if i != chart[1]]
    for col, i in enumerate(free_p):
        jac[:, col] = w * t * (grad[:, i] - (axis[i] / denom) * gp)
    for col, i in enumerate(free_l):
        jac[:, 2 + col] = w * (s[:, i] - center[i] * t / denom) * gp
    return (
        np.concatenate([r.real, r.imag]),
        np.block([[jac.real, -jac.imag], [jac.imag, jac.real]]),
    )


@pytest.mark.parametrize(
    "name, n", [("fermat_quartic", 2), ("hessian_sextic", 3), ("sextic_delta8", 3)]
)
def test_evaluation_rounds_exactly_like_the_reference(name, n):
    # starts that end near tol converge or not depending on the last bit, so
    # the fused evaluation must not change a single one
    num = numeric_curve(catalog.make(name).curve)
    search = oracle._Search(num, n, seed=1, starts=27)
    for idx in range(27):
        chart = (idx % 3, (idx // 3) % 3)
        search.set_chart(chart)
        x = search.starts[idx] * 10.0 ** (idx % 3 - 1)
        res, jac = _reference_evaluation(search, num, chart, x)
        assert search.residual(x).tobytes() == res.tobytes(), (name, idx)
        assert search.jacobian(x).tobytes() == jac.tobytes(), (name, idx)


def test_degenerate_homology_gives_flat_residual_and_zero_jacobian():
    num = numeric_curve(catalog.make("fermat_quartic").curve)
    search = oracle._Search(num, 2, seed=0, starts=1)
    search.set_chart((0, 0))
    # center (1, 1, 0) and axis (1, -1, 0): axis . center = 0
    x = np.array([1.0, 0.0, -1.0, 0.0, 0.0, 0.0, 0.0, 0.0])
    k = len(search.samples)
    assert np.array_equal(search.residual(x), np.full(2 * k, 1e3))
    assert np.array_equal(search.jacobian(x), np.zeros((2 * k, 8)))


# Recorded with scipy's least_squares(method="lm") driver and one
# NumericCurve per partial: fermat_quartic, n=2, 60 starts, seed 0.  Every
# start ends below 1e-14 or above 0.9, far from tol, so lmder's run-to-run
# variation cannot move the converged count.
PINNED_CONVERGED = 46
PINNED_CENTERS = [
    (-1, 1, 0), (0, -1j, 1), (0, 0, 1), (0, 1, -1), (0, 1, -1j),
    (0, 1, 0), (0, 1, 1), (1, -1j, 0), (1, 0, -1), (1, 0, -1j),
    (1, 0, 0), (1, 0, 1j), (1, 0, 1), (1, 1j, 0), (1, 1, 0),
]


def test_small_census_matches_the_pinned_run():
    result = numeric_census(catalog.make("fermat_quartic").curve, 2, starts=60, seed=0)
    assert result.diagnostics["converged"] == PINNED_CONVERGED
    assert result.count == len(PINNED_CENTERS)
    pinned = [np.array(p, dtype=complex) / np.linalg.norm(p) for p in PINNED_CENTERS]
    found = [c / np.linalg.norm(c) for c in result.centers]
    # a bijection of projective points: each pinned center is matched once
    overlap = np.abs(np.array([[np.vdot(p, c) for c in found] for p in pinned]))
    assert (overlap.max(axis=1) >= 1 - 1e-12).all()
    assert sorted(overlap.argmax(axis=1)) == list(range(len(found)))


@pytest.mark.parametrize(
    "name, n", [("quartic_klein", 2), ("sextic_delta8", 6), ("hessian_sextic", 6)]
)
def test_evaluation_rounds_exactly_like_the_reference_on_the_other_plan_pairs(name, n):
    test_evaluation_rounds_exactly_like_the_reference(name, n)


def _counted(fcn):
    def residual(x):
        residual.calls += 1
        return fcn(x)

    residual.calls = 0
    return residual


@pytest.mark.parametrize(
    "name, n, starts", [("fermat_quartic", 2, 60), ("sextic_delta8", 3, 40)]
)
def test_early_stop_keeps_the_full_lmder_run_start_by_start(name, n, starts, monkeypatch):
    # numeric_census stops a start at its first residual below tol; lmder run
    # to its own end must converge on exactly the same starts, to the same
    # centers, after more residual evaluations
    num = numeric_curve(catalog.make(name).curve)
    tol = oracle._RESIDUAL_TOL
    lmder = oracle._lmder
    stopped = []  # (converged, point, residual evaluations) per start

    def recording(fcn, jac, x0, *args):
        counted = _counted(fcn)
        try:
            out = lmder(counted, jac, x0, *args)
        except oracle._Converged as stop:
            stopped.append((True, stop.params, counted.calls))
            raise
        stopped.append((np.linalg.norm(out[1]["fvec"]) < tol, out[0], counted.calls))
        return out

    monkeypatch.setattr(oracle, "_lmder", recording)
    result = numeric_census(num, n, starts=starts, seed=0)
    assert len(stopped) == starts
    assert result.diagnostics["converged"] == sum(c for c, _, _ in stopped)

    search = oracle._Search(num, n, seed=0, starts=starts)
    full_calls = 0
    for idx, (converged, point, _) in enumerate(stopped):
        search.set_chart((idx % 3, (idx // 3) % 3))
        counted = _counted(search.residual)
        x, info, _ier = lmder(
            counted, search.jacobian, search.starts[idx].flatten(), *oracle._LMDER_ARGS
        )
        full_calls += counted.calls
        assert (np.linalg.norm(info["fvec"]) < tol) == converged, (name, idx)
        if converged:
            center, full = search.assemble(point)[0], search.assemble(x)[0]
            assert oracle._fubini_study(center, full) < 1e-8, (name, idx)
    assert sum(calls for _, _, calls in stopped) < full_calls
