"""End-to-end acceptance checks for the census toolkit.

Each criterion is one test; `pytest -v` therefore emits one pass/fail line
per criterion.  Every test also prints a one-line summary (visible with -s
or in captured output) stating what was established.
"""

import random
from fractions import Fraction

import numpy as np
import pytest

from quasigalois import (
    FieldContext,
    HomoPoly,
    NotSmooth,
    ProjLine,
    ProjMatrix,
    ProjPoint,
    census,
    classify_point,
    embed_point,
    group_closure,
    has_pair_normal_support,
    homology_from_matrix,
    line_action_analysis,
    line_profile,
    normalize_pair,
    numeric_census,
    projective_order,
)
from quasigalois import catalog


def pts(ctx, *vecs):
    return [ProjPoint.from_ints(ctx, v) for v in vecs]


@pytest.fixture(scope="module")
def hessian_report():
    inst = catalog.make("hessian_sextic")
    seeds = pts(inst.context, (1, 0, 0), (0, 1, 0), (0, 0, 1), (1, 1, 1))
    return inst, census(inst.curve, seeds)


@pytest.fixture(scope="module")
def mixed_report():
    inst = catalog.make("sextic_delta8")
    seeds = pts(inst.context, (1, 0, 0), (0, 1, 0), (1, -1, 0), (0, 0, 1))
    return inst, census(inst.curve, seeds)


def test_criterion_01_hessian_order3_census_is_certified(hessian_report):
    inst, report = hessian_report
    assert report.delta_prime == {2: 0, 3: 12, 6: 0}
    assert report.certification == "certified"
    assert report.certification_bound == 12
    assert all(not r.on_curve for r in report.records.values())
    print("criterion 1: PASS — hessian sextic: delta'[3]=12, certified, from 4 seeds")


def test_criterion_02_hessian_generator_closure_is_216(hessian_report):
    inst, report = hessian_report
    gens = [r.generator.matrix for r in report.records.values() if r.order == 3]
    assert len(gens) == 12
    group = group_closure(gens)
    assert len(group) == 216
    ctx = inst.context
    w = ctx.zeta()
    one = ctx.one()
    a_tau = ProjMatrix(ctx, ((w, one, one), (one, w, one), (one, one, w)))
    keys = {m.canonical_key() for m in group}
    assert a_tau.canonical_key() in keys
    print("criterion 2: PASS — closure of the 12 order-3 generators has order 216 "
          "and contains the unit-point homology")


def test_criterion_03_mixed_sextic_census(mixed_report):
    inst, report = mixed_report
    assert report.delta_prime == {2: 0, 3: 8, 6: 1}
    ctx = inst.context
    z_line = ProjLine.from_ints(ctx, (0, 0, 1))
    order3 = [r for r in report.records.values() if r.order == 3]
    assert len(order3) == 8
    assert all(z_line.contains(r.point) for r in order3)
    e3 = ProjPoint.from_ints(ctx, (0, 0, 1))
    assert report.records[e3].order == 6
    print("criterion 3: PASS — mixed sextic: delta'[3]=8 all on Z=0 and one "
          "order-6 point at (0:0:1)")


def test_criterion_04_mixed_sextic_group_growth(evaluations):
    ev = evaluations["sextic_delta8"]
    g3 = ev.groups["g3"]
    assert len(g3) == 72
    ctx = ev.instance.context
    r8 = ctx.root_of_unity(8)
    s = r8 + r8 ** 3  # a square root of -2
    assert s * s == ctx.from_int(-2)
    zero, one = ctx.zero(), ctx.one()
    swap = ProjMatrix(
        ctx, ((zero, s, zero), (s.inverse(), zero, zero), (zero, zero, one))
    )
    grown = group_closure(list(g3) + [swap], cap=1000)
    assert len(grown) == 144
    aut = ev.groups["aut"]
    assert {m.canonical_key() for m in grown} == {m.canonical_key() for m in aut}
    line = ProjLine.from_ints(ctx, (0, 0, 1))
    small = line_action_analysis(g3, line)
    big = line_action_analysis(grown, line)
    assert (small.kernel_order, small.image_order) == (6, 12)
    assert small.histogram == {1: 1, 2: 3, 3: 8}
    assert (big.kernel_order, big.image_order) == (6, 24)
    assert big.histogram == {1: 1, 2: 9, 3: 8, 4: 6}
    print("criterion 4: PASS — order-3 subgroup 72 grows to 144 with the swap "
          "matrix; Z=0 actions are (6,12) tetrahedral and (6,24) octahedral")


def test_criterion_05_one_parameter_sextic_counts(evaluations):
    report = evaluations["sextic_delta4"].report
    assert report.delta_prime[3] == 4
    assert report.delta_prime[2] == 1
    order2 = [r for r in report.records.values() if r.order == 2]
    assert len(order2) == 1
    print("criterion 5: PASS — one-parameter sextic at a=1: delta'[3]=4 and "
          "exactly one order-2 point")


def test_criterion_06_klein_involution_census():
    inst = catalog.make("quartic_klein")
    ctx = inst.context
    tau = inst.extras["extra_involution"]
    center = homology_from_matrix(tau).center
    triangle = [s for s in inst.seeds if s != center]
    assert len(triangle) == 9
    report = census(inst.curve, triangle + [center])
    assert report.delta_prime == {2: 21, 4: 0}
    assert report.certification == "certified"
    gens = [r.generator.matrix for r in report.records.values() if r.order == 2]
    assert len(gens) == 21
    group = group_closure(gens)
    assert len(group) == 168
    print("criterion 6: PASS — klein-type quartic: delta'[2]=21 certified; the "
          "21 involutions generate a group of order 168")


def test_criterion_07_fermat_census_and_closure():
    inst = catalog.make("fermat_quartic")
    ctx = inst.context
    seeds = pts(ctx, (1, 0, 0), (0, 1, 0), (0, 0, 1), (1, 1, 0), (0, 1, 1))
    report = census(inst.curve, seeds)
    assert report.delta_prime == {2: 12, 4: 3}
    assert len(report.records) == 15
    gens = [r.generator.matrix for r in report.records.values()]
    group = group_closure(gens)
    assert len(group) == 96
    print("criterion 7: PASS — diagonal quartic: delta'[2]=12, delta'[4]=3; "
          "the 15 generators close to order 96")


def test_criterion_08_symmetric_quartic_triangle(evaluations):
    report = evaluations["quartic_symmetric"].report
    assert report.delta_prime == {2: 9, 4: 0}
    for rec in report.records.values():
        assert any(c.is_zero() for c in rec.point.coords)
    # the three coordinate vertices form a mutually linked triple
    ctx = evaluations["quartic_symmetric"].instance.context
    vertices = {p.key() for p in pts(ctx, (1, 0, 0), (0, 1, 0), (0, 0, 1))}
    assert any({p.key() for p in t} == vertices for t in report.triples)
    print("criterion 8: PASS — symmetric quartic: delta'[2]=9 on the coordinate "
          "triangle with the vertex triple mutually linked")


def test_criterion_09_diagonal_family_and_fermat_member(evaluations):
    report = evaluations["quartic_xy"].report
    assert report.delta_prime == {2: 6, 4: 1}
    special = catalog.make("quartic_xy", a=6)
    m = special.extras["fermat_transform"]
    ctx = special.context
    fermat = HomoPoly.from_int_terms(
        ctx, 4, {(4, 0, 0): 1, (0, 4, 0): 1, (0, 0, 4): 1}
    )
    assert special.curve.form.pullback(m).proportional_to(fermat)
    print("criterion 9: PASS — two-axis quartic: delta'[2]=6, delta'[4]=1; the "
          "a=6 member maps exactly onto the diagonal quartic")


def test_criterion_10_five_point_family(evaluations):
    report = evaluations["quartic_5family"].report
    assert report.delta_prime == {2: 5, 4: 0}
    print("criterion 10: PASS — five-point quartic family: delta'[2]=5")


def test_criterion_11_symbolic_matrix_identities():
    # identity A: an order-3/order-2 pair over the conductor-3 field
    ctx = FieldContext(3)
    w = ctx.zeta()
    assert (w * w + w + ctx.one()).is_zero()
    alpha = (ctx.from_int(2) * w * w + ctx.one()).inverse()
    assert alpha * alpha == ctx.from_rational(Fraction(-1, 3))
    zero, one = ctx.zero(), ctx.one()
    sigma1 = ProjMatrix(ctx, ((w, zero, zero), (zero, one, zero), (zero, zero, one)))
    sigma2 = ProjMatrix(
        ctx,
        (
            (-(w * alpha), ctx.from_int(2) * w * w * alpha, zero),
            (w * w * alpha, alpha, zero),
            (zero, zero, one),
        ),
    )
    m = sigma2 * sigma1 * sigma1
    assert projective_order(sigma1) == 3
    target = ProjMatrix.from_ints(ctx, ((-1, 0, 0), (0, -1, 0), (0, 0, 1)))
    assert m * m == target

    # identity B: a quadratic extension with a non-square tag; the ring has
    # no inverses for some elements, so every check is multiplication-only
    c5 = FieldContext(5)
    zt = c5.zeta()
    ext = c5.extend_sqrt(c5.one() - zt - zt ** 4)
    a = ext.sqrt_generator()
    z = ext.zeta()
    one5, zero5 = ext.one(), ext.zero()
    assert z ** 3 + z ** 2 * a * a == z * (z - one5)
    assert z * a * a + one5 == z * (one5 - z)
    assert a * a + one5 == -(z ** 4) * (z - one5) ** 2
    a_sigma = ProjMatrix(
        ext, ((z, zero5, zero5), (zero5, one5, zero5), (zero5, zero5, one5))
    )
    a_sigma2 = ProjMatrix(
        ext,
        (
            (z + a * a, (z - one5) * a, zero5),
            ((z - one5) * a, z * a * a + one5, zero5),
            (zero5, zero5, a * a + one5),
        ),
    )
    t = a_sigma * a_sigma2 * a_sigma
    s = t * t
    for i in range(3):
        for j in range(3):
            if i != j:
                assert s.rows[i][j].is_zero()
    assert s.rows[0][0] == s.rows[1][1]
    k = z * z * (z - one5) ** 2
    assert s.rows[0][0] == k * (a * a + one5)
    assert s.rows[2][2] == (a * a + one5) ** 2
    assert s.rows[2][2] == -(z ** 2) * s.rows[0][0]
    assert projective_order(s) == 10
    assert projective_order(t) == 20
    print("criterion 11: PASS — both symbolic matrix identities hold exactly, "
          "including the zero-divisor-safe quadratic-extension computation")


def test_criterion_12_parameter_gates():
    for name, kw in (
        ("quartic_xy", {"a": 2}),
        ("quartic_xy", {"a": -2}),
        ("quartic_symmetric", {"a": -1}),
    ):
        with pytest.raises(NotSmooth):
            catalog.make(name, **kw)
    for name in catalog.entry_names():
        inst = catalog.make(name)
        assert inst.curve.form.degree in (4, 6)
    print("criterion 12: PASS — singular parameter values are rejected and all "
          "catalog entries construct cleanly")


def test_criterion_13_pair_normalization_of_random_conjugates():
    cases = [
        ("fermat_quartic", ((1, 1, 0), (1, -1, 0)), 2),
        ("hessian_sextic", ((1, 0, 0), (0, 1, 0)), 3),
    ]
    rng = random.Random(20260814)
    checked = 0
    for name, (v1, v2), n in cases:
        inst = catalog.make(name)
        form = inst.curve.form
        ctx = inst.context
        p1 = ProjPoint.from_ints(ctx, v1)
        p2 = ProjPoint.from_ints(ctx, v2)
        for _ in range(20):
            while True:
                m = ProjMatrix.from_ints(
                    ctx, [[rng.randint(-4, 4) for _ in range(3)] for _ in range(3)]
                )
                if not m.det().is_zero():
                    break
            conjugate = form.pullback(m)
            minv = m.adjugate()
            r1 = classify_point(conjugate, minv.apply_to_point(p1))
            r2 = classify_point(conjugate, minv.apply_to_point(p2))
            assert r1.order == n and r2.order == n
            base_change, normalized, found_n = normalize_pair(conjugate, r1, r2)
            assert found_n == n
            assert normalized == conjugate.pullback(base_change)
            assert has_pair_normal_support(normalized, n)
            checked += 1
    assert checked == 40
    print("criterion 13: PASS — pair normalization lands in the six-monomial "
          "normal form for 20 random conjugates of each test curve")


def test_criterion_14_oracle_agreement_across_seeds(evaluations):
    plan = [
        ("hessian_sextic", 3, 400),
        ("sextic_delta8", 3, 400),
        ("sextic_delta4", 3, 600),
        ("fermat_quartic", 2, 400),
        ("quartic_symmetric", 2, 400),
        ("quartic_xy", 2, 400),
        ("quartic_5family", 2, 400),
        ("quartic_klein", 2, 800),
    ]
    for name, n, starts in plan:
        ev = evaluations[name]
        exact = [r for r in ev.report.records.values() if r.order % n == 0]
        targets = [embed_point(r.point) for r in exact]
        for seed in (0, 7, 123):
            result = numeric_census(
                ev.instance.curve, n, starts=starts, seed=seed,
            )
            assert result.count == len(exact), (name, n, seed)
            for target in targets:
                best = max(abs(np.vdot(target, c)) for c in result.centers)
                assert best >= 1 - 1e-6, (name, n, seed)
    print("criterion 14: PASS — numeric center counts match the exact census "
          "for every designated order across RNG seeds 0, 7, 123")


def test_criterion_15_randomized_property_suites(evaluations):
    cases = 0

    # field arithmetic laws over several conductors
    rng = random.Random(1257)
    for conductor in (3, 8, 12, 24):
        ctx = FieldContext(conductor)
        for _ in range(30):
            coords = lambda: [
                Fraction(rng.randint(-9, 9), rng.randint(1, 4))
                for _ in range(ctx.dim)
            ]
            a, b, c = (ctx.from_coords(coords()) for _ in range(3))
            assert (a + b) * c == a * c + b * c
            assert (a * b) * c == a * (b * c)
            if not a.is_zero():
                assert (a * a.inverse()).is_one()
            cases += 1

    # substitution functoriality of forms
    ctx12 = FieldContext(12)
    for _ in range(50):
        terms = {}
        d = rng.choice([4, 5])
        for _ in range(5):
            i = rng.randint(0, d)
            j = rng.randint(0, d - i)
            terms[(i, j, d - i - j)] = ctx12.from_int(rng.randint(-4, 4))
        f = HomoPoly(ctx12, d, terms)
        if f.is_zero():
            continue
        mats = []
        while len(mats) < 2:
            m = ProjMatrix.from_ints(
                ctx12, [[rng.randint(-3, 3) for _ in range(3)] for _ in range(3)]
            )
            if not m.det().is_zero():
                mats.append(m)
        assert f.pullback(mats[0]).pullback(mats[1]) == f.pullback(
            mats[0] * mats[1]
        )
        cases += 1

    # line profiles always partition the degree
    for name in catalog.entry_names():
        inst = catalog.make(name)
        form = inst.curve.form
        ctx = inst.context
        d = form.degree
        for _ in range(100):
            while True:
                coeffs = [ctx.from_int(rng.randint(-5, 5)) for _ in range(3)]
                if not all(c.is_zero() for c in coeffs):
                    break
            assert sum(line_profile(form, ProjLine(ctx, coeffs))) == d
            cases += 1

    # census records: distinct generators whose fixed loci avoid their centers
    for name, ev in evaluations.items():
        for rec in ev.report.records.values():
            gen = rec.generator
            assert not gen.axis.contains(gen.center), name
            cases += 1
        keys = [r.generator.matrix.canonical_key() for r in ev.report.records.values()]
        assert len(keys) == len(set(keys)), name
        cases += 1

    # inner-point order is compatible with the tangency intersection number
    ctx = FieldContext(12)
    inner_form = HomoPoly.from_int_terms(
        ctx, 4, {(3, 0, 1): 1, (0, 4, 0): 1, (0, 0, 4): 1}
    )
    rec = classify_point(inner_form, ProjPoint.from_ints(ctx, (1, 0, 0)))
    assert rec.kind == "inner"
    assert rec.order == 3 and rec.tangency == 4
    assert rec.tangency % rec.order == 1
    cases += 1

    assert cases >= 1000
    print(
        "criterion 15: PASS — %d randomized property cases: field laws, "
        "substitution functoriality, profile partitions, census invariants"
        % cases
    )
