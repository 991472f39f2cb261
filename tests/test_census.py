"""Orbit-closed censuses: tallies, pairs, triples, normalization."""

import random
import sys

import pytest

from quasigalois import (
    ClosureCapExceeded,
    FieldContext,
    HomoPoly,
    NotAGPair,
    NotAHomology,
    PlaneCurve,
    ProjLine,
    ProjMatrix,
    ProjPoint,
    SamePoint,
    census,
    classify_point,
    find_triples,
    group_closure,
    has_pair_normal_support,
    homology_from_matrix,
    is_mutual_pair,
    make_pair,
    normalize_pair,
    orbit_expand,
)
from quasigalois import catalog
from quasigalois.census import _certify, build_pair_graph
from quasigalois.cyclotomic import _conjugate
from quasigalois.serialize import sorted_records


def points(ctx, *vecs):
    return [ProjPoint.from_ints(ctx, v) for v in vecs]


def test_hessian_census_from_four_seeds_is_certified():
    inst = catalog.make("hessian_sextic")
    ctx = inst.context
    seeds = points(ctx, (1, 0, 0), (0, 1, 0), (0, 0, 1), (1, 1, 1))
    report = census(inst.curve, seeds)
    assert report.delta_prime == {2: 0, 3: 12, 6: 0}
    assert report.certification == "certified"
    assert report.certification_bound == 12
    assert report.certification_attained == 12


def test_mixed_sextic_census_from_four_seeds():
    inst = catalog.make("sextic_delta8")
    ctx = inst.context
    seeds = points(ctx, (1, 0, 0), (0, 1, 0), (1, -1, 0), (0, 0, 1))
    report = census(inst.curve, seeds)
    assert report.delta_prime == {2: 0, 3: 8, 6: 1}
    e3 = ProjPoint.from_ints(ctx, (0, 0, 1))
    assert report.records[e3].order == 6
    z_axis = [r for r in report.records.values() if r.order == 3]
    assert len(z_axis) == 8
    assert all(r.point.coords[2].is_zero() for r in z_axis)


def test_fermat_census_from_five_seeds():
    inst = catalog.make("fermat_quartic")
    ctx = inst.context
    seeds = points(ctx, (1, 0, 0), (0, 1, 0), (0, 0, 1), (1, 1, 0), (0, 1, 1))
    report = census(inst.curve, seeds)
    assert report.delta_prime == {2: 12, 4: 3}
    assert len(report.records) == 15
    assert len(report.quasi_galois_points()) == 15
    assert all(r.is_quasi_galois for r in report.quasi_galois_points())


def test_census_is_independent_of_seed_order():
    inst = catalog.make("fermat_quartic")
    ctx = inst.context
    seeds = points(ctx, (1, 0, 0), (0, 1, 0), (0, 0, 1), (1, 1, 0), (0, 1, 1))
    a = census(inst.curve, seeds)
    b = census(inst.curve, list(reversed(seeds)))
    assert a.delta_prime == b.delta_prime
    assert a.delta == b.delta
    key_a = [(r.point.key(), r.order) for r in sorted_records(a)]
    key_b = [(r.point.key(), r.order) for r in sorted_records(b)]
    assert key_a == key_b
    assert len(a.pairs) == len(b.pairs)
    assert len(a.triples) == len(b.triples)


def test_orbit_expand_closes_under_generators():
    inst = catalog.make("fermat_quartic")
    ctx = inst.context
    seeds = points(ctx, (1, 0, 0), (0, 1, 0), (0, 0, 1), (1, 1, 0), (0, 1, 1))
    expanded = orbit_expand(inst.curve.form, seeds)
    assert len(expanded) == 15
    for seed in seeds:
        assert seed in expanded
    # every generator maps the recorded point set into itself
    pts = set(expanded)
    for rec in expanded.values():
        if rec.generator is None:
            continue
        for p in pts:
            assert rec.generator.matrix.apply_to_point(p) in pts


def _counting(calls, original):
    def counting(self, point):
        calls.append(point)
        return original(self, point)

    return counting


def test_orbit_expand_applies_each_seed_generator_to_each_point_once(monkeypatch):
    inst = catalog.make("fermat_quartic")
    ctx = inst.context
    seeds = points(ctx, (1, 0, 0), (0, 1, 0), (0, 0, 1), (1, 1, 0), (0, 1, 1))
    calls = []
    monkeypatch.setattr(
        ProjMatrix, "apply_to_point", _counting(calls, ProjMatrix.apply_to_point)
    )
    expanded = orbit_expand(inst.curve.form, seeds)
    seed_generators = [s for s in seeds if expanded[s].is_quasi_galois]
    assert len(expanded) == 15 and len(seed_generators) == 5
    assert len(calls) == 15 * 5


def test_pair_graph_tests_each_pair_once(monkeypatch):
    inst = catalog.make("fermat_quartic")
    ctx = inst.context
    seeds = points(ctx, (1, 0, 0), (0, 1, 0), (0, 0, 1), (1, 1, 0), (0, 1, 1))
    records = orbit_expand(inst.curve.form, seeds)
    applied, contained = [], []
    monkeypatch.setattr(
        ProjMatrix, "apply_to_point", _counting(applied, ProjMatrix.apply_to_point)
    )
    monkeypatch.setattr(ProjLine, "contains", _counting(contained, ProjLine.contains))
    pairs = build_pair_graph(records)
    assert len(records) == 15 and len(pairs) == 21
    # is_mutual_pair evaluates one axis per pair and applies no matrix, and
    # no pair is tested twice
    assert applied == []
    assert len(contained) == 15 * 14 // 2


def _reference_orbit_expand(form, seeds):
    """Closure under every generator found, new generators back-patched."""
    records = {}
    generators = []
    points = list(dict.fromkeys(seeds))
    seen = set(points)

    def add_image(g, p):
        q = g.apply_to_point(p)
        if q not in seen:
            seen.add(q)
            points.append(q)

    for p in points:
        rec = classify_point(form, p)
        records[p] = rec
        for g in generators:
            add_image(g, p)
        if rec.is_quasi_galois:
            g = rec.generator.matrix
            generators.append(g)
            for r in records:
                add_image(g, r)
    return records


def _reference_pairs(records):
    """Point pairs whose generator matrices fix each other's center."""
    qg = [rec for rec in records.values() if rec.is_quasi_galois]
    pairs = set()
    for i, r1 in enumerate(qg):
        for r2 in qg[i + 1 :]:
            f12 = r1.generator.matrix.apply_to_point(r2.point) == r2.point
            f21 = r2.generator.matrix.apply_to_point(r1.point) == r1.point
            assert f12 == f21
            if f12:
                pairs.add(frozenset((r1.point, r2.point)))
    return pairs


def _assert_matches_reference(form, seeds, report):
    expected = _reference_orbit_expand(form, seeds)
    records = report.records
    assert set(records) == set(expected)
    n_seeds = len(set(seeds))
    assert list(records)[:n_seeds] == list(expected)[:n_seeds]
    for p, ref in expected.items():
        rec = records[p]
        assert (rec.order, rec.on_curve) == (ref.order, ref.on_curve), p
        if ref.generator is None:
            assert rec.generator is None, p
        else:
            assert rec.generator.matrix == ref.generator.matrix, p
            assert rec.generator.axis == ref.generator.axis, p
    got = {frozenset(pair.points()) for pair in report.pairs}
    assert got == _reference_pairs(expected)
    # the pair lemma of the census module: distinct axes, a triangle of fixed
    # points, and an outer pair's third point off the curve
    for pair in report.pairs:
        r1, r2 = pair.rec1, pair.rec2
        assert r1.generator.axis != r2.generator.axis
        assert not ProjMatrix.from_columns(r1.point, r2.point, pair.third).det().is_zero()
        if not (r1.on_curve or r2.on_curve):
            assert not form.vanishes_at(pair.third)


def test_census_matches_the_closure_under_every_generator(evaluations):
    for ev in evaluations.values():
        inst = ev.instance
        _assert_matches_reference(inst.curve.form, inst.seeds, ev.report)


def _moved_members(evaluations):
    """(form, seeds) of each catalog curve moved by two random unimodular M.

    The moved members of test_census_is_invariant_under_a_change_of_coordinates.
    """
    rng = random.Random(8128)
    for ev in evaluations.values():
        inst = ev.instance
        for _ in range(2):
            m = _unimodular(inst.context, rng)
            inv = m.adjugate()
            yield inst.curve.form.pullback(m), [inv.apply_to_point(p) for p in inst.seeds]


def test_moved_census_matches_the_closure_under_every_generator(evaluations):
    for form, seeds in _moved_members(evaluations):
        _assert_matches_reference(form, seeds, census(PlaneCurve(form), seeds))


def _assert_carried_records_are_classified(form, seeds, records):
    """Each image's carried record is exactly what classifying it gives."""
    seeds = set(seeds)
    carried = [p for p in records if p not in seeds]
    for p in carried:
        rec, ref = records[p], classify_point(form, p)
        assert rec.point == ref.point == p
        assert (rec.order, rec.on_curve, rec.projection_degree, rec.tangency) == (
            ref.order,
            ref.on_curve,
            ref.projection_degree,
            ref.tangency,
        ), p
        if ref.generator is None:
            assert rec.generator is None, p
            continue
        gen, ref_gen = rec.generator, ref.generator
        assert gen.center.coords == ref_gen.center.coords, p
        assert gen.axis.coords == ref_gen.axis.coords, p
        assert (gen.zeta, gen.order) == (ref_gen.zeta, ref_gen.order), p
        for row, ref_row in zip(gen.matrix.rows, ref_gen.matrix.rows):
            assert list(row) == list(ref_row), p
    return [records[p] for p in carried]


def test_carried_records_equal_their_classification(evaluations):
    # the orbit closure classifies only the seeds; an automorphism g maps
    # the group at p onto the group at g(p), so each image's carried record
    # must equal its classification, entry for entry
    carried = 0
    for ev in evaluations.values():
        inst = ev.instance
        carried += len(
            _assert_carried_records_are_classified(
                inst.curve.form, inst.seeds, ev.report.records
            )
        )
    for form, seeds in _moved_members(evaluations):
        records = orbit_expand(form, seeds)
        carried += len(_assert_carried_records_are_classified(form, seeds, records))
    assert carried > 0


def test_carried_inner_records_keep_their_tangency():
    # X^3 Z + Y^4 + Z^4: (1:0:0) is an inner point of order 3, and its images
    # under the order-4 homology at (0:1:0) are inner points carried with it
    ctx = FieldContext(12)
    form = HomoPoly.from_int_terms(ctx, 4, {(3, 0, 1): 1, (0, 4, 0): 1, (0, 0, 4): 1})
    seeds = points(ctx, (1, 0, 0), (0, 1, 0), (-1, 0, 1), (1, 1, 0))
    records = orbit_expand(form, seeds)
    assert len(records) == 53
    carried = _assert_carried_records_are_classified(form, seeds, records)
    z2 = ctx.zeta() ** 2
    one, zero = ctx.one(), ctx.zero()
    inner = {r.point: (r.order, r.tangency) for r in carried if r.on_curve}
    assert inner == {
        ProjPoint(ctx, [one, zero, z2]): (3, 4),
        ProjPoint(ctx, [one, zero, one - z2]): (3, 4),
    }


def test_inner_outer_pairs_match_the_closure_under_every_generator():
    # the curve and seeds of the test above, the one curve here whose pairs
    # join inner and outer points
    ctx = FieldContext(12)
    form = HomoPoly.from_int_terms(ctx, 4, {(3, 0, 1): 1, (0, 4, 0): 1, (0, 0, 4): 1})
    seeds = points(ctx, (1, 0, 0), (0, 1, 0), (-1, 0, 1), (1, 1, 0))
    report = census(PlaneCurve(form), seeds)
    assert any(p.rec1.on_curve != p.rec2.on_curve for p in report.pairs)
    _assert_matches_reference(form, seeds, report)


def test_carried_records_over_a_quadratic_extension():
    special = catalog.make("quartic_xy", a=6)  # Q(zeta_8)[l], l^2 = 2*sqrt(2)
    ctx = special.context
    assert ctx.lambda_sq is not None
    form = special.curve.form
    seeds = points(ctx, (1, 0, 0), (0, 1, 0), (0, 0, 1), (1, 1, 0), (1, -1, 0))
    records = orbit_expand(form, seeds)
    carried = _assert_carried_records_are_classified(form, seeds, records)
    assert len(carried) == 2 and all(r.order == 2 for r in carried)


def test_pair_and_triple_counts_on_full_entries(evaluations):
    expected = {
        "hessian_sextic": (21, 48, 4),
        "sextic_delta8": (21, 30, 10),
        "sextic_delta4": (5, 4, 0),
        "fermat_quartic": (15, 21, 7),
        "quartic_symmetric": (9, 12, 4),
        "quartic_xy": (7, 9, 3),
        "quartic_5family": (5, 6, 2),
        "quartic_klein": (21, 42, 14),
    }
    for name, (n_points, n_pairs, n_triples) in expected.items():
        report = evaluations[name].report
        assert len(report.records) == n_points, name
        assert len(report.pairs) == n_pairs, name
        assert len(report.triples) == n_triples, name


def test_triples_arise_from_pairwise_links(evaluations):
    report = evaluations["hessian_sextic"].report
    assert find_triples(report.pairs) == report.triples
    pair_keys = {frozenset((p.rec1.point, p.rec2.point)) for p in report.pairs}
    for triple in report.triples:
        a, b, c = triple
        assert frozenset((a, b)) in pair_keys
        assert frozenset((b, c)) in pair_keys
        assert frozenset((a, c)) in pair_keys


def _reference_triples(pairs):
    """Every point triple pairwise forming pairs, by a scan over all triples."""
    adj = {}
    for pair in pairs:
        p, q = pair.rec1.point, pair.rec2.point
        adj.setdefault(p, set()).add(q)
        adj.setdefault(q, set()).add(p)
    points = list(adj)
    triples = []
    for i in range(len(points)):
        for j in range(i + 1, len(points)):
            if points[j] not in adj[points[i]]:
                continue
            for k in range(j + 1, len(points)):
                if points[k] in adj[points[i]] and points[k] in adj[points[j]]:
                    triples.append((points[i], points[j], points[k]))
    return triples


def test_triangles_are_the_pairs_with_their_third_points(evaluations):
    # (d) of the census lemma: find_triples reads each triangle off a pair's
    # third point, and the scan over all point triples finds the same ones
    reports = [ev.report for ev in evaluations.values()]
    for form, seeds in _moved_members(evaluations):
        reports.append(census(PlaneCurve(form), seeds))
    ctx = FieldContext(12)
    form = HomoPoly.from_int_terms(ctx, 4, {(3, 0, 1): 1, (0, 4, 0): 1, (0, 0, 4): 1})
    seeds = points(ctx, (1, 0, 0), (0, 1, 0), (-1, 0, 1), (1, 1, 0))
    reports.append(census(PlaneCurve(form), seeds))
    assert len(reports) == 3 * len(evaluations) + 1
    found = 0
    for report in reports:
        got = {frozenset(t) for t in report.triples}
        assert len(got) == len(report.triples)
        assert got == {frozenset(t) for t in _reference_triples(report.pairs)}
        found += len(got)
    assert found > 0


def test_census_points_are_the_homology_centers_of_their_group(evaluations):
    # the census is a union of orbits of its own group: the group that the
    # census generators generate has a homology at every census point, and at
    # no other point, and its largest order there is the record's order
    reports = [ev.report for ev in evaluations.values()]
    for form, seeds in _moved_members(evaluations):
        reports.append(census(PlaneCurve(form), seeds))
    # X^3 Z + Y^4 + Z^4 from its three vertices and two of its hyperflexes;
    # sqrt(3) = zeta_12 + zeta_12^-1
    ctx = FieldContext(12)
    form = HomoPoly.from_int_terms(ctx, 4, {(3, 0, 1): 1, (0, 4, 0): 1, (0, 0, 4): 1})
    seeds = points(ctx, (1, 0, 0), (0, 1, 0), (-1, 0, 1))
    sqrt3 = ctx.zeta() + ctx.zeta() ** 11
    seeds.append(ProjPoint(ctx, [sqrt3 - 1, ctx.zero(), ctx.one()]))
    report = census(PlaneCurve(form), seeds)
    assert (len(report.quasi_galois_points()), report.delta) == (11, {3: 4})
    reports.append(report)
    for report in reports:
        qg = report.quasi_galois_points()
        orders = {}
        for g in group_closure([r.generator.matrix for r in qg]):
            try:
                h = homology_from_matrix(g)
            except NotAHomology:
                continue
            orders[h.center] = max(orders.get(h.center, 1), h.order)
        assert orders == {r.point: r.order for r in qg}


def test_mutual_pair_recognition():
    inst = catalog.make("hessian_sextic")
    form = inst.curve.form
    ctx = inst.context
    e1, e2 = points(ctx, (1, 0, 0), (0, 1, 0))
    r1 = classify_point(form, e1)
    r2 = classify_point(form, e2)
    assert is_mutual_pair(r1, r2)
    pair = make_pair(r1, r2)
    assert pair.n == 3
    assert pair.third == ProjPoint.from_ints(ctx, (0, 0, 1))
    assert set(pair.points()) == {e1, e2}


def test_make_pair_rejects_identical_and_unlinked_points():
    fermat = catalog.make("fermat_quartic")
    form = fermat.curve.form
    ctx = fermat.context
    e1 = classify_point(form, ProjPoint.from_ints(ctx, (1, 0, 0)))
    e1_again = classify_point(form, ProjPoint.from_ints(ctx, (1, 0, 0)))
    diag = classify_point(form, ProjPoint.from_ints(ctx, (1, 1, 0)))
    with pytest.raises(SamePoint):
        make_pair(e1, e1_again)
    assert not is_mutual_pair(e1, diag)
    with pytest.raises(NotAGPair):
        make_pair(e1, diag)


def test_normalize_pair_round_trip_on_vertex_pairs():
    hess = catalog.make("hessian_sextic")
    form = hess.curve.form
    ctx = hess.context
    r1 = classify_point(form, ProjPoint.from_ints(ctx, (1, 0, 0)))
    r2 = classify_point(form, ProjPoint.from_ints(ctx, (0, 1, 0)))
    base_change, normalized, n = normalize_pair(form, r1, r2)
    assert n == 3
    assert normalized == form.pullback(base_change)
    assert has_pair_normal_support(normalized, 3)

    fermat = catalog.make("fermat_quartic")
    fform = fermat.curve.form
    fctx = fermat.context
    s1 = classify_point(fform, ProjPoint.from_ints(fctx, (1, 1, 0)))
    s2 = classify_point(fform, ProjPoint.from_ints(fctx, (1, -1, 0)))
    assert s1.order == 2 and s2.order == 2
    base_change, normalized, n = normalize_pair(fform, s1, s2)
    assert n == 2
    assert has_pair_normal_support(normalized, 2)


def _assert_pairs_normalize(form, report):
    """(c) of the census lemma, on each pair's normalized form: one exponent
    class per axis variable, and class 0 when both points are outer."""
    for pair in report.pairs:
        r1, r2 = pair.rec1, pair.rec2
        _, normalized, _ = normalize_pair(form, r1, r2)
        for var, order in ((0, r1.order), (1, r2.order)):
            classes = {e[var] % order for e in normalized.terms}
            assert len(classes) == 1, (r1.point, r2.point)
            if not (r1.on_curve or r2.on_curve):
                assert classes == {0}, (r1.point, r2.point)
    return len(report.pairs)


def test_every_mutual_pair_normalizes_to_one_exponent_class_per_axis(evaluations):
    # normalize_pair does not re-check the lemma, so every pair of every
    # catalog census, of the moved members and of the inner-outer curve
    # X^3 Z + Y^4 + Z^4 is checked here
    checked = 0
    for ev in evaluations.values():
        checked += _assert_pairs_normalize(ev.instance.curve.form, ev.report)
    for form, seeds in _moved_members(evaluations):
        checked += _assert_pairs_normalize(form, census(PlaneCurve(form), seeds))
    ctx = FieldContext(12)
    form = HomoPoly.from_int_terms(ctx, 4, {(3, 0, 1): 1, (0, 4, 0): 1, (0, 0, 4): 1})
    seeds = points(ctx, (1, 0, 0), (0, 1, 0), (-1, 0, 1), (1, 1, 0))
    report = census(PlaneCurve(form), seeds)
    assert any(p.rec1.on_curve != p.rec2.on_curve for p in report.pairs)
    checked += _assert_pairs_normalize(form, report)
    assert checked > 0


def test_pair_normal_support_rejections():
    ctx = FieldContext(4)
    fermat = HomoPoly.from_int_terms(
        ctx, 4, {(4, 0, 0): 1, (0, 4, 0): 1, (0, 0, 4): 1}
    )
    # wrong half-degree
    assert not has_pair_normal_support(fermat, 3)
    assert has_pair_normal_support(fermat, 2)
    # stray monomial outside the six allowed exponent patterns
    stray = fermat + HomoPoly.from_int_terms(ctx, 4, {(3, 1, 0): 1})
    assert not has_pair_normal_support(stray, 2)
    # vanishing pure power
    no_pure = HomoPoly.from_int_terms(
        ctx, 4, {(4, 0, 0): 1, (0, 4, 0): 1, (2, 0, 2): 1}
    )
    assert not has_pair_normal_support(no_pure, 2)


def test_census_honors_the_point_cap():
    inst = catalog.make("fermat_quartic")
    ctx = inst.context
    seeds = points(ctx, (1, 0, 0), (0, 1, 0), (0, 0, 1), (1, 1, 0), (0, 1, 1))
    with pytest.raises(ClosureCapExceeded):
        census(inst.curve, seeds, cap=3)


def test_census_cap_boundary(monkeypatch):
    # the five seeds close to 15 points: a cap of 15 admits them, 14 does not,
    # and a cap below the seed count raises before any point is classified
    inst = catalog.make("fermat_quartic")
    ctx = inst.context
    seeds = points(ctx, (1, 0, 0), (0, 1, 0), (0, 0, 1), (1, 1, 0), (0, 1, 1))
    assert len(census(inst.curve, seeds, cap=15).records) == 15
    with pytest.raises(ClosureCapExceeded):
        census(inst.curve, seeds, cap=14)
    calls = []

    def counting(form, point):
        calls.append(point)
        return classify_point(form, point)

    monkeypatch.setattr(sys.modules["quasigalois.census"], "classify_point", counting)
    with pytest.raises(ClosureCapExceeded):
        census(inst.curve, seeds, cap=4)
    assert calls == []


def test_certification_levels():
    hess = catalog.make("hessian_sextic")
    ctx = hess.context
    seeds = points(ctx, (1, 0, 0), (0, 1, 0))
    partial = census(hess.curve, seeds)
    # a partial seed set cannot overshoot; it lands on a tabled value
    assert partial.certification in ("certified", "theory_table_only")

    c20 = FieldContext(20)
    quintic = PlaneCurve(
        HomoPoly.from_int_terms(c20, 5, {(5, 0, 0): 1, (0, 5, 0): 1, (0, 0, 5): 1})
    )
    report = census(quintic, points(c20, (1, 0, 0), (0, 1, 0)))
    assert report.certification == "bound_gap"
    assert report.certification_bound is None
    assert report.delta_prime == {5: 2}

    # at a tabled degree, a count off the table with the bound unattained
    # is a gap too: 2 points of order 2 on a quartic, 5 of order 3 on a sextic
    assert _certify(4, {2: 2, 4: 0}) == ("bound_gap", 21, 2)
    assert _certify(6, {2: 0, 3: 5, 6: 0}) == ("bound_gap", 12, 5)
    assert _certify(4, {2: 5, 4: 0})[0] == "theory_table_only"
    assert _certify(4, {2: 12, 4: 3})[0] == "theory_table_only"


def test_inner_points_are_tallied_separately():
    # delta counts points on the curve, delta_prime points off it.  On
    # X^3 Z + Y^4 + Z^4 the seed (1:0:0) lies on the curve, and X -> zeta_3 X
    # fixes the form, so it is an inner point of order 3 = d - 1.  That
    # homology is the census's only generator, and it fixes its own center,
    # so the orbit is the seed alone: one record, no pairs, no triples.
    # delta is keyed by the divisors of d - 1 = 3, delta_prime by those of
    # d = 4, and no outer point was found.
    ctx = FieldContext(12)
    form = HomoPoly.from_int_terms(
        ctx, 4, {(3, 0, 1): 1, (0, 4, 0): 1, (0, 0, 4): 1}
    )
    curve = PlaneCurve(form)
    p = ProjPoint.from_ints(ctx, (1, 0, 0))
    report = census(curve, [p])
    assert list(report.records) == [p]
    assert (report.records[p].kind, report.records[p].order) == ("inner", 3)
    assert report.delta == {3: 1}
    assert report.delta_prime == {2: 0, 4: 0}
    assert (report.pairs, report.triples) == ([], [])


def _tallies(report):
    return (
        report.delta,
        report.delta_prime,
        len(report.pairs),
        len(report.triples),
        report.certification,
    )


@pytest.mark.parametrize(
    "name, params, form_moves",
    [
        ("fermat_quartic", {}, False),
        ("quartic_symmetric", {"a": FieldContext(8).zeta() + 1}, True),
    ],
)
def test_census_is_invariant_under_galois_conjugation(name, params, form_moves):
    # sigma_k maps the curve F = 0 and its quasi-Galois points onto the
    # conjugate curve and its points, so every tally must be unchanged.
    inst = catalog.make(name, **params)
    ctx = inst.context
    form = inst.curve.form
    expected = _tallies(census(inst.curve, inst.seeds))
    for k in (3, 5, 7):
        terms = {e: _conjugate(c, k) for e, c in form.terms.items()}
        assert (terms != form.terms) == form_moves
        conjugate = PlaneCurve(HomoPoly(ctx, form.degree, terms))
        seeds = [
            ProjPoint(ctx, [_conjugate(c, k) for c in p.coords]) for p in inst.seeds
        ]
        assert _tallies(census(conjugate, seeds)) == expected


def _unimodular(ctx, rng):
    """A random ProjMatrix with integer entries in -2..2 and determinant +-1."""
    while True:
        m = ProjMatrix.from_ints(ctx, [[rng.randint(-2, 2) for _ in range(3)] for _ in range(3)])
        det = m.det()
        if det.is_one() or (-det).is_one():
            return m


def test_census_is_invariant_under_a_change_of_coordinates(evaluations):
    # F(Mx) = 0 has the quasi-Galois points M^-1 P of F = 0, each with the
    # generator M^-1 G M, so a census from the moved seeds must give the
    # same tallies and closure orders
    rng = random.Random(8128)
    for name, ev in evaluations.items():
        inst, report = ev.instance, ev.report
        for _ in range(2):
            m = _unimodular(inst.context, rng)
            inv = m.adjugate()
            moved = PlaneCurve(inst.curve.form.pullback(m))
            moved_report = census(moved, [inv.apply_to_point(p) for p in inst.seeds])
            assert _tallies(moved_report) == _tallies(report), name
            for p, rec in report.records.items():
                if rec.generator is not None:
                    gen = moved_report.records[inv.apply_to_point(p)].generator
                    assert gen.matrix == inv * rec.generator.matrix * m, (name, p)
            qg = moved_report.quasi_galois_points()
            gens = {
                "g3": [r.generator.matrix for r in qg if r.order % 3 == 0],
                "generators": [r.generator.matrix for r in qg],
            }
            for key in gens.keys() & ev.groups.keys():
                closure = group_closure(gens[key], cap=1000, curve=moved)
                assert len(closure) == len(ev.groups[key]), (name, key)


def test_a_point_of_order_one_forms_no_pair():
    fermat = catalog.make("fermat_quartic")
    form, ctx = fermat.curve.form, fermat.context
    vertex = classify_point(form, ProjPoint.from_ints(ctx, (1, 0, 0)))
    plain = classify_point(form, ProjPoint.from_ints(ctx, (1, 2, 3)))
    assert plain.order == 1 and not plain.is_quasi_galois
    assert not is_mutual_pair(vertex, plain)
    assert not is_mutual_pair(plain, vertex)
