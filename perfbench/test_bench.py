"""Self-tests of the benchmark: seeding, gates, tracing and metric names.

Run from the root of a checkout:  python3 -m pytest perfbench -q
"""

from __future__ import annotations

import json
import sys
import threading
from fractions import Fraction
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent))

import run  # noqa: E402
import tracing  # noqa: E402
import workloads as W  # noqa: E402

SMALL = (("quartic_5family", 1), ("quartic_xy", 1))


@pytest.fixture(scope="module")
def qg():
    return run.fresh_import()


@pytest.fixture(scope="module")
def spec():
    return run.load_spec()


def test_same_seed_gives_identical_inputs(qg):
    for cls in (W.CatalogExact, W.OracleCrosscheck, W.MovedFamilies):
        assert cls(qg, 11).inputs() == cls(qg, 11).inputs()


def test_different_seeds_give_different_inputs(qg):
    for cls in (W.OracleCrosscheck, W.MovedFamilies):
        assert cls(qg, 1).inputs() != cls(qg, 2).inputs()


def test_moved_members_are_family_members_moved(qg):
    identity = [[1, 0, 0], [0, 1, 0], [0, 0, 1]]
    for family, params in (
        ("sextic_delta4", {"a": Fraction(3, 2)}),
        ("quartic_symmetric", {"a": Fraction(-7, 3)}),
        ("quartic_xy", {"a": Fraction(5)}),
        ("quartic_5family", {"a": Fraction(1, 2), "b": Fraction(-4)}),
    ):
        instance = qg.catalog.make(family, **params)
        degree, terms = W.family_terms(family, params["a"], params.get("b"))
        ctx = instance.context
        moved = W.move_terms(degree, terms, identity)
        form = qg.HomoPoly(ctx, degree, {e: ctx.from_rational(c) for e, c in moved.items()})
        assert form == instance.curve.form
    m = [[1, -1, 1], [1, 1, -1], [-1, 1, 1]]
    adj = W.adjugate(m)
    det = W.determinant(m)
    assert det == 4
    product = [[sum(m[i][k] * adj[k][j] for k in range(3)) for j in range(3)] for i in range(3)]
    assert product == [[det * (i == j) for j in range(3)] for i in range(3)]
    ctx = instance.context
    form = qg.HomoPoly(ctx, 4, {e: ctx.from_rational(c) for e, c in W.move_terms(4, terms, m).items()})
    assert form == instance.curve.form.pullback(qg.ProjMatrix.from_ints(ctx, m))


def test_correct_pass_has_no_failures(qg):
    workload = W.MovedFamilies(qg, 3, fixed=(), composition=SMALL, singular=1)
    assert workload.run_pass() == (3, 0)


def test_wrong_expectations_fail(qg):
    moved = W.MovedFamilies(qg, 3, fixed=(), composition=SMALL, singular=1)
    good, _, singular = moved.members
    good.expected = dict(good.expected, delta_prime={2: 4, 4: 0})
    singular.expected = moved.members[1].expected  # claims a singular member is smooth
    assert moved.run_pass() == (3, 2)
    metrics, attempted, failed, _, _ = run.per_layer(moved, 3, qg)
    assert (attempted, failed) == (6, 4) and metrics["fail_frac"] > 0

    oracle = W.OracleCrosscheck(qg, 3, plan=(("fermat_quartic", 2, 4),))
    name, curve, n, starts, seed, exact = oracle.calls[0]
    oracle.calls[0] = (name, curve, n, starts, seed, exact + 1)
    assert oracle.run_pass() == (1, 1)

    catalog = W.CatalogExact(qg, 0, digest="0" * 64)
    catalog.argv += ["--case", "fermat_quartic"]
    assert catalog.run_pass() == (2, 1)


def test_metric_names_match_benchmark_json(qg, spec):
    workload = W.MovedFamilies(qg, 5, fixed=(), composition=SMALL, singular=1)
    metrics, _, _, _ = run.end_to_end(workload, 0.0, 0.5)
    assert set(metrics) == set(spec["end_to_end"])
    metrics, attempted, failed, _, tracer = run.per_layer(workload, 5, qg)
    assert set(metrics) == set(spec["per_layer"])
    assert failed == 0 and metrics["fail_frac"] == 0.0
    assert metrics["smoothness.is_smooth_calls"] == 3
    assert metrics["homology.classify_calls"] > 0
    assert metrics["groups.closure_calls"] == 2
    assert tracer.spans and json.dumps([s.as_dict() for s in tracer.spans])


def test_tracer_restores_every_name(qg):
    modules = [m for name, m in sorted(sys.modules.items()) if name.startswith("quasigalois")]
    before = [dict(vars(m)) for m in modules]
    classes = (qg.FieldElement, qg.ProjMatrix, qg.HomoPoly)
    methods_before = [dict(vars(c)) for c in classes]
    tracer = tracing.Tracer()
    tracer.install(qg)
    assert qg.census is not before[0]["census"]
    tracer.restore()
    assert [dict(vars(m)) for m in modules] == before
    assert [dict(vars(c)) for c in classes] == methods_before


def test_self_time_subtracts_same_thread_children_only():
    tracer = tracing.Tracer()
    main, other = threading.get_ident(), -1
    S = tracing.Span
    tracer.spans = [
        S(1, None, "cli.main", main, 0.0, 10.0, 0.0, 4.0),
        S(2, 1, "catalog.evaluate", other, 1.0, 9.0, 0.0, 8.0),
        S(3, 2, "groups.closure", other, 2.0, 7.0, 1.0, 6.0),
        S(4, 1, "census.census", main, 1.0, 2.0, 1.0, 2.5),
    ]
    calls, self_cpu = tracer.self_times()
    assert calls["groups.closure"] == 1
    assert self_cpu["cli.main"] == pytest.approx(2.5)
    assert self_cpu["catalog.evaluate"] == pytest.approx(3.0)
    assert self_cpu["groups.closure"] == pytest.approx(5.0)
