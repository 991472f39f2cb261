"""Built-in curve families: construction, gates, and full evaluations."""

from fractions import Fraction

import pytest

from quasigalois import (
    FieldContext,
    FieldElement,
    HomoPoly,
    NotSmooth,
    ParameterViolation,
    ProjMatrix,
)
from quasigalois import catalog, cli


def test_entry_names_are_stable():
    assert catalog.entry_names() == (
        "hessian_sextic",
        "sextic_delta8",
        "sextic_delta4",
        "fermat_quartic",
        "quartic_symmetric",
        "quartic_xy",
        "quartic_5family",
        "quartic_klein",
    )


def test_every_entry_evaluates_clean(evaluations):
    for name, ev in evaluations.items():
        assert ev.passed, (name, ev.failures())
        assert not ev.failures(), name
        assert all(check.passed for check in ev.checks), name


def test_expected_tallies(evaluations):
    expect = {
        "hessian_sextic": {2: 9, 3: 12, 6: 0},
        "sextic_delta8": {2: 12, 3: 8, 6: 1},
        "sextic_delta4": {2: 1, 3: 4, 6: 0},
        "fermat_quartic": {2: 12, 4: 3},
        "quartic_symmetric": {2: 9, 4: 0},
        "quartic_xy": {2: 6, 4: 1},
        "quartic_5family": {2: 5, 4: 0},
        "quartic_klein": {2: 21, 4: 0},
    }
    for name, table in expect.items():
        assert evaluations[name].report.delta_prime == table, name


def test_certifications(evaluations):
    certified = {"hessian_sextic", "quartic_klein"}
    for name, ev in evaluations.items():
        expected = "certified" if name in certified else "theory_table_only"
        assert ev.report.certification == expected, name


def test_unknown_entry_name_rejected():
    with pytest.raises(KeyError):
        catalog.make("no_such_entry")


def test_parameter_type_gates():
    with pytest.raises(TypeError):
        catalog.make("sextic_delta4", a=1.5)
    with pytest.raises(TypeError):
        catalog.make("sextic_delta4", bogus=3)
    inst = catalog.make("sextic_delta4", a=Fraction(1, 2))
    assert inst.parameters["a"] == Fraction(1, 2)


def test_parameter_value_gates():
    with pytest.raises(ParameterViolation):
        catalog.make("sextic_delta4", a=0)
    with pytest.raises(ParameterViolation):
        catalog.make("quartic_5family", b=0)
    with pytest.raises(ParameterViolation):
        catalog.make("quartic_5family", a=3, b=3)
    with pytest.raises(ParameterViolation):
        catalog.make("quartic_5family", a=3, b=-3)
    # a field element a = 0 is the plain Fermat quartic, as is the integer 0
    for a in (0, FieldContext(4).zero(), FieldContext(8).zero()):
        with pytest.raises(ParameterViolation, match="fermat_quartic"):
            catalog.make("quartic_symmetric", a=a)


def test_singular_parameter_values_rejected():
    for name, kw in (
        ("quartic_xy", {"a": 2}),
        ("quartic_xy", {"a": -2}),
        ("quartic_symmetric", {"a": -1}),
        ("quartic_symmetric", {"a": 2}),
        ("quartic_symmetric", {"a": -2}),
    ):
        with pytest.raises(NotSmooth):
            catalog.make(name, **kw)


def test_seed_orders_recorded(instances, evaluations):
    for name, inst in instances.items():
        expected = inst.expected["seed_orders"]
        report = evaluations[name].report
        actual = tuple(report.records[s].order for s in inst.seeds)
        assert actual == expected, name


def test_diagonal_quartic_special_values_are_flagged():
    for a in (0, 6, -6):
        inst = catalog.make("quartic_xy", a=a)
        assert "fermat_equivalent" in inst.flags
        m = inst.extras["fermat_transform"]
        assert isinstance(m, ProjMatrix)
        target = inst.extras["fermat_form"]
        assert inst.curve.form.pullback(m).proportional_to(target)
    generic = catalog.make("quartic_xy", a=1)
    assert "fermat_equivalent" not in generic.flags


def test_nondefault_parameters_change_the_curve():
    base = catalog.make("sextic_delta4")
    other = catalog.make("sextic_delta4", a=3)
    assert base.curve.form != other.curve.form
    assert base.context.compatible(other.context)


def test_instance_metadata_shape(instances):
    for name, inst in instances.items():
        assert inst.name == name
        assert inst.curve.form.degree == inst.expected["degree"] if "degree" in inst.expected else True
        assert isinstance(inst.seeds, tuple) and inst.seeds
        assert set(inst.expected).issuperset({"delta_prime", "certification"})


def test_evaluate_pulls_back_once_per_classified_point(monkeypatch):
    # only the seeds are classified, each by one pullback; their images carry
    # the seeds' records, and the closures re-check nothing; a
    # Fermat-equivalent case is one exact coordinate change
    original = HomoPoly.pullback
    calls = []
    carried = 0

    def counting(self, matrix):
        calls.append(matrix)
        return original(self, matrix)

    for name, spec in cli._verify_cases().items():
        params = {k: v for k, v in spec.items() if k != "name"}
        instance = catalog.make(spec["name"], **params)
        calls.clear()
        monkeypatch.setattr(HomoPoly, "pullback", counting)
        ev = catalog.evaluate(instance)
        monkeypatch.setattr(HomoPoly, "pullback", original)
        if "fermat_equivalent" in instance.flags:
            assert len(calls) == 1, name
        else:
            assert len(calls) == len(set(instance.seeds)), name
            carried += len(ev.report.records) - len(calls)
    assert carried > 0


def _normal_form(ctx, degree, terms):
    coeffs = {
        e: c if isinstance(c, FieldElement) else ctx.from_rational(Fraction(c))
        for e, c in terms.items()
    }
    return HomoPoly(ctx, degree, coeffs)


def _quartic(ctx, a=0, b=0):
    """X^4 + Y^4 + Z^4 + aX^2Y^2 + b(Y^2Z^2 + X^2Z^2)."""
    terms = {(4, 0, 0): 1, (0, 4, 0): 1, (0, 0, 4): 1, (2, 2, 0): a, (0, 2, 2): b, (2, 0, 2): b}
    return _normal_form(ctx, 4, terms)


def _delta_sextic(ctx, a=0):
    """X^6 + 20X^3Y^3 - 8Y^6 + Z^6 + a(X^3YZ^2 + Y^4Z^2)."""
    terms = {(6, 0, 0): 1, (3, 3, 0): 20, (0, 6, 0): -8, (0, 0, 6): 1, (3, 1, 2): a, (0, 4, 2): a}
    return _normal_form(ctx, 6, terms)


def test_each_curve_is_its_familys_normal_form():
    def form(name, **params):
        return catalog.make(name, **params).curve.form

    c3, c4, c8 = FieldContext(3), FieldContext(4), FieldContext(8)
    assert form("fermat_quartic") == _quartic(c8)
    assert form("quartic_xy", a=1) == _quartic(c4, 1)
    for a in (0, 6, -6):
        inst = catalog.make("quartic_xy", a=a)
        assert inst.curve.form == _quartic(inst.context, a), a
        assert inst.extras["fermat_form"] == _quartic(inst.context), a
    third = Fraction(1, 3)
    assert form("quartic_symmetric", a=third) == _quartic(c4, third, third)
    a8 = c8.zeta() ** 2 + 3
    assert form("quartic_symmetric", a=a8) == _quartic(c8, a8, a8)
    for a, b in ((1, 3), (Fraction(1, 2), 5)):
        assert form("quartic_5family", a=a, b=b) == _quartic(c4, a, b)
    klein = form("quartic_klein")
    a = klein.coeff((2, 2, 0))
    assert (a * a + a * 3 + 18).is_zero()
    assert klein == _quartic(klein.context, a, a)
    assert form("sextic_delta8") == _delta_sextic(FieldContext(24))
    for a in (1, Fraction(3, 2)):
        assert form("sextic_delta4", a=a) == _delta_sextic(c3, a), a
