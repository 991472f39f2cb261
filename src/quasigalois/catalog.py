"""Built-in curve families with frozen census and group expectations.

Each entry packages a smooth plane curve over the smallest cyclotomic field
supporting its full analysis, the seed points whose orbit closure reaches
every known quasi-Galois point, and the expected census and group data the
verification command replays.  Parameter gates reject degenerate members:
values excluded by a family's defining constraints raise ParameterViolation,
while values producing singular curves fail the smoothness check inside
PlaneCurve and raise NotSmooth.  The ``quartic_xy`` family contains three
members projectively equivalent to the Fermat quartic; those are constructed
successfully but flagged, with the explicit equivalence recorded in
``extras`` instead of a census expectation.
"""

from __future__ import annotations

from collections import namedtuple
from fractions import Fraction

from .census import census
from .cyclotomic import FieldContext, FieldElement
from .errors import ParameterViolation
from .geometry import HomoPoly, PlaneCurve, ProjLine, ProjMatrix, ProjPoint
from .groups import group_closure, line_action_analysis


# ---------------------------------------------------------------------------
# construction helpers
# ---------------------------------------------------------------------------


def _element(ctx, value):
    if isinstance(value, FieldElement):
        return value if value.context is ctx else ctx.embed(value)
    return ctx.from_rational(Fraction(value))


def _form(ctx, degree, terms):
    return HomoPoly(ctx, degree, {e: _element(ctx, v) for e, v in terms.items()})


def _points(ctx, specs):
    return tuple(
        ProjPoint(ctx, [_element(ctx, c) for c in spec]) for spec in specs
    )


def _quartic(a=0, b=0):
    """X^4 + Y^4 + Z^4 + aX^2Y^2 + b(Y^2Z^2 + X^2Z^2): every catalog quartic."""
    return {(4, 0, 0): 1, (0, 4, 0): 1, (0, 0, 4): 1, (2, 2, 0): a, (0, 2, 2): b, (2, 0, 2): b}


def _delta_sextic(a=0):
    """X^6 + 20X^3Y^3 - 8Y^6 + Z^6 + a(X^3YZ^2 + Y^4Z^2): both delta-sextics."""
    return {(6, 0, 0): 1, (3, 3, 0): 20, (0, 6, 0): -8, (0, 0, 6): 1, (3, 1, 2): a, (0, 4, 2): a}


# The quartic_xy parameters whose member is projectively the Fermat quartic.
FERMAT_EQUIVALENT_XY = (0, 6, -6)


def _rational_param(params, key, default):
    value = params.pop(key, default)
    if isinstance(value, bool) or not isinstance(value, (int, Fraction)):
        raise TypeError("parameter %r must be an int or Fraction" % key)
    return Fraction(value)


def _reject_unknown(name, params):
    if params:
        raise TypeError(
            "%s does not accept parameter(s): %s" % (name, ", ".join(sorted(params)))
        )


_E1 = (1, 0, 0)
_E2 = (0, 1, 0)
_E3 = (0, 0, 1)
_TRIANGLE9 = (
    _E1,
    _E2,
    _E3,
    (1, 1, 0),
    (1, -1, 0),
    (1, 0, 1),
    (1, 0, -1),
    (0, 1, 1),
    (0, 1, -1),
)


class CurveInstance:
    """One constructed catalog curve with its seeds and expectations.

    Fields: ``name`` and the resolved ``parameters``; the smooth ``curve``
    and its field ``context``; the ``seeds`` driving orbit expansion; the
    ``expected`` data replayed by :func:`evaluate`; ``extras`` holding named
    matrices and points special to the entry; and ``flags`` (currently only
    ``"fermat_equivalent"``).
    """

    __slots__ = (
        "name",
        "parameters",
        "context",
        "curve",
        "seeds",
        "expected",
        "extras",
        "flags",
    )

    def __init__(self, name, parameters, curve, seeds, expected, extras, flags):
        self.name = name
        self.parameters = dict(parameters)
        self.context = curve.context
        self.curve = curve
        self.seeds = tuple(seeds)
        self.expected = expected
        self.extras = dict(extras)
        self.flags = frozenset(flags)

    def __repr__(self):
        bits = [self.name]
        if self.parameters:
            bits.append(
                "(%s)" % ", ".join("%s=%s" % kv for kv in sorted(self.parameters.items()))
            )
        if self.flags:
            bits.append(" [%s]" % ", ".join(sorted(self.flags)))
        return "CurveInstance(%s)" % "".join(bits)


# ---------------------------------------------------------------------------
# the entries
# ---------------------------------------------------------------------------


def _build_hessian_sextic(params):
    _reject_unknown("hessian_sextic", params)
    ctx = FieldContext(3)
    curve = PlaneCurve(
        _form(
            ctx,
            6,
            {
                (6, 0, 0): 1,
                (0, 6, 0): 1,
                (0, 0, 6): 1,
                (3, 3, 0): -10,
                (0, 3, 3): -10,
                (3, 0, 3): -10,
            },
        )
    )
    w = ctx.zeta()
    one = ctx.one()
    unit_point_homology = ProjMatrix(ctx, [[w, one, one], [one, w, one], [one, one, w]])
    expected = {
        "seed_orders": (3, 3, 3, 3, 2),
        "delta_prime": {2: 9, 3: 12, 6: 0},
        "delta": {5: 0},
        "certification": "certified",
        "point_count": 21,
        "pair_count": 48,
        "triple_count": 4,
        "g3_closure_order": 216,
        "generator_closure_order": 216,
        "contains_unit_point_homology": True,
    }
    return CurveInstance(
        "hessian_sextic",
        {},
        curve,
        _points(ctx, (_E1, _E2, _E3, (1, 1, 1), (1, -1, 0))),
        expected,
        {"unit_point_homology": unit_point_homology},
        (),
    )


def _build_sextic_delta8(params):
    _reject_unknown("sextic_delta8", params)
    ctx = FieldContext(24)
    curve = PlaneCurve(_form(ctx, 6, _delta_sextic()))
    z8 = ctx.root_of_unity(8)
    s = z8 + z8 ** 3  # s^2 = -2
    zero, one = ctx.zero(), ctx.one()
    swap = ProjMatrix(
        ctx, [[zero, s, zero], [s.inverse(), zero, zero], [zero, zero, one]]
    )
    swap_center = ProjPoint(ctx, [s, -one, zero])
    expected = {
        "seed_orders": (3, 3, 3, 6, 2),
        "delta_prime": {2: 12, 3: 8, 6: 1},
        "delta": {5: 0},
        "certification": "theory_table_only",
        "point_count": 21,
        "pair_count": 30,
        "triple_count": 10,
        "g3_closure_order": 72,
        "aut_closure_order": 144,
        "generator_closure_order": 144,
        "order3_locus_line": (0, 0, 1),
        "line_actions": (
            {
                "group": "g3",
                "line": (0, 0, 1),
                "kernel": 6,
                "image": 12,
                "histogram": {1: 1, 2: 3, 3: 8},
            },
            {
                "group": "aut",
                "line": (0, 0, 1),
                "kernel": 6,
                "image": 24,
                "histogram": {1: 1, 2: 9, 3: 8, 4: 6},
            },
        ),
    }
    return CurveInstance(
        "sextic_delta8",
        {},
        curve,
        _points(ctx, (_E1, _E2, (1, -1, 0), _E3)) + (swap_center,),
        expected,
        {"swap_automorphism": swap},
        (),
    )


def _build_sextic_delta4(params):
    a = _rational_param(params, "a", 1)
    _reject_unknown("sextic_delta4", params)
    if a == 0:
        raise ParameterViolation("sextic_delta4 requires a != 0 (a = 0 degenerates)")
    ctx = FieldContext(3)
    curve = PlaneCurve(_form(ctx, 6, _delta_sextic(a)))
    expected = {
        "seed_orders": (3, 3, 2),
        "delta_prime": {2: 1, 3: 4, 6: 0},
        "delta": {5: 0},
        "certification": "theory_table_only",
        "point_count": 5,
        "pair_count": 4,
        "triple_count": 0,
        "g3_closure_order": 24,
    }
    return CurveInstance(
        "sextic_delta4",
        {"a": a},
        curve,
        _points(ctx, (_E1, (1, -1, 0), _E3)),
        expected,
        {},
        (),
    )


def _build_fermat_quartic(params):
    _reject_unknown("fermat_quartic", params)
    ctx = FieldContext(8)
    curve = PlaneCurve(_form(ctx, 4, _quartic()))
    i = ctx.zeta() ** 2
    expected = {
        "seed_orders": (4, 4, 4, 2, 2, 2),
        "delta_prime": {2: 12, 4: 3},
        "delta": {3: 0},
        "certification": "theory_table_only",
        "point_count": 15,
        "pair_count": 21,
        "triple_count": 7,
        "generator_closure_order": 96,
    }
    return CurveInstance(
        "fermat_quartic",
        {},
        curve,
        _points(ctx, (_E1, _E2, _E3, (1, i, 0), (1, 0, i), (0, 1, i))),
        expected,
        {},
        (),
    )


def _build_quartic_symmetric(params):
    a = params.pop("a", 1)
    _reject_unknown("quartic_symmetric", params)
    if isinstance(a, FieldElement):
        if (a * a + a * 3 + 18).is_zero():  # never rational
            raise ParameterViolation(
                "a satisfies a^2 + 3a + 18 = 0; this member is handled by quartic_klein"
            )
        if a.context.conductor % 4 != 0:
            raise ValueError("a FieldElement parameter must come from a field containing i")
        ctx = a.context
    else:
        a = _rational_param({"a": a}, "a", 1)
        ctx = FieldContext(4)
    if a == 0:
        raise ParameterViolation("a = 0 is the plain Fermat quartic; use fermat_quartic")
    curve = PlaneCurve(_form(ctx, 4, _quartic(a, a)))
    expected = {
        "seed_orders": (2,) * 9,
        "delta_prime": {2: 9, 4: 0},
        "delta": {3: 0},
        "certification": "theory_table_only",
        "point_count": 9,
        "pair_count": 12,
        "triple_count": 4,
        "generator_closure_order": 24,
        "points_on_coordinate_triangle": True,
        "vertex_triple": (_E1, _E2, _E3),
    }
    return CurveInstance(
        "quartic_symmetric",
        {"a": a},
        curve,
        _points(ctx, _TRIANGLE9),
        expected,
        {},
        (),
    )


def _fermat_equivalent_xy(a):
    """The quartic_xy members that are projectively the Fermat quartic."""
    base = FieldContext(8)
    z = base.zeta()
    zero, one = base.zero(), base.one()
    if a == 0:
        ctx = base
        transform = ProjMatrix.identity(ctx)
        scale = ctx.one()
    else:
        sqrt2 = z - z ** 3
        ctx = base.extend_sqrt(sqrt2 * 2)  # lambda^2 = 2*sqrt(2)
        lam = ctx.sqrt_generator()
        zero, one = ctx.zero(), ctx.one()
        transform = ProjMatrix(
            ctx, [[one, one, zero], [one, -one, zero], [zero, zero, lam]]
        )
        if a == -6:
            i = ctx.embed(z ** 2)
            twist = ProjMatrix(ctx, [[one, zero, zero], [zero, i, zero], [zero, zero, one]])
            transform = twist * transform
        scale = ctx.from_int(8)
    return CurveInstance(
        "quartic_xy",
        {"a": a},
        PlaneCurve(_form(ctx, 4, _quartic(a))),
        (),
        {"fermat_equivalent": True},
        {
            "fermat_transform": transform,
            "fermat_form": _form(ctx, 4, _quartic()),
            "fermat_scale": scale,
        },
        ("fermat_equivalent",),
    )


def _build_quartic_xy(params):
    a = _rational_param(params, "a", 1)
    _reject_unknown("quartic_xy", params)
    if a in FERMAT_EQUIVALENT_XY:
        return _fermat_equivalent_xy(a)
    ctx = FieldContext(4)
    curve = PlaneCurve(_form(ctx, 4, _quartic(a)))
    i = ctx.zeta()
    expected = {
        "seed_orders": (2, 2, 4, 2, 2),
        "delta_prime": {2: 6, 4: 1},
        "delta": {3: 0},
        "certification": "theory_table_only",
        "point_count": 7,
        "pair_count": 9,
        "triple_count": 3,
        "generator_closure_order": 16,
    }
    return CurveInstance(
        "quartic_xy",
        {"a": a},
        curve,
        _points(ctx, (_E1, _E2, _E3, (1, 1, 0), (1, i, 0))),
        expected,
        {},
        (),
    )


def _build_quartic_5family(params):
    a = _rational_param(params, "a", 1)
    b = _rational_param(params, "b", 3)
    _reject_unknown("quartic_5family", params)
    if b == 0:
        raise ParameterViolation("quartic_5family requires b != 0")
    if b == a or b == -a:
        raise ParameterViolation("quartic_5family requires b != a and b != -a")
    ctx = FieldContext(4)
    curve = PlaneCurve(_form(ctx, 4, _quartic(a, b)))
    expected = {
        "seed_orders": (2, 2, 2, 2),
        "delta_prime": {2: 5, 4: 0},
        "delta": {3: 0},
        "certification": "theory_table_only",
        "point_count": 5,
        "pair_count": 6,
        "triple_count": 2,
        "generator_closure_order": 8,
    }
    return CurveInstance(
        "quartic_5family",
        {"a": a, "b": b},
        curve,
        _points(ctx, (_E1, _E2, _E3, (1, 1, 0))),
        expected,
        {},
        (),
    )


def _build_quartic_klein(params):
    _reject_unknown("quartic_klein", params)
    ctx = FieldContext(28)
    z = ctx.zeta()
    z7 = ctx.root_of_unity(7)
    gauss = z7 + z7 ** 2 + z7 ** 4 - (z7 ** 3 + z7 ** 5 + z7 ** 6)  # gauss^2 = -7
    a = (gauss * 3 - 3) / 2  # a^2 + 3a + 18 = 0
    curve = PlaneCurve(_form(ctx, 4, _quartic(a, a)))
    # 4a/(6-a) is a square already in this field; lam is one of its roots.
    lam = 1 - z ** 2 + z ** 4 + z ** 8
    zero, one = ctx.zero(), ctx.one()
    two_over_lam = ctx.from_int(2) / lam
    tau = ProjMatrix(
        ctx,
        [
            [zero, two_over_lam, -two_over_lam],
            [lam, one, one],
            [-lam, one, one],
        ],
    )
    center = ProjPoint(ctx, [-two_over_lam, one, -one])
    expected = {
        "seed_orders": (2,) * 10,
        "delta_prime": {2: 21, 4: 0},
        "delta": {3: 0},
        "certification": "certified",
        "point_count": 21,
        "pair_count": 42,
        "triple_count": 14,
        "generator_closure_order": 168,
        "center_line": (0, 1, 1),
    }
    seeds = _points(ctx, _TRIANGLE9) + (center,)
    return CurveInstance(
        "quartic_klein",
        {},
        curve,
        seeds,
        expected,
        {"extra_involution": tau, "extra_involution_center": center},
        (),
    )


_BUILDERS = {
    "hessian_sextic": _build_hessian_sextic,
    "sextic_delta8": _build_sextic_delta8,
    "sextic_delta4": _build_sextic_delta4,
    "fermat_quartic": _build_fermat_quartic,
    "quartic_symmetric": _build_quartic_symmetric,
    "quartic_xy": _build_quartic_xy,
    "quartic_5family": _build_quartic_5family,
    "quartic_klein": _build_quartic_klein,
}


def entry_names():
    """The catalog entry names, in canonical order."""
    return tuple(_BUILDERS)


def make(name, **params):
    """Construct a catalog entry; parameter gates and smoothness apply."""
    try:
        builder = _BUILDERS[name]
    except KeyError:
        raise KeyError(
            "unknown catalog entry %r (choose from %s)" % (name, ", ".join(_BUILDERS))
        )
    return builder(dict(params))


# ---------------------------------------------------------------------------
# replaying the expectations
# ---------------------------------------------------------------------------

CheckResult = namedtuple("CheckResult", "name passed expected actual")


class EntryEvaluation:
    """The outcome of replaying one entry's expectations."""

    __slots__ = ("instance", "report", "groups", "checks")

    def __init__(self, instance, report, groups, checks):
        self.instance = instance
        self.report = report
        self.groups = groups
        self.checks = checks

    @property
    def passed(self):
        return all(c.passed for c in self.checks)

    def failures(self):
        return [c for c in self.checks if not c.passed]

    def __repr__(self):
        status = "pass" if self.passed else "FAIL"
        return "EntryEvaluation(%s: %s, %d checks)" % (
            self.instance.name,
            status,
            len(self.checks),
        )


def _add_check(checks, name, expected, actual):
    checks.append(CheckResult(name, expected == actual, expected, actual))


def _evaluate_fermat_equivalent(instance):
    checks = []
    extras = instance.extras
    pulled = instance.curve.form.pullback(extras["fermat_transform"])
    target = extras["fermat_form"].scale(extras["fermat_scale"])
    _add_check(checks, "fermat_transform_exact", True, pulled == target)
    return EntryEvaluation(instance, None, {}, checks)


def evaluate(instance):
    """Run the census and group computations and compare with expectations.

    Returns an :class:`EntryEvaluation`.  Flagged Fermat-equivalent entries are
    checked for exact pullback equality instead of a census.  The closures
    take no curve check: the census generators are proven by their
    classification, and the builder checks a hand-written automorphism.
    """
    if "fermat_equivalent" in instance.flags:
        return _evaluate_fermat_equivalent(instance)
    exp = instance.expected
    ctx = instance.context
    checks = []
    report = census(instance.curve, instance.seeds)
    seed_orders = tuple(report.records[p].order for p in instance.seeds)
    _add_check(checks, "seed_orders", exp["seed_orders"], seed_orders)
    _add_check(checks, "delta_prime", exp["delta_prime"], report.delta_prime)
    _add_check(checks, "delta", exp["delta"], report.delta)
    _add_check(checks, "certification", exp["certification"], report.certification)
    qg = report.quasi_galois_points()
    _add_check(checks, "point_count", exp["point_count"], len(qg))
    _add_check(checks, "pair_count", exp["pair_count"], len(report.pairs))
    _add_check(checks, "triple_count", exp["triple_count"], len(report.triples))

    groups = {}
    gens3 = [r.generator.matrix for r in qg if r.order % 3 == 0]
    if "g3_closure_order" in exp:
        groups["g3"] = group_closure(gens3)
        _add_check(checks, "g3_closure_order", exp["g3_closure_order"], len(groups["g3"]))
    if "generator_closure_order" in exp:
        groups["generators"] = group_closure([r.generator.matrix for r in qg])
        _add_check(
            checks,
            "generator_closure_order",
            exp["generator_closure_order"],
            len(groups["generators"]),
        )
    if "aut_closure_order" in exp:
        groups["aut"] = group_closure(gens3 + [instance.extras["swap_automorphism"]])
        _add_check(checks, "aut_closure_order", exp["aut_closure_order"], len(groups["aut"]))

    if exp.get("contains_unit_point_homology"):
        _add_check(
            checks,
            "contains_unit_point_homology",
            True,
            instance.extras["unit_point_homology"] in groups["g3"],
        )
    if "order3_locus_line" in exp:
        line = ProjLine.from_ints(ctx, exp["order3_locus_line"])
        _add_check(
            checks,
            "order3_locus_line",
            True,
            all(line.contains(r.point) for r in qg if r.order == 3),
        )
    if exp.get("points_on_coordinate_triangle"):
        _add_check(
            checks,
            "points_on_coordinate_triangle",
            True,
            all(any(c.is_zero() for c in r.point.coords) for r in qg),
        )
    if "vertex_triple" in exp:
        vertex = {ProjPoint.from_ints(ctx, p).key() for p in exp["vertex_triple"]}
        triple_keys = [{p.key() for p in t} for t in report.triples]
        _add_check(checks, "vertex_triple", True, vertex in triple_keys)
    if "center_line" in exp:
        line = ProjLine.from_ints(ctx, exp["center_line"])
        center = instance.extras["extra_involution_center"]
        _add_check(checks, "center_line", True, line.contains(center))
    if "extra_involution" in instance.extras:
        rec = report.records[instance.extras["extra_involution_center"]]
        _add_check(
            checks,
            "extra_involution_is_generator",
            True,
            rec.generator is not None
            and rec.generator.matrix == instance.extras["extra_involution"],
        )
    for spec in exp.get("line_actions", ()):
        line = ProjLine.from_ints(ctx, spec["line"])
        analysis = line_action_analysis(groups[spec["group"]], line)
        actual = (analysis.kernel_order, analysis.image_order, analysis.histogram)
        wanted = (spec["kernel"], spec["image"], spec["histogram"])
        _add_check(checks, "line_action_%s" % spec["group"], wanted, actual)
    return EntryEvaluation(instance, report, groups, checks)
