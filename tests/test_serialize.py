"""JSON schemas, literals, and deterministic serialization."""

import json
from fractions import Fraction

import pytest

from quasigalois import (
    FieldContext,
    FieldElement,
    NotSmooth,
    ProjLine,
    ProjMatrix,
    ProjPoint,
    SchemaError,
    census,
    curve_from_json,
    curve_to_json,
    element_from_json,
    element_to_json,
    field_from_json,
    field_to_json,
    form_from_json,
    generators_from_json,
    group_closure,
    group_to_json,
    line_from_json,
    line_from_literal,
    line_to_json,
    matrix_from_json,
    matrix_to_json,
    point_from_json,
    point_from_literal,
    point_to_json,
    report_to_json,
)
from quasigalois import catalog
from quasigalois.serialize import (
    _MAX_CONDUCTOR,
    _MAX_DEGREE,
    _MAX_DIGITS,
    rational_from_str,
    rational_to_str,
    scalar_from_literal,
    sorted_records,
    vector_from_literal,
)


def test_rational_string_round_trip():
    for q in (Fraction(3, 2), Fraction(-5), Fraction(0), Fraction(7, 11)):
        assert rational_from_str(rational_to_str(q), "t") == q
    assert rational_to_str(Fraction(4, 2)) == "2"
    assert rational_from_str("2/4", "t") == Fraction(1, 2)


def test_rational_string_rejections():
    for bad in ("3/0", "1.5", "3/-2", "", "a", "1/", "--2"):
        with pytest.raises(SchemaError):
            rational_from_str(bad, "t")


def test_field_round_trip_plain_and_extension():
    plain = FieldContext(8)
    assert field_from_json(field_to_json(plain), "f") == plain
    ext = FieldContext(5)
    ext = ext.extend_sqrt(ext.one() - ext.zeta() - ext.zeta() ** 4)
    back = field_from_json(field_to_json(ext), "f")
    assert back == ext
    assert back.lambda_sq == ext.lambda_sq


def test_field_schema_rejections():
    with pytest.raises(SchemaError):
        field_from_json({"conductor": "8"}, "f")
    with pytest.raises(SchemaError):
        field_from_json({"conductor": True}, "f")
    with pytest.raises(SchemaError):
        field_from_json({"conductor": 0}, "f")
    with pytest.raises(SchemaError):
        field_from_json({}, "f")
    with pytest.raises(SchemaError):
        field_from_json({"conductor": 8, "extra": 1}, "f")


def test_field_conductor_ceiling():
    with pytest.raises(SchemaError) as info:
        field_from_json({"conductor": _MAX_CONDUCTOR + 1}, "f")
    assert info.value.path == "f.conductor"
    assert field_from_json({"conductor": _MAX_CONDUCTOR}, "f").conductor == _MAX_CONDUCTOR


def test_library_readers_bound_the_conductor():
    # the bound holds for a library call, not only for the command line
    field = {"conductor": _MAX_CONDUCTOR + 1}
    one = {"conductor": _MAX_CONDUCTOR + 1, "coords": ["1"]}
    curve = {"field": field, "degree": 4, "terms": [{"exps": [4, 0, 0], "coeff": one}]}
    generators = {"field": field, "matrices": [[[one] * 3] * 3]}
    for reader, data, path in (
        (curve_from_json, curve, "curve.field.conductor"),
        (element_from_json, one, "element.conductor"),
        (generators_from_json, generators, "generators.field.conductor"),
    ):
        with pytest.raises(SchemaError) as info:
            reader(data)
        assert info.value.path == path


def test_integer_digit_ceiling():
    ctx = FieldContext(8)
    top = "7" * _MAX_DIGITS
    over = "7" * (_MAX_DIGITS + 1)
    assert rational_from_str("-1/" + top) == Fraction(-1, int(top))
    assert scalar_from_literal(top + "*z^2", ctx) == ctx.from_int(int(top)) * ctx.zeta() ** 2
    for text in (over, "-" + over, "1/" + over):
        with pytest.raises(SchemaError) as info:
            rational_from_str(text, "r")
        assert info.value.path == "r"
    for text in (over, "1 + 1/" + over + "*z", "z^" + over):
        with pytest.raises(SchemaError) as info:
            scalar_from_literal(text, ctx, "s")
        assert info.value.path == "s"


def test_form_degree_ceiling():
    one = {"conductor": 1, "coords": ["1"]}

    def fermat(d):
        exps = ([d, 0, 0], [0, d, 0], [0, 0, d])
        terms = [{"exps": e, "coeff": one} for e in exps]
        return {"field": {"conductor": 1}, "degree": d, "terms": terms}

    assert form_from_json(fermat(_MAX_DEGREE), "c").degree == _MAX_DEGREE
    with pytest.raises(SchemaError) as info:
        form_from_json(fermat(_MAX_DEGREE + 1), "c")
    assert info.value.path == "c.degree"


def test_element_round_trip_randomized():
    import random

    rng = random.Random(12321)
    for conductor in (3, 8, 12):
        ctx = FieldContext(conductor)
        for _ in range(20):
            coords = [
                Fraction(rng.randint(-9, 9), rng.randint(1, 7))
                for _ in range(ctx.dim)
            ]
            e = ctx.from_coords(coords)
            data = element_to_json(e)
            assert element_from_json(data, "e", context=ctx) == e


def test_element_schema_rejections():
    ctx = FieldContext(8)
    good = {"conductor": 8, "coords": ["1", "0", "0", "0"]}
    assert element_from_json(good, "e", context=ctx).is_one()
    with pytest.raises(SchemaError):
        element_from_json({"conductor": 8, "coords": ["1", "0", "0"]}, "e", context=ctx)
    with pytest.raises(SchemaError):
        element_from_json({"conductor": 12, "coords": ["1", "0", "0", "0"]}, "e", context=ctx)
    with pytest.raises(SchemaError):
        element_from_json({"coords": ["1", "0", "0", "0"]}, "e", context=ctx)
    with pytest.raises(SchemaError):
        element_from_json("1", "e", context=ctx)


def test_element_conductor_must_be_an_integer_with_a_context():
    # 3.0 == 3 and True == 1, so an equality test alone would accept them
    for conductor, bad in ((3, 3.0), (1, True)):
        one = {
            "conductor": conductor,
            "coords": ["1"] + ["0"] * (FieldContext(conductor).dim - 1),
        }
        terms = [
            {"exps": e, "coeff": dict(one)} for e in ([4, 0, 0], [0, 4, 0], [0, 0, 4])
        ]
        terms[0]["coeff"]["conductor"] = bad
        data = {"field": {"conductor": conductor}, "degree": 4, "terms": terms}
        with pytest.raises(SchemaError) as info:
            curve_from_json(data)
        assert info.value.path == "curve.terms[0].coeff.conductor"
        assert "expected an integer" in str(info.value)


def test_schema_error_carries_path():
    ctx = FieldContext(8)
    try:
        element_from_json({"conductor": 8, "coords": ["1", "x", "0", "0"]}, "terms[3].coeff", context=ctx)
    except SchemaError as err:
        assert "terms[3].coeff" in str(err)
    else:
        pytest.fail("expected SchemaError")


def test_point_line_matrix_round_trips():
    ctx = FieldContext(12)
    p = ProjPoint(ctx, [ctx.one(), ctx.zeta(), ctx.from_int(-2)])
    assert point_from_json(point_to_json(p), ctx) == p
    line = ProjLine(ctx, [ctx.zeta() ** 2, ctx.zero(), ctx.one()])
    assert line_from_json(line_to_json(line), ctx) == line
    m = ProjMatrix.from_ints(ctx, ((1, 2, 0), (0, 1, 0), (3, 0, 1)))
    assert matrix_from_json(matrix_to_json(m), ctx) == m
    with pytest.raises(SchemaError):
        point_from_json(point_to_json(p), FieldContext(8))
    zero = [element_to_json(ctx.zero())] * 3
    for read, kind in ((point_from_json, "point"), (line_from_json, "line")):
        with pytest.raises(SchemaError) as info:
            read(zero, ctx)
        assert info.value.path == kind
        assert "cannot be the zero vector" in info.value.message


def test_curve_round_trip_all_entries(instances):
    # at a = 6 quartic_xy lives in K[l], so every coefficient carries lambda_sq
    extended = catalog.make("quartic_xy", a=6)
    assert extended.context.lambda_sq is not None
    for name, inst in dict(instances, quartic_xy_a6=extended).items():
        data = curve_to_json(inst.curve)
        back = curve_from_json(data)
        assert back.form == inst.curve.form, name
        assert back.form.context == inst.context, name


def test_extension_coefficients_must_match_the_curve_field():
    data = curve_to_json(catalog.make("quartic_xy", a=6).curve)
    plain = json.loads(json.dumps(data))
    del plain["terms"][0]["coeff"]["lambda_sq"]
    other = json.loads(json.dumps(data))
    other["terms"][0]["coeff"]["lambda_sq"]["coords"] = ["0", "1", "0", "0"]
    for bad, path, message in (
        (plain, "curve.terms[0].coeff", "disagree about the quadratic extension"),
        (other, "curve.terms[0].coeff.lambda_sq", "different quadratic extension"),
    ):
        with pytest.raises(SchemaError) as info:
            curve_from_json(bad)
        assert info.value.path == path
        assert message in info.value.message


def test_curve_json_is_byte_deterministic(instances):
    for name, inst in instances.items():
        a = json.dumps(curve_to_json(inst.curve), sort_keys=True)
        b = json.dumps(curve_to_json(curve_from_json(curve_to_json(inst.curve))), sort_keys=True)
        assert a == b, name


def test_curve_from_json_enforces_smoothness():
    ctx = FieldContext(4)
    data = {
        "field": {"conductor": 4},
        "degree": 4,
        "terms": [
            {"exps": [3, 0, 1], "coeff": {"conductor": 4, "coords": ["1", "0"]}},
            {"exps": [0, 4, 0], "coeff": {"conductor": 4, "coords": ["1", "0"]}},
        ],
    }
    form = form_from_json(data, "curve")
    assert form.degree == 4
    with pytest.raises(NotSmooth):
        curve_from_json(data)


def test_curve_from_json_needs_degree_four():
    one = {"conductor": 1, "coords": ["1"]}
    terms = [{"exps": e, "coeff": one} for e in ([3, 0, 0], [0, 3, 0], [0, 0, 3])]
    data = {"field": {"conductor": 1}, "degree": 3, "terms": terms}
    assert form_from_json(data).degree == 3
    with pytest.raises(SchemaError) as info:
        curve_from_json(data)
    assert info.value.path == "curve.degree"


def test_form_schema_rejections():
    base = {
        "field": {"conductor": 4},
        "degree": 4,
        "terms": [
            {"exps": [4, 0, 0], "coeff": {"conductor": 4, "coords": ["1", "0"]}}
        ],
    }
    bad_degree = dict(base, degree=True)
    with pytest.raises(SchemaError):
        form_from_json(bad_degree, "c")
    bad_exps = json.loads(json.dumps(base))
    bad_exps["terms"][0]["exps"] = [3, 0, 0]
    with pytest.raises(SchemaError):
        form_from_json(bad_exps, "c")
    bad_neg = json.loads(json.dumps(base))
    bad_neg["terms"][0]["exps"] = [5, -1, 0]
    with pytest.raises(SchemaError):
        form_from_json(bad_neg, "c")
    with pytest.raises(SchemaError):
        form_from_json(dict(base, terms=[]), "c")
    with pytest.raises(SchemaError):
        form_from_json("nope", "c")
    term = base["terms"][0]
    zero_term = {"exps": [0, 4, 0], "coeff": {"conductor": 4, "coords": ["0", "0"]}}
    for bad, path, message in (
        (dict(base, terms=[term, term]), "c.terms[1].exps", "duplicate exponent"),
        (dict(base, terms=[zero_term]), "c.terms", "all coefficients are zero"),
        ({k: v for k, v in base.items() if k != "field"}, "c.field", "missing"),
    ):
        with pytest.raises(SchemaError) as info:
            form_from_json(bad, "c")
        assert info.value.path == path
        assert message in info.value.message


def test_report_json_shape(instances):
    inst = instances["fermat_quartic"]
    report = census(inst.curve, inst.seeds)
    data = report_to_json(report)
    assert set(data) == {
        "delta_prime",
        "delta",
        "points",
        "pairs",
        "triples",
        "certification",
    }
    assert data["delta_prime"] == {"2": 12, "4": 3}
    assert data["certification"] == "theory_table_only"
    assert len(data["points"]) == 15
    for entry in data["points"]:
        assert set(entry) == {"point", "order", "locus", "axis"}
        assert entry["locus"] in ("inner", "outer")
    assert len(data["pairs"]) == 21
    assert len(data["triples"]) == 7
    orders = [e["order"] for e in data["points"]]
    assert sorted(orders, reverse=True)[:3] == [4, 4, 4]


def test_sorted_records_are_key_sorted(instances):
    inst = instances["sextic_delta8"]
    report = census(inst.curve, inst.seeds)
    recs = sorted_records(report)
    assert all(r.order >= 2 for r in recs)
    keys = [r.point.key() for r in recs]
    assert keys == sorted(keys)
    assert len(recs) == 21


def test_group_round_trip():
    ctx = FieldContext(8)
    i4 = ctx.root_of_unity(4)
    one, zero = ctx.one(), ctx.zero()
    gens = [
        ProjMatrix(ctx, ((i4, zero, zero), (zero, one, zero), (zero, zero, one))),
        ProjMatrix.from_ints(ctx, ((0, 1, 0), (1, 0, 0), (0, 0, 1))),
    ]
    group = group_closure(gens)
    data = group_to_json(group)
    assert data["order"] == len(group)
    assert data["histogram"] == {
        str(k): v for k, v in __import__("quasigalois").order_histogram(group).items()
    }
    back = generators_from_json(data, "g")
    assert back and back[0].context == ctx
    regrown = group_closure(back)
    assert len(regrown) == len(group)
    assert {m.canonical_key() for m in regrown} == {m.canonical_key() for m in group}


def test_generators_must_be_invertible():
    ctx = FieldContext(8)
    field = {"conductor": 8}
    good = matrix_to_json(ProjMatrix.identity(ctx))
    for bad in (((1, 2, 0), (2, 4, 0), (0, 0, 1)), ((0, 0, 0),) * 3):
        data = {"field": field, "matrices": [good, matrix_to_json(ProjMatrix.from_ints(ctx, bad))]}
        with pytest.raises(SchemaError) as info:
            generators_from_json(data)
        assert info.value.path == "generators.matrices[1]"


def test_group_json_matrices_are_sorted_and_deterministic():
    ctx = FieldContext(8)
    i4 = ctx.root_of_unity(4)
    one, zero = ctx.one(), ctx.zero()
    g1 = group_closure([ProjMatrix(ctx, ((i4, zero, zero), (zero, one, zero), (zero, zero, one)))])
    a = json.dumps(group_to_json(g1), sort_keys=True)
    b = json.dumps(group_to_json(list(reversed(g1))), sort_keys=True)
    assert a == b


def test_literal_parsing():
    ctx = FieldContext(8)
    assert scalar_from_literal("3/2 - z^2", ctx) == ctx.from_rational(
        Fraction(3, 2)
    ) - ctx.zeta() ** 2
    assert scalar_from_literal("z", ctx) == ctx.zeta()
    assert scalar_from_literal("-z^3", ctx) == -(ctx.zeta() ** 3)
    assert scalar_from_literal("2*z^2", ctx) == ctx.from_int(2) * ctx.zeta() ** 2
    vec = vector_from_literal("1, z^4, 0", ctx)
    assert vec == [ctx.one(), -ctx.one(), ctx.zero()]
    p = point_from_literal("1, z^4, 0", ctx)
    assert p == ProjPoint.from_ints(ctx, (1, -1, 0))
    line = line_from_literal("0, 0, 1", ctx)
    assert line == ProjLine.from_ints(ctx, (0, 0, 1))


def test_literal_power_of_zeta_is_reduced_mod_the_conductor(monkeypatch):
    ctx = FieldContext(105)
    k = "9" * _MAX_DIGITS
    power = ctx.zeta() ** (int(k) % 105)
    expected = {"z^" + k: power, "2*z^" + k: ctx.from_int(2) * power}
    original = FieldElement.__mul__
    calls = []

    def counting(self, other):
        calls.append(other)
        return original(self, other)

    monkeypatch.setattr(FieldElement, "__mul__", counting)
    for text, value in expected.items():
        calls.clear()
        parsed = scalar_from_literal(text, ctx)
        assert len(calls) <= 2 * (105).bit_length() + 2
        assert parsed == value


def test_literal_rejections():
    ctx = FieldContext(8)
    for bad in ("", "1, 2", "1, 2, 3, 4", "w, 0, 0", "1 +", "z^", "1/0, 0, 1"):
        with pytest.raises(SchemaError):
            point_from_literal(bad, ctx)
    with pytest.raises(SchemaError):
        point_from_literal("0, 0, 0", ctx)
    with pytest.raises(SchemaError) as info:
        point_from_literal("1, , 0", ctx)
    assert (info.value.path, info.value.message) == ("point[1]", "empty literal")


def test_conductor_past_the_ceiling_is_rejected():
    # one inversion at conductor 1155 (phi = 480) takes about a minute
    with pytest.raises(SchemaError) as info:
        field_from_json({"conductor": 1155}, "f")
    assert info.value.path == "f.conductor"


def test_matrix_from_json_reports_the_row_and_the_entry():
    ctx = FieldContext(8)
    good = matrix_to_json(ProjMatrix.identity(ctx))
    for data, path, message in (
        ({}, "m", "expected a list of 3 rows"),
        (good[:2], "m", "expected a list of 3 rows"),
        ([good[0], good[1][:2], good[2]], "m[1]", "expected a list of 3 field elements"),
        ([good[0], good[1], "row"], "m[2]", "expected a list of 3 field elements"),
        (
            [good[0], good[1], [good[2][0], {"conductor": 8, "coords": ["1"]}, good[2][2]]],
            "m[2][1].coords",
            "expected 4 coordinates, got 1",
        ),
        (
            [[good[0][0], good[0][1], {"conductor": 12, "coords": ["1"] * 4}], good[1], good[2]],
            "m[0][2].conductor",
            "expected conductor 8, got 12",
        ),
        (
            [good[0], [good[1][0], {"conductor": 8, "coords": ["x", "0", "0", "0"]}, good[1][2]], good[2]],
            "m[1][1].coords[0]",
            "not a rational 'p/q': 'x'",
        ),
    ):
        with pytest.raises(SchemaError) as info:
            matrix_from_json(data, ctx, path="m")
        assert (info.value.path, info.value.message) == (path, message)
    assert matrix_from_json(good, ctx, path="m") == ProjMatrix.identity(ctx)
