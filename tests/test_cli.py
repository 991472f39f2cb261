"""Command-line interface: subcommands, formats, exit codes, diagnostics."""

import hashlib
import json
import os
import random
import subprocess
import sys
from pathlib import Path

import pytest

import quasigalois
from quasigalois import FieldContext, OracleCensus, catalog, curve_to_json, point_to_json
from quasigalois import cli, serialize
from quasigalois.cli import main


@pytest.fixture()
def fermat_file(tmp_path):
    inst = catalog.make("fermat_quartic")
    path = tmp_path / "fermat.json"
    path.write_text(json.dumps(curve_to_json(inst.curve)))
    return str(path)


@pytest.fixture()
def singular_file(tmp_path):
    # the diagonal quartic family degenerates at a = 2
    data = {
        "field": {"conductor": 8},
        "degree": 4,
        "terms": [
            {"exps": [4, 0, 0], "coeff": {"conductor": 8, "coords": ["1", "0", "0", "0"]}},
            {"exps": [0, 4, 0], "coeff": {"conductor": 8, "coords": ["1", "0", "0", "0"]}},
            {"exps": [0, 0, 4], "coeff": {"conductor": 8, "coords": ["1", "0", "0", "0"]}},
            {"exps": [2, 2, 0], "coeff": {"conductor": 8, "coords": ["2", "0", "0", "0"]}},
        ],
    }
    path = tmp_path / "singular.json"
    path.write_text(json.dumps(data))
    return str(path)


def test_smooth_passes_on_smooth_curve(fermat_file, capsys):
    assert main(["smooth", "--curve", fermat_file]) == 0
    assert capsys.readouterr().out.strip() == "smooth"


def test_smooth_flags_singular_curve(singular_file, capsys):
    assert main(["smooth", "--curve", singular_file]) == 1
    assert capsys.readouterr().out.strip() == "singular"


def test_smooth_json_format(fermat_file, capsys):
    assert main(["smooth", "--curve", fermat_file, "--format", "json"]) == 0
    assert json.loads(capsys.readouterr().out) == {"smooth": True}


def test_malformed_json_file_is_a_usage_error(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    assert main(["smooth", "--curve", str(bad)]) == 2
    assert "error" in capsys.readouterr().err.lower()


def test_missing_file_is_a_usage_error(tmp_path, capsys):
    assert main(["smooth", "--curve", str(tmp_path / "nope.json")]) == 2


def test_schema_violation_reports_path(tmp_path, capsys):
    data = {"field": {"conductor": 8}, "degree": 4, "terms": [{"exps": [4, 0], "coeff": {"conductor": 8, "coords": ["1", "0", "0", "0"]}}]}
    path = tmp_path / "broken.json"
    path.write_text(json.dumps(data))
    assert main(["smooth", "--curve", str(path), "--format", "json"]) == 2
    err = json.loads(capsys.readouterr().out)
    assert set(err["error"]) == {"type", "message", "path"}
    assert "exps" in err["error"]["path"]


def test_zero_lambda_sq_is_a_schema_error(fermat_file, capsys):
    data = json.loads(Path(fermat_file).read_text())
    data["field"]["lambda_sq"] = {"conductor": 8, "coords": ["0", "0", "0", "0"]}
    Path(fermat_file).write_text(json.dumps(data))
    assert main(["smooth", "--curve", fermat_file, "--format", "json"]) == 2
    err = json.loads(capsys.readouterr().out)
    assert err["error"]["path"] == "curve.field.lambda_sq"


def test_point_classification_text(fermat_file, capsys):
    assert main(["point", "--curve", fermat_file, "--point", "1,0,0"]) == 0
    out = capsys.readouterr().out
    assert "order 4" in out
    assert "outer" in out


def test_point_classification_json(fermat_file, capsys):
    assert main(
        ["point", "--curve", fermat_file, "--point", "1,1,0", "--format", "json"]
    ) == 0
    data = json.loads(capsys.readouterr().out)
    assert data["order"] == 2
    assert data["locus"] == "outer"


def test_inner_point_of_order_one_needs_no_cube_root(fermat_file, capsys):
    # (z : 1 : 0) lies on the Fermat quartic over Q(zeta_8), which has no cube
    # root of unity; an order of 1 needs none
    assert main(
        ["point", "--curve", fermat_file, "--point", "z,1,0", "--format", "json"]
    ) == 0
    data = json.loads(capsys.readouterr().out)
    assert data["order"] == 1
    assert data["locus"] == "inner"


def test_point_literal_with_powers_of_zeta(fermat_file, capsys):
    assert main(
        ["point", "--curve", fermat_file, "--point", "1, z^2, 0", "--format", "json"]
    ) == 0
    data = json.loads(capsys.readouterr().out)
    assert data["order"] == 2


def test_bad_point_literal_is_a_usage_error(fermat_file, capsys):
    assert main(["point", "--curve", fermat_file, "--point", "1,2"]) == 2


def test_profile_of_coordinate_line(fermat_file, capsys):
    assert main(
        ["profile", "--curve", fermat_file, "--line", "0,0,1", "--format", "json"]
    ) == 0
    data = json.loads(capsys.readouterr().out)
    assert sorted(data["profile"]) == [1, 1, 1, 1]


def test_profile_text(fermat_file, capsys):
    # Z = 0 meets X^4 + Y^4 + Z^4 in four distinct points
    assert main(["profile", "--curve", fermat_file, "--line", "0,0,1"]) == 0
    assert capsys.readouterr().out == "profile [1, 1, 1, 1] (sum 4)\n"


def element(k):
    return {"conductor": 8, "coords": [str(k), "0", "0", "0"]}


def test_analyze_reports_census(fermat_file, tmp_path, capsys):
    seeds = {
        "points": [
            [element(1), element(0), element(0)],
            [element(0), element(1), element(0)],
        ]
    }
    spath = tmp_path / "seeds.json"
    spath.write_text(json.dumps(seeds))
    assert main(
        [
            "analyze",
            "--curve",
            fermat_file,
            "--seeds",
            str(spath),
            "--format",
            "json",
        ]
    ) == 0
    report = json.loads(capsys.readouterr().out)
    # the two vertex seeds close up to exactly themselves
    assert report["delta_prime"]["4"] == 2
    assert report["certification"] in ("certified", "theory_table_only")
    assert all(p["locus"] == "outer" for p in report["points"])
    assert len(report["pairs"]) == 1


def test_analyze_default_seeds_are_vertices(fermat_file, capsys):
    assert main(["analyze", "--curve", fermat_file, "--format", "json"]) == 0
    report = json.loads(capsys.readouterr().out)
    assert report["delta_prime"]["4"] == 3


def test_analyze_text_report(fermat_file, tmp_path, capsys):
    # the catalog's six Fermat seeds reach the whole census of its entry
    inst = catalog.make("fermat_quartic")
    spath = tmp_path / "seeds.json"
    spath.write_text(json.dumps({"points": [point_to_json(p) for p in inst.seeds]}))
    assert main(["analyze", "--curve", fermat_file, "--seeds", str(spath)]) == 0
    lines = capsys.readouterr().out.splitlines()
    exp = inst.expected
    assert lines[:5] == [
        "degree 4",
        "δ′: 2 → 12  4 → 3",
        "δ (inner): 3 → 0",
        "quasi-Galois points 15, pairs 21, triples 7",
        "certification: %s" % exp["certification"],
    ]
    assert (exp["point_count"], exp["pair_count"], exp["triple_count"]) == (15, 21, 7)
    points = lines[5:]
    assert len(points) == 15
    assert sum(" order 4  outer  axis " in line for line in points) == 3
    assert sum(" order 2  outer  axis " in line for line in points) == 12
    assert "  (1 : 0 : 0)  order 4  outer  axis Line[1, 0, 0]" in points


def test_analyze_cap_exceeded_is_a_verification_failure(fermat_file, capsys):
    assert main(["analyze", "--curve", fermat_file, "--cap", "2"]) == 1


def generator_file(tmp_path, matrices):
    from quasigalois import field_to_json, matrix_to_json

    data = {
        "field": field_to_json(matrices[0].context),
        "matrices": [matrix_to_json(m) for m in matrices],
    }
    path = tmp_path / "gens.json"
    path.write_text(json.dumps(data))
    return str(path)


def test_closure_command(fermat_file, tmp_path, capsys):
    inst = catalog.make("fermat_quartic")
    ctx = inst.context
    from quasigalois import ProjMatrix

    i4 = ctx.root_of_unity(4)
    one, zero = ctx.one(), ctx.zero()
    gpath = generator_file(
        tmp_path,
        [
            ProjMatrix(ctx, ((i4, zero, zero), (zero, one, zero), (zero, zero, one))),
            ProjMatrix(ctx, ((one, zero, zero), (zero, i4, zero), (zero, zero, one))),
        ],
    )
    assert main(
        [
            "closure",
            "--curve",
            fermat_file,
            "--generators",
            gpath,
            "--format",
            "json",
        ]
    ) == 0
    data = json.loads(capsys.readouterr().out)
    assert data["order"] == 16
    assert data["histogram"] == {"1": 1, "2": 3, "4": 12}


def test_closure_text(fermat_file, tmp_path, capsys):
    # diag(i, 1, 1) and diag(1, i, 1) generate (Z/4)^2 in PGL(3)
    ctx = catalog.make("fermat_quartic").context
    from quasigalois import ProjMatrix

    i4 = ctx.root_of_unity(4)
    one, zero = ctx.one(), ctx.zero()
    gpath = generator_file(
        tmp_path,
        [
            ProjMatrix(ctx, ((i4, zero, zero), (zero, one, zero), (zero, zero, one))),
            ProjMatrix(ctx, ((one, zero, zero), (zero, i4, zero), (zero, zero, one))),
        ],
    )
    assert main(["closure", "--curve", fermat_file, "--generators", gpath]) == 0
    assert capsys.readouterr().out.splitlines() == [
        "order 16",
        "order histogram: 1 → 1  2 → 3  4 → 12",
    ]


def test_closure_respects_cap(fermat_file, tmp_path, capsys):
    inst = catalog.make("fermat_quartic")
    ctx = inst.context
    from quasigalois import ProjMatrix

    i4 = ctx.root_of_unity(4)
    one, zero = ctx.one(), ctx.zero()
    g = ProjMatrix(ctx, ((i4, zero, zero), (zero, one, zero), (zero, zero, one)))
    gpath = generator_file(tmp_path, [g])
    assert main(
        ["closure", "--curve", fermat_file, "--generators", gpath, "--cap", "2"]
    ) == 1


def test_closure_rejects_generator_not_preserving_the_curve(fermat_file, tmp_path, capsys):
    ctx = catalog.make("fermat_quartic").context
    from quasigalois import ProjMatrix

    shear = ProjMatrix.from_ints(ctx, ((1, 1, 0), (0, 1, 0), (0, 0, 1)))
    gpath = generator_file(tmp_path, [ProjMatrix.identity(ctx), shear])
    assert main(["closure", "--curve", fermat_file, "--generators", gpath]) == 1
    assert "generator 1 does not preserve the curve" in capsys.readouterr().err


def test_closure_rejects_a_singular_generator(fermat_file, tmp_path, capsys):
    ctx = catalog.make("fermat_quartic").context
    from quasigalois import ProjMatrix

    singular = ProjMatrix.from_ints(ctx, ((1, 0, 0), (0, 1, 0), (0, 0, 0)))
    gpath = generator_file(tmp_path, [ProjMatrix.identity(ctx), singular])
    args = ["closure", "--curve", fermat_file, "--generators", gpath, "--format", "json"]
    assert main(args) == 2
    err = json.loads(capsys.readouterr().out)
    assert err["error"]["path"] == "generators.matrices[1]"


def test_empty_seeds_and_foreign_generators_are_schema_errors(fermat_file, tmp_path, capsys):
    seeds = tmp_path / "seeds.json"
    seeds.write_text("[]")
    gens = generator_file(tmp_path, [catalog.make("hessian_sextic").extras["unit_point_homology"]])
    for argv, path in (
        (["analyze", "--curve", fermat_file, "--seeds", str(seeds)], "seeds"),
        (["closure", "--curve", fermat_file, "--generators", gens], "generators.matrices[0]"),
    ):
        assert main(argv + ["--format", "json"]) == 2
        assert json.loads(capsys.readouterr().out)["error"]["path"] == path


def test_oracle_census_command(fermat_file, capsys):
    assert main(
        [
            "oracle-census",
            "--curve",
            fermat_file,
            "--order",
            "4",
            "--starts",
            "150",
            "--format",
            "json",
        ]
    ) == 0
    data = json.loads(capsys.readouterr().out)
    assert data["count"] == 3
    assert data["diagnostics"]["order"] == 4
    assert len(data["centers"]) == 3


def test_oracle_census_text_prints_no_negative_zero(fermat_file, capsys):
    argv = ["oracle-census", "--curve", fermat_file, "--order", "4", "--starts", "30"]
    assert main(argv + ["--seed", "0"]) == 0
    out = capsys.readouterr().out
    assert "-0.000000" not in out
    assert out.startswith("count 3 (order 4;")
    centers = [line for line in out.splitlines() if line.startswith("  (")]
    assert len(centers) == 3


@pytest.mark.parametrize(
    "flag, value",
    [
        ("--starts", "-1"),
        ("--order", "1"),
        ("--order", "-3"),
        ("--order", "5"),
        ("--seed", "-1"),
    ],
)
def test_oracle_census_rejects_bad_arguments(fermat_file, capsys, flag, value):
    args = {"--order": "4", "--starts": "10"}
    args[flag] = value
    argv = ["oracle-census", "--curve", fermat_file, "--format", "json"]
    argv += ["%s=%s" % item for item in args.items()]
    assert main(argv) == 2
    err = json.loads(capsys.readouterr().out)
    assert err["error"]["path"] == flag


@pytest.mark.parametrize(
    "command, flag, value",
    [
        ("analyze", "--cap", "0"),
        ("analyze", "--cap", "-5"),
        ("closure", "--cap", "0"),
        ("closure", "--cap", "-5"),
        ("verify-paper", "--seed", "-1"),
    ],
)
def test_out_of_range_numbers_are_usage_errors(
    fermat_file, tmp_path, capsys, command, flag, value
):
    from quasigalois import ProjMatrix

    ctx = catalog.make("fermat_quartic").context
    gpath = generator_file(tmp_path, [ProjMatrix.identity(ctx)])
    argv = {
        "analyze": ["analyze", "--curve", fermat_file],
        "closure": ["closure", "--curve", fermat_file, "--generators", gpath],
        "verify-paper": ["verify-paper", "--case", "fermat_quartic", "--no-oracle"],
    }[command]
    assert main(argv + ["--format", "json", "%s=%s" % (flag, value)]) == 2
    err = json.loads(capsys.readouterr().out)
    assert err["error"]["path"] == flag


@pytest.mark.parametrize(
    "command, flag, value",
    [
        ("oracle-census", "--starts", cli._MAX_STARTS + 1),
        ("analyze", "--cap", cli._MAX_CAP + 1),
        ("closure", "--cap", cli._MAX_CAP + 1),
    ],
)
def test_values_above_the_input_budget_are_usage_errors(
    fermat_file, tmp_path, capsys, command, flag, value
):
    # only ceiling + 1 is tried: it is rejected before anything is allocated
    from quasigalois import ProjMatrix

    ctx = catalog.make("fermat_quartic").context
    gpath = generator_file(tmp_path, [ProjMatrix.identity(ctx)])
    argv = {
        "oracle-census": ["oracle-census", "--curve", fermat_file, "--order", "2"],
        "analyze": ["analyze", "--curve", fermat_file],
        "closure": ["closure", "--curve", fermat_file, "--generators", gpath],
    }[command]
    assert main(argv + ["--format", "json", "%s=%d" % (flag, value)]) == 2
    err = json.loads(capsys.readouterr().out)
    assert err["error"]["path"] == flag


def test_degree_above_the_input_budget_is_a_usage_error(tmp_path, capsys):
    # only ceiling + 1 is tried: it is rejected before any rank is taken
    path = tmp_path / "high.json"
    d = serialize._MAX_DEGREE + 1
    one = {"conductor": 1, "coords": ["1"]}
    terms = [{"exps": e, "coeff": one} for e in ([d, 0, 0], [0, d, 0], [0, 0, d])]
    data = {"field": {"conductor": 1}, "degree": d, "terms": terms}
    path.write_text(json.dumps(data))
    assert main(["smooth", "--curve", str(path), "--format", "json"]) == 2
    err = json.loads(capsys.readouterr().out)
    assert err["error"]["path"].endswith(".degree")


def test_dense_singular_octic_at_the_degree_ceiling(tmp_path, capsys):
    # over Q(zeta_3), two coordinates in -3..3 per coefficient of X^i Y^j Z^k,
    # i <= 6: every partial vanishes at (1 : 0 : 0)
    rng = random.Random(8)
    terms = []
    for i in range(6, -1, -1):
        for j in range(8 - i, -1, -1):
            coords = [str(rng.randint(-3, 3)), str(rng.randint(-3, 3))]
            terms.append({"exps": [i, j, 8 - i - j], "coeff": {"conductor": 3, "coords": coords}})
    path = tmp_path / "octic.json"
    path.write_text(json.dumps({"field": {"conductor": 3}, "degree": 8, "terms": terms}))
    assert main(["smooth", "--curve", str(path), "--format", "json"]) == 1
    assert json.loads(capsys.readouterr().out) == {"smooth": False}


@pytest.mark.parametrize("command", ["analyze", "point", "profile", "closure", "oracle-census"])
def test_curve_below_degree_four_is_a_usage_error(tmp_path, capsys, command):
    # X^3 + Y^3 + Z^3 is a smooth form but not a curve the census accepts
    from quasigalois import ProjMatrix

    one = {"conductor": 1, "coords": ["1"]}
    terms = [{"exps": e, "coeff": one} for e in ([3, 0, 0], [0, 3, 0], [0, 0, 3])]
    path = tmp_path / "cubic.json"
    path.write_text(json.dumps({"field": {"conductor": 1}, "degree": 3, "terms": terms}))
    gpath = generator_file(tmp_path, [ProjMatrix.identity(FieldContext(1))])
    curve = ["--curve", str(path)]
    argv = {
        "analyze": ["analyze"] + curve,
        "point": ["point"] + curve + ["--point", "1,0,0"],
        "profile": ["profile"] + curve + ["--line", "0,0,1"],
        "closure": ["closure"] + curve + ["--generators", gpath],
        "oracle-census": ["oracle-census"] + curve + ["--order", "3"],
    }[command]
    assert main(argv + ["--format", "json"]) == 2
    err = json.loads(capsys.readouterr().out)
    assert err["error"]["path"] == "curve.degree"
    assert main(["smooth"] + curve) == 0


def test_verify_paper_list(capsys):
    assert main(["verify-paper", "--list"]) == 0
    out = capsys.readouterr().out
    names = out.split()
    assert len(names) == 11
    assert "hessian_sextic" in names
    assert "quartic_xy_fermat_a6" in names


def test_verify_paper_list_follows_the_format(capsys):
    assert main(["verify-paper", "--list"]) == 0
    names = capsys.readouterr().out.split()
    assert main(["verify-paper", "--list", "--format", "json"]) == 0
    assert json.loads(capsys.readouterr().out) == names


@pytest.mark.parametrize("fmt", ["text", "json"])
@pytest.mark.parametrize("buffered", [False, True])
@pytest.mark.parametrize("command", [["verify-paper", "--list"], ["smooth", "--curve", "missing.json"]])
def test_a_closed_stdout_is_an_io_error(tmp_path, command, fmt, buffered):
    # the reading end of the pipe is closed before the command writes, so
    # its first write (unbuffered) or its final flush (buffered) fails; a
    # missing file fails first, and then its JSON error cannot be printed
    src = str(Path(quasigalois.__file__).resolve().parent.parent)
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    env = dict(os.environ, PYTHONPATH=path)
    env.pop("PYTHONUNBUFFERED", None)
    argv = [sys.executable] + ([] if buffered else ["-u"])
    argv += ["-m", "quasigalois.cli"] + command + ["--format", fmt]
    read_end, write_end = os.pipe()
    os.close(read_end)
    try:
        run = subprocess.run(
            argv, cwd=tmp_path, env=env, stdout=write_end, stderr=subprocess.PIPE, timeout=300
        )
    finally:
        os.close(write_end)
    stderr = run.stderr.decode()
    assert run.returncode == 2, stderr
    assert "Traceback" not in stderr and "Exception ignored" not in stderr
    assert stderr.startswith("error (io): ")


def test_verify_paper_unknown_case(capsys):
    assert main(["verify-paper", "--case", "not_a_case"]) == 2


def test_verify_paper_single_case_text(capsys):
    assert main(["verify-paper", "--case", "hessian_sextic", "--no-oracle"]) == 0
    out = capsys.readouterr().out
    assert "PASS" in out
    assert "216" in out


def test_verify_paper_json_is_reproducible(capsys):
    assert main(
        ["verify-paper", "--case", "quartic_5family", "--no-oracle", "--format", "json", "--seed", "5"]
    ) == 0
    first = capsys.readouterr().out
    assert main(
        ["verify-paper", "--case", "quartic_5family", "--no-oracle", "--format", "json", "--seed", "5"]
    ) == 0
    second = capsys.readouterr().out
    assert first == second
    payload = json.loads(first)
    assert payload["passed"] is True
    assert all(case["passed"] for case in payload["cases"])
    assert payload["seed"] == 5


def test_conductor_ceiling_is_a_constant(tmp_path, capsys):
    def fermat(conductor, dim):
        one = {"conductor": conductor, "coords": ["1"] + ["0"] * (dim - 1)}
        terms = [{"exps": e, "coeff": one} for e in ([4, 0, 0], [0, 4, 0], [0, 0, 4])]
        return {"field": {"conductor": conductor}, "degree": 4, "terms": terms}

    top = serialize._MAX_CONDUCTOR
    path = tmp_path / "wide.json"
    path.write_text(json.dumps(fermat(top, FieldContext(top).dim)))
    assert main(["smooth", "--curve", str(path)]) == 0
    capsys.readouterr()
    # the coordinates are never read: the conductor is rejected first
    path.write_text(json.dumps(fermat(top + 1, 1)))
    assert main(["smooth", "--curve", str(path), "--format", "json"]) == 2
    err = json.loads(capsys.readouterr().out)["error"]
    assert err["path"] == "curve.field.conductor"
    assert "conductor" in err["message"]


def test_coefficient_digit_ceiling(fermat_file, tmp_path, capsys):
    data = json.loads(Path(fermat_file).read_text())
    path = tmp_path / "long.json"
    data["terms"][0]["coeff"]["coords"][0] = "9" * serialize._MAX_DIGITS
    path.write_text(json.dumps(data))
    assert main(["smooth", "--curve", str(path)]) == 0
    capsys.readouterr()
    data["terms"][0]["coeff"]["coords"][0] = "9" * (serialize._MAX_DIGITS + 1)
    path.write_text(json.dumps(data))
    assert main(["smooth", "--curve", str(path), "--format", "json"]) == 2
    err = json.loads(capsys.readouterr().out)["error"]
    assert (err["type"], err["path"]) == ("schema", "curve.terms[0].coeff.coords[0]")


def test_point_literal_digit_ceiling(fermat_file, capsys):
    literal = "1,%s,0" % ("9" * (serialize._MAX_DIGITS + 1))
    argv = ["point", "--curve", fermat_file, "--point", literal, "--format", "json"]
    assert main(argv) == 2
    err = json.loads(capsys.readouterr().out)["error"]
    assert (err["type"], err["path"]) == ("schema", "point[1]")


def test_integer_past_the_json_digit_limit_is_a_json_error(fermat_file, tmp_path, capsys):
    # json.load raises a plain ValueError here, not a JSONDecodeError
    text = Path(fermat_file).read_text().replace('"degree": 4', '"degree": ' + "4" * 5000)
    assert "4" * 5000 in text
    path = tmp_path / "huge.json"
    path.write_text(text)
    assert main(["smooth", "--curve", str(path), "--format", "json"]) == 2
    assert json.loads(capsys.readouterr().out)["error"]["type"] == "json"


def test_deeply_nested_json_is_a_json_error(tmp_path, capsys):
    # the decoder gives up on nesting with a RecursionError, not a ValueError
    path = tmp_path / "deep.json"
    path.write_text("[" * 200000 + "]" * 200000)
    for command in ("analyze", "smooth"):
        assert main([command, "--curve", str(path), "--format", "json"]) == 2
        assert json.loads(capsys.readouterr().out)["error"]["type"] == "json"
    assert main(["smooth", "--curve", str(path)]) == 2
    assert capsys.readouterr().err.startswith("error (json): invalid JSON: ")


def test_a_singular_curve_is_a_verification_failure(tmp_path, capsys):
    # (X^2 + Y^2)^2 over Q(zeta_3): every point of the double conic is singular
    def coeff(k):
        return {"conductor": 3, "coords": [str(k), "0"]}

    terms = [([4, 0, 0], 1), ([2, 2, 0], 2), ([0, 4, 0], 1)]
    data = {
        "field": {"conductor": 3},
        "degree": 4,
        "terms": [{"exps": e, "coeff": coeff(k)} for e, k in terms],
    }
    path = tmp_path / "double_conic.json"
    path.write_text(json.dumps(data))
    argv = ["analyze", "--curve", str(path)]
    assert main(argv) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error (singular): ")
    assert main(argv + ["--format", "json"]) == 1
    error = json.loads(capsys.readouterr().out)["error"]
    assert error["type"] == "singular"
    assert error["message"]


def test_verify_paper_json_digest_is_unchanged(capsys):
    assert main(["verify-paper", "--no-oracle", "--format", "json", "--seed", "0"]) == 0
    out = capsys.readouterr().out
    assert (
        hashlib.sha256(out.encode()).hexdigest()
        == "c0f017e6cf49d97d3de1c2ccfd62f5dee8cb9acb1fc16fabc66f8609a013837e"
    )


def test_verify_paper_json_digest_is_unchanged_under_python_O():
    # invariants raise rather than assert, so optimized bytecode gives the
    # same checks and the same bytes
    src = str(Path(quasigalois.__file__).resolve().parent.parent)
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    env = dict(os.environ, PYTHONPATH=path)
    argv = ["verify-paper", "--no-oracle", "--format", "json", "--seed", "0"]
    code = "import sys; from quasigalois.cli import main; sys.exit(main(%r))" % argv
    run = subprocess.run(
        [sys.executable, "-O", "-c", code], env=env, capture_output=True, timeout=300
    )
    assert run.returncode == 0, run.stderr.decode()
    assert (
        hashlib.sha256(run.stdout).hexdigest()
        == "c0f017e6cf49d97d3de1c2ccfd62f5dee8cb9acb1fc16fabc66f8609a013837e"
    )


def _modules_after_main(argv):
    """The sorted ``sys.modules`` names after ``main(argv)`` in a fresh interpreter."""
    src = str(Path(quasigalois.__file__).resolve().parent.parent)
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    env = dict(os.environ, PYTHONPATH=path)
    code = (
        "import contextlib, io, json, sys\n"
        "from quasigalois.cli import main\n"
        "with contextlib.redirect_stdout(io.StringIO()):\n"
        "    status = main(%r)\n"
        "print(json.dumps([status, sorted(sys.modules)]))\n" % argv
    )
    run = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, timeout=300)
    assert run.returncode == 0, run.stderr.decode()
    status, modules = json.loads(run.stdout)
    assert status == 0
    return modules


def test_exact_commands_never_import_scipy(fermat_file):
    # scipy is imported by the oracle's first start, not with the package
    argv = ["verify-paper", "--no-oracle", "--case", "fermat_quartic", "--format", "json"]
    modules = _modules_after_main(argv + ["--seed", "0"])
    assert [m for m in modules if m.split(".")[0] == "scipy"] == []
    # positive control: two oracle starts do load lmder's module
    argv = ["oracle-census", "--curve", fermat_file, "--order", "4", "--starts", "2"]
    assert "scipy.optimize._minpack" in _modules_after_main(argv)


def test_verify_paper_with_the_oracle_agrees_on_its_cheapest_case(capsys):
    # the default verify-paper path: exact checks, then the numeric oracle
    assert main(["verify-paper", "--case", "quartic_symmetric", "--format", "json", "--seed", "0"]) == 0
    payload = json.loads(capsys.readouterr().out)
    (case,) = payload["cases"]
    assert case["passed"] is True
    assert case["oracle"], "the oracle ran no order"
    assert all(o["agrees"] for o in case["oracle"])
    assert case["warnings"] == []


def test_verify_paper_strict_fails_on_an_oracle_mismatch(monkeypatch, capsys):
    # an oracle that disagrees with the exact count is a warning, and a
    # failure under --strict
    def wrong_count(curve, n, starts, seed):
        return OracleCensus(99, [], {"convergence_rate": 1.0})

    monkeypatch.setattr(cli, "numeric_census", wrong_count)
    argv = ["verify-paper", "--case", "quartic_5family", "--format", "json", "--seed", "0"]
    assert main(argv) == 0
    payload = json.loads(capsys.readouterr().out)
    assert (payload["passed"], payload["strict"]) == (True, False)
    (case,) = payload["cases"]
    assert "oracle: order 2 numeric count 99 != exact 5" in case["warnings"]
    assert main(argv + ["--strict"]) == 1
    payload = json.loads(capsys.readouterr().out)
    assert (payload["passed"], payload["strict"]) == (False, True)


def test_verify_paper_text_reports_failed_checks_and_warnings(monkeypatch, capsys):
    # a wrong expectation prints its check line; an oracle that disagrees
    # prints a warning line
    real_make = catalog.make

    def make_with_a_wrong_count(name, **params):
        inst = real_make(name, **params)
        inst.expected = dict(inst.expected, point_count=6)
        return inst

    def wrong_count(curve, n, starts, seed):
        return OracleCensus(99, [], {"convergence_rate": 1.0})

    monkeypatch.setattr(cli, "numeric_census", wrong_count)
    argv = ["verify-paper", "--case", "quartic_5family", "--seed", "0"]
    assert main(argv) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[0].startswith("PASS: ")
    assert "  warning: oracle: order 2 numeric count 99 != exact 5" in lines
    assert lines[-1] == "1/1 cases passed"
    assert not any(line.startswith("  check ") for line in lines)
    monkeypatch.setattr(catalog, "make", make_with_a_wrong_count)
    assert main(argv) == 1
    lines = capsys.readouterr().out.splitlines()
    assert lines[0].startswith("FAIL: ")
    assert "  check point_count: expected 6, got 5" in lines
    assert "  warning: oracle: order 2 numeric count 99 != exact 5" in lines
    assert lines[-1] == "0/1 cases passed"
