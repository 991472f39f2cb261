"""Command-line front end for the exact quasi-Galois toolkit.

Subcommands
-----------
analyze        census a curve from JSON seeds and report counts, pairs,
               triples and the certification verdict
smooth         exact smoothness test of a homogeneous form (no other gates)
point          classify a single point: cyclic-group order, locus, axis
profile        intersection profile of a line against the curve
closure        grow the matrix group generated by a JSON list of matrices
verify-paper   run the built-in catalog one case after another: exact checks
               first, then numeric cross-checks (warnings unless --strict)
oracle-census  floating-point multistart search for centers, as a heuristic
               cross-check of the exact census (never a certificate)

Exit codes: 0 all requested checks pass; 1 a verification failed (for
``smooth``: the curve is singular); 2 malformed input, with field
diagnostics.  With ``--format json`` errors are emitted as JSON objects.

Input bounds: a curve's degree is at most 8, a field's conductor at most
210 (a bound on time: one field inversion is sum(o_i) - 1 products down a
tower of subfields of prime degrees o_i, about 0.25 s at the prime 199 and
3.5 s at 1155) and an integer in a file or literal at most 1000 digits (the
``serialize`` constants ``_MAX_DEGREE``, ``_MAX_CONDUCTOR`` and
``_MAX_DIGITS``); ``--starts`` is at most 10^6 (the starts are drawn up
front, 64 bytes each) and ``--cap`` at most 10^5.  A larger value exits 2
with its path.  Every command except ``smooth`` needs a curve of degree at
least 4 (``PlaneCurve.MIN_DEGREE``); a lower degree exits 2 at
``curve.degree``.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

from . import catalog
from .census import CERTIFICATION_BY_DEGREE, census
from .errors import NotSmooth, QuasiGaloisError, SchemaError
from .geometry import ProjPoint, line_profile
from .groups import group_closure
from .homology import classify_point
from .oracle import numeric_census
from .serialize import (
    _check_object,
    _record_to_json,
    curve_from_json,
    form_from_json,
    generators_from_json,
    group_to_json,
    line_from_literal,
    point_from_json,
    point_from_literal,
    report_to_json,
    sorted_records,
)
from .smoothness import is_smooth

_MAX_STARTS = 10**6
_MAX_CAP = 10**5

# Extra multistart attempts for curves whose centers converge rarely.
_ORACLE_STARTS = {"quartic_klein": 800, "sextic_delta4": 600}
_ORACLE_DEFAULT_STARTS = 400


class _InvalidJSON(Exception):
    """A file that json.load refused."""


def _load_json(path):
    with open(path, "r", encoding="utf-8") as handle:
        try:
            return json.load(handle)
        except (ValueError, RecursionError) as exc:
            # bad syntax or UTF-8, int() past its digit limit, or arrays and
            # objects nested deeper than the decoder's recursion allows
            raise _InvalidJSON(str(exc)) from None


def _print_json(obj):
    print(json.dumps(obj, indent=2, sort_keys=True))


def _fail(fmt, code, kind, message, path=None):
    if fmt == "json":
        error = {"type": kind, "message": message}
        if path is not None:
            error["path"] = path
        _print_json({"error": error})
    else:
        print("error (%s): %s" % (kind, message), file=sys.stderr)
    return code


def _load_curve(args):
    return curve_from_json(_load_json(args.curve))


def _default_seeds(context):
    return tuple(
        ProjPoint.from_ints(context, v)
        for v in ((1, 0, 0), (0, 1, 0), (0, 0, 1))
    )


def _load_seeds(path, context):
    data = _load_json(path)
    if isinstance(data, dict):
        _check_object(data, "seeds", {"points"})
        data = data.get("points")
    if not isinstance(data, list) or not data:
        raise SchemaError("seeds", "expected a nonempty list of points")
    return tuple(
        point_from_json(p, context, path="seeds[%d]" % i)
        for i, p in enumerate(data)
    )


# ---------------------------------------------------------------------------
# analyze


def _render_report_text(report):
    lines = []
    lines.append("degree %d" % report.degree)
    lines.append(
        "δ′: "
        + "  ".join(
            "%d → %d" % (n, report.delta_prime[n])
            for n in sorted(report.delta_prime)
        )
    )
    if report.delta:
        lines.append(
            "δ (inner): "
            + "  ".join(
                "%d → %d" % (n, report.delta[n]) for n in sorted(report.delta)
            )
        )
    records = sorted_records(report)
    lines.append(
        "quasi-Galois points %d, pairs %d, triples %d"
        % (len(records), len(report.pairs), len(report.triples))
    )
    lines.append("certification: %s" % report.certification)
    for rec in records:
        lines.append(
            "  %r  order %d  %s  axis %r"
            % (
                rec.point,
                rec.order,
                rec.kind,
                rec.generator.axis,
            )
        )
    return "\n".join(lines)


def _check_cap(cap):
    if not 1 <= cap <= _MAX_CAP:
        raise SchemaError("--cap", "must be an integer from 1 to %d" % _MAX_CAP)


def _cmd_analyze(args):
    _check_cap(args.cap)
    curve = _load_curve(args)
    if args.seeds:
        seeds = _load_seeds(args.seeds, curve.form.context)
    else:
        seeds = _default_seeds(curve.form.context)
    report = census(curve, seeds, cap=args.cap)
    if args.format == "json":
        _print_json(report_to_json(report))
    else:
        print(_render_report_text(report))
    return 0


# ---------------------------------------------------------------------------
# smooth


def _cmd_smooth(args):
    form = form_from_json(_load_json(args.curve))
    smooth = is_smooth(form)
    if args.format == "json":
        _print_json({"smooth": smooth})
    else:
        print("smooth" if smooth else "singular")
    return 0 if smooth else 1


# ---------------------------------------------------------------------------
# point


def _cmd_point(args):
    curve = _load_curve(args)
    ctx = curve.form.context
    point = point_from_literal(args.point, ctx)
    record = classify_point(curve.form, point)
    if args.format == "json":
        _print_json(_record_to_json(record))
    else:
        print("order %d, %s" % (record.order, record.kind))
        if record.generator is not None:
            print("axis %r" % record.generator.axis)
    return 0


# ---------------------------------------------------------------------------
# profile


def _cmd_profile(args):
    curve = _load_curve(args)
    line = line_from_literal(args.line, curve.form.context)
    profile = line_profile(curve.form, line)
    if args.format == "json":
        _print_json({"profile": list(profile), "sum": sum(profile)})
    else:
        print("profile %s (sum %d)" % (list(profile), sum(profile)))
    return 0


# ---------------------------------------------------------------------------
# closure


def _cmd_closure(args):
    _check_cap(args.cap)
    curve = _load_curve(args)
    generators = generators_from_json(_load_json(args.generators))
    for i, matrix in enumerate(generators):
        if not matrix.context.compatible(curve.context):
            raise SchemaError(
                "generators.matrices[%d]" % i,
                "matrix field does not match the curve field",
            )
    group = group_closure(generators, cap=args.cap, curve=curve)
    summary = group_to_json(group)
    if args.format == "json":
        _print_json(summary)
    else:
        print("order %d" % summary["order"])
        print(
            "order histogram: "
            + "  ".join(
                "%s → %d" % (n, summary["histogram"][n])
                for n in sorted(summary["histogram"], key=int)
            )
        )
    return 0


# ---------------------------------------------------------------------------
# oracle-census


def _cmd_oracle_census(args):
    if args.seed < 0:
        raise SchemaError("--seed", "must be a nonnegative integer")
    if not 0 <= args.starts <= _MAX_STARTS:
        raise SchemaError("--starts", "must be an integer from 0 to %d" % _MAX_STARTS)
    if args.order < 2:
        raise SchemaError("--order", "must be an integer >= 2")
    curve = _load_curve(args)
    if args.order > curve.degree:
        raise SchemaError("--order", "must be at most the degree %d" % curve.degree)
    result = numeric_census(curve, args.order, starts=args.starts, seed=args.seed)
    payload = {
        "count": result.count,
        "centers": [
            [[c.real, c.imag] for c in center] for center in result.centers
        ],
        "diagnostics": result.diagnostics,
    }
    if args.format == "json":
        _print_json(payload)
    else:
        diag = result.diagnostics
        print(
            "count %d (order %d; converged %d/%d, worst cluster radius %.2e)"
            % (
                result.count,
                args.order,
                diag["converged"],
                diag["starts"],
                diag["worst_cluster_radius"],
            )
        )
        for center in result.centers:
            print(
                "  ("
                + " : ".join(
                    "%.6f%+.6fj" % (round(c.real, 6) + 0.0, round(c.imag, 6) + 0.0)
                    for c in center
                )
                + ")"
            )
    return 0


# ---------------------------------------------------------------------------
# verify-paper


def _verify_cases():
    cases = {name: {"name": name} for name in catalog.entry_names()}
    for a in catalog.FERMAT_EQUIVALENT_XY:
        cases["quartic_xy_fermat_a%d" % a] = {"name": "quartic_xy", "a": a}
    return dict(sorted(cases.items()))


def _case_summary(instance, evaluation):
    if "fermat_equivalent" in instance.flags:
        return "exact coordinate change onto the pure fourth-power form"
    report = evaluation.report
    low = CERTIFICATION_BY_DEGREE[report.degree][0]
    parts = [
        "δ′[%d]=%d" % (n, report.delta_prime[n])
        for n in sorted(report.delta_prime)
        if n >= low and report.delta_prime[n] > 0
    ]
    closures = evaluation.groups
    if "g3" in closures:
        parts.append("closure %d" % len(closures["g3"]))
    elif "generators" in closures:
        parts.append("closure %d" % len(closures["generators"]))
    if "aut" in closures:
        parts.append("with extra automorphism %d" % len(closures["aut"]))
    return ", ".join(parts)


def _oracle_checks(case_name, instance, evaluation, seed):
    report = evaluation.report
    if report is None:
        return []
    base_starts = _ORACLE_STARTS.get(case_name, _ORACLE_DEFAULT_STARTS)
    results = []
    for n in sorted(report.delta_prime):
        exact = sum(
            1 for r in report.records.values() if r.order % n == 0
        )
        starts = base_starts if exact else min(base_starts, 150)
        numeric = numeric_census(
            instance.curve, n, starts=starts, seed=seed
        )
        results.append(
            {
                "order": n,
                "exact": exact,
                "numeric": numeric.count,
                "agrees": numeric.count == exact,
                "convergence_rate": numeric.diagnostics["convergence_rate"],
            }
        )
    return results


def _run_case(case_name, spec, seed, with_oracle):
    params = {k: v for k, v in spec.items() if k != "name"}
    instance = catalog.make(spec["name"], **params)
    evaluation = catalog.evaluate(instance)
    checks = [
        {
            "name": c.name,
            "passed": c.passed,
            "expected": _jsonable(c.expected),
            "actual": _jsonable(c.actual),
        }
        for c in evaluation.checks
    ]
    oracle_results = (
        _oracle_checks(case_name, instance, evaluation, seed)
        if with_oracle
        else []
    )
    warnings = [
        "oracle: order %d numeric count %d != exact %d"
        % (o["order"], o["numeric"], o["exact"])
        for o in oracle_results
        if not o["agrees"]
    ]
    return {
        "name": case_name,
        "passed": evaluation.passed,
        "summary": _case_summary(instance, evaluation),
        "checks": checks,
        "oracle": oracle_results,
        "warnings": warnings,
    }


def _jsonable(value):
    if isinstance(value, dict):
        return {str(k): _jsonable(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_jsonable(v) for v in value]
    if isinstance(value, (str, int, float, bool)) or value is None:
        return value
    return repr(value)


def _cmd_verify_paper(args):
    if args.seed < 0:
        raise SchemaError("--seed", "must be a nonnegative integer")
    cases = _verify_cases()
    if args.list:
        if args.format == "json":
            _print_json(list(cases))
        else:
            for name in cases:
                print(name)
        return 0
    if args.case:
        unknown = [c for c in args.case if c not in cases]
        if unknown:
            raise SchemaError(
                "--case",
                "unknown case %s; try --list" % ", ".join(sorted(unknown)),
            )
        selected = {c: cases[c] for c in sorted(set(args.case))}
    else:
        selected = cases
    results = [
        _run_case(name, spec, args.seed, not args.no_oracle)
        for name, spec in selected.items()
    ]

    strict_failures = [
        r["name"] for r in results if args.strict and r["warnings"]
    ]
    exact_failures = [r["name"] for r in results if not r["passed"]]
    passed = not exact_failures and not strict_failures
    if args.format == "json":
        _print_json(
            {
                "seed": args.seed,
                "strict": args.strict,
                "passed": passed,
                "cases": results,
            }
        )
    else:
        single = len(results) == 1
        for r in results:
            ok = r["passed"] and not (args.strict and r["warnings"])
            status = "PASS" if ok else "FAIL"
            label = status if single else "%s %s" % (status, r["name"])
            print("%s: %s" % (label, r["summary"]))
            if not r["passed"]:
                for c in r["checks"]:
                    if not c["passed"]:
                        print(
                            "  check %s: expected %r, got %r"
                            % (c["name"], c["expected"], c["actual"])
                        )
            for w in r["warnings"]:
                print("  warning: %s" % w)
        print(
            "%d/%d cases passed" % (sum(r["passed"] for r in results), len(results))
        )
    return 0 if passed else 1


# ---------------------------------------------------------------------------
# parser


def _add_format(parser):
    parser.add_argument(
        "--format",
        choices=("text", "json"),
        default="text",
        help="output format (default text)",
    )


def build_parser():
    parser = argparse.ArgumentParser(
        prog="qgp",
        description="Exact census of quasi-Galois points of smooth plane "
        "curves over cyclotomic fields.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("analyze", help="census a curve from seed points")
    p.add_argument("--curve", required=True, help="curve JSON file")
    p.add_argument("--seeds", help="seed points JSON file (default: vertices)")
    p.add_argument("--cap", type=int, default=10000, help="orbit size cap")
    _add_format(p)
    p.set_defaults(func=_cmd_analyze)

    p = sub.add_parser("smooth", help="exact smoothness test")
    p.add_argument("--curve", required=True, help="curve JSON file")
    _add_format(p)
    p.set_defaults(func=_cmd_smooth)

    p = sub.add_parser("point", help="classify one projective point")
    p.add_argument("--curve", required=True, help="curve JSON file")
    p.add_argument(
        "--point",
        required=True,
        help='exact literal, e.g. "1,z^4,0" or "3/2,-1,0"',
    )
    _add_format(p)
    p.set_defaults(func=_cmd_point)

    p = sub.add_parser("profile", help="line intersection profile")
    p.add_argument("--curve", required=True, help="curve JSON file")
    p.add_argument("--line", required=True, help='exact literal, e.g. "0,0,1"')
    _add_format(p)
    p.set_defaults(func=_cmd_profile)

    p = sub.add_parser("closure", help="matrix group closure")
    p.add_argument("--curve", required=True, help="curve JSON file")
    p.add_argument("--generators", required=True, help="generators JSON file")
    p.add_argument("--cap", type=int, default=1000, help="group size cap")
    _add_format(p)
    p.set_defaults(func=_cmd_closure)

    p = sub.add_parser(
        "verify-paper", help="run the built-in verification catalog"
    )
    p.add_argument("--case", action="append", help="run only this case")
    p.add_argument("--list", action="store_true", help="list case names")
    p.add_argument(
        "--strict",
        action="store_true",
        help="numeric cross-check mismatches fail instead of warning",
    )
    p.add_argument(
        "--no-oracle",
        action="store_true",
        help="skip the numeric cross-checks entirely",
    )
    p.add_argument("--seed", type=int, default=0, help="oracle RNG seed")
    _add_format(p)
    p.set_defaults(func=_cmd_verify_paper)

    p = sub.add_parser(
        "oracle-census",
        help="floating-point multistart center search (heuristic)",
    )
    p.add_argument("--curve", required=True, help="curve JSON file")
    p.add_argument("--order", required=True, type=int, help="element order n")
    p.add_argument("--seed", type=int, default=0, help="RNG seed")
    p.add_argument(
        "--starts", type=int, default=20000, help="number of random starts"
    )
    _add_format(p)
    p.set_defaults(func=_cmd_oracle_census)

    return parser


def _run(args):
    """Run a subcommand, mapping its errors to exit codes but a closed stdout."""
    fmt = getattr(args, "format", "text")
    try:
        return args.func(args)
    except BrokenPipeError:
        raise
    except SchemaError as exc:
        return _fail(fmt, 2, "schema", exc.message, path=exc.path)
    except _InvalidJSON as exc:
        return _fail(fmt, 2, "json", "invalid JSON: %s" % exc)
    except OSError as exc:
        return _fail(fmt, 2, "io", str(exc))
    except NotSmooth as exc:
        return _fail(fmt, 1, "singular", str(exc))
    except QuasiGaloisError as exc:
        return _fail(fmt, 1, type(exc).__name__, str(exc))


def main(argv=None):
    args = build_parser().parse_args(argv)
    try:
        code = _run(args)
        sys.stdout.flush()
        return code
    except BrokenPipeError as exc:
        # stdout is closed: report on stderr, and send what is still
        # buffered to the null device so the final flush is quiet
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return _fail("text", 2, "io", str(exc))


if __name__ == "__main__":
    sys.exit(main())
