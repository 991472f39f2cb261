"""JSON schemas and command-line literals for the toolkit's exact objects.

Schemas (all exact, no floating point):

- rational: string ``"p/q"`` with ``q > 0`` and ``gcd(p, q) = 1``; plain
  ``"p"`` when the denominator is 1.
- field element: ``{"conductor": N, "coords": [rational, ...]}`` with an
  optional ``"lambda_sq"`` element (of the plain conductor-``N`` field) when
  the element lives in a quadratic extension by a formal square root.
- field: ``{"conductor": N}`` with the same optional ``"lambda_sq"``.
- curve: ``{"field": field, "degree": d, "terms": [{"exps": [i, j, k],
  "coeff": element}, ...]}``.
- points and lines: 3-vectors (JSON lists) of field elements.
- census report: ``{"delta_prime": {"2": k, ...}, "delta": {...},
  "points": [{"point": vector, "order": n, "locus": "inner"|"outer",
  "axis": vector}, ...], "pairs": [...], "triples": [...],
  "certification": str}``.
- group: ``{"field": field, "matrices": [3x3 element grid, ...],
  "order": n, "histogram": {"1": 1, ...}}`` — a group export re-parses as a
  generator file.

Serialization is deterministic: term and point lists are sorted by exact
canonical keys, and dictionaries iterate in sorted order, so equal inputs
produce byte-identical JSON.

Command-line vectors use comma-separated exact literals: each entry is a sum
of terms ``p/q``, ``z^k`` (a power of the field's primitive root of unity) or
``p/q*z^k``, e.g. ``"1,z^4,0"`` or ``"3/2 - z^2, 1, 0"``.

Input bounds, the same for a file, a literal and a library call: a curve's
degree is at most ``_MAX_DEGREE`` (8), a field's conductor at most
``_MAX_CONDUCTOR`` (210, a bound on time: see the constant) and an integer
in a rational or a literal has at most ``_MAX_DIGITS`` (1000) digits.  A
larger value raises SchemaError with the path of the offending entry.
``curve_from_json`` also needs degree at least ``PlaneCurve.MIN_DEGREE`` (4)
and raises SchemaError at the curve's ``degree`` below it;
``form_from_json`` takes any degree from 1.
"""

from __future__ import annotations

import re
from fractions import Fraction

from .cyclotomic import FieldContext, FieldElement
from .errors import SchemaError
from .geometry import HomoPoly, PlaneCurve, ProjLine, ProjMatrix, ProjPoint
from .groups import order_histogram

_RATIONAL_RE = re.compile(r"^(-?\d+)(?:/(\d+))?$")
_DIGITS_RE = re.compile(r"\d+")

# The largest curve degree accepted from input.  The paper's curves have
# degree 4 and 6; the smoothness verdict on a dense singular form of degree
# 8 takes about 0.1 s over Q(zeta_3) and 1.3 s over Q(zeta_210).
_MAX_DEGREE = 8
# The largest conductor N accepted from input; it bounds time.  An inversion
# is sum(o_i) - 1 products down a tower of subfields of prime degrees o_i:
# about 0.25 s at the prime 199, the slowest field up to 210, and 3.5 s at
# 1155.  The catalog needs at most 28.
_MAX_CONDUCTOR = 210
# The most digits in one integer of a rational or a literal.  No catalog
# curve, census report or group export has an integer of more than 3 digits;
# past 4300 digits int() itself raises a bare ValueError.
_MAX_DIGITS = 1000


def _check_digits(text, path):
    """Reject text holding an integer of more than _MAX_DIGITS digits."""
    if any(len(run) > _MAX_DIGITS for run in _DIGITS_RE.findall(text)):
        raise SchemaError(
            path, "an integer has more than %d digits" % _MAX_DIGITS
        )


def _check_object(data, path, keys):
    """Require a JSON object whose keys are among `keys`."""
    if not isinstance(data, dict):
        raise SchemaError(path, "expected an object")
    unknown = set(data) - keys
    if unknown:
        raise SchemaError(path, "unknown keys %s" % sorted(unknown))


# ---------------------------------------------------------------------------
# rationals


def rational_to_str(value):
    frac = Fraction(value)
    if frac.denominator == 1:
        return str(frac.numerator)
    return "%d/%d" % (frac.numerator, frac.denominator)


def rational_from_str(text, path="rational"):
    if not isinstance(text, str):
        raise SchemaError(path, "expected a rational string, got %r" % (text,))
    _check_digits(text, path)
    m = _RATIONAL_RE.match(text.strip())
    if m is None:
        raise SchemaError(path, "not a rational 'p/q': %r" % text)
    num = int(m.group(1))
    den = int(m.group(2)) if m.group(2) is not None else 1
    if den == 0:
        raise SchemaError(path, "zero denominator in %r" % text)
    return Fraction(num, den)


# ---------------------------------------------------------------------------
# field contexts and elements


def field_to_json(context):
    data = {"conductor": context.conductor}
    if context.lambda_sq is not None:
        data["lambda_sq"] = element_to_json(context.lambda_sq)
    return data


def _conductor(data, path):
    """The integer (not bool) ``conductor`` of an object at ``path``."""
    conductor = data.get("conductor")
    if not isinstance(conductor, int) or isinstance(conductor, bool):
        raise SchemaError(path + ".conductor", "expected an integer")
    return conductor


def field_from_json(data, path="field"):
    _check_object(data, path, {"conductor", "lambda_sq"})
    conductor = _conductor(data, path)
    if conductor < 1:
        raise SchemaError(path + ".conductor", "conductor must be positive")
    if conductor > _MAX_CONDUCTOR:
        raise SchemaError(
            path + ".conductor", "conductor must be at most %d" % _MAX_CONDUCTOR
        )
    base = FieldContext(conductor)
    if "lambda_sq" not in data:
        return base
    where = path + ".lambda_sq"
    lam = element_from_json(data["lambda_sq"], path=where, context=base)
    if lam.is_zero():
        raise SchemaError(where, "lambda_sq must be nonzero")
    return base.extend_sqrt(lam)


def element_to_json(element):
    ctx = element.context
    data = {
        "conductor": ctx.conductor,
        "coords": [rational_to_str(c) for c in element.coords()],
    }
    if ctx.lambda_sq is not None:
        data["lambda_sq"] = element_to_json(ctx.lambda_sq)
    return data


def element_from_json(data, path="element", context=None):
    """Parse an element; with ``context`` given, also enforce membership."""
    _check_object(data, path, {"conductor", "coords", "lambda_sq"})
    if context is None:
        context = field_from_json(
            {k: v for k, v in data.items() if k != "coords"}, path=path
        )
    else:
        conductor = _conductor(data, path)
        if conductor != context.conductor:
            raise SchemaError(
                path + ".conductor",
                "expected conductor %d, got %r" % (context.conductor, conductor),
            )
        has_ext = context.lambda_sq is not None
        if has_ext != ("lambda_sq" in data):
            raise SchemaError(
                path,
                "element and field disagree about the quadratic extension",
            )
        if has_ext:
            lam = element_from_json(
                data["lambda_sq"],
                path=path + ".lambda_sq",
                context=context.base,
            )
            if lam != context.lambda_sq:
                raise SchemaError(
                    path + ".lambda_sq",
                    "element lives in a different quadratic extension",
                )
    coords = data.get("coords")
    if not isinstance(coords, list):
        raise SchemaError(path + ".coords", "expected a list")
    if len(coords) != context.dim:
        raise SchemaError(
            path + ".coords",
            "expected %d coordinates, got %d" % (context.dim, len(coords)),
        )
    values = [
        rational_from_str(c, path="%s.coords[%d]" % (path, i))
        for i, c in enumerate(coords)
    ]
    return context.from_coords(values)


# ---------------------------------------------------------------------------
# points, lines, matrices


def _vector_to_json(coords):
    return [element_to_json(c) for c in coords]


def _vector_from_json(data, context, path):
    if not isinstance(data, list) or len(data) != 3:
        raise SchemaError(path, "expected a list of 3 field elements")
    return [
        element_from_json(c, path="%s[%d]" % (path, i), context=context)
        for i, c in enumerate(data)
    ]


def point_to_json(point):
    return _vector_to_json(point.coords)


def point_from_json(data, context, path="point"):
    coords = _vector_from_json(data, context, path)
    if all(c.is_zero() for c in coords):
        raise SchemaError(path, "projective point cannot be the zero vector")
    return ProjPoint(context, coords)


def line_to_json(line):
    return _vector_to_json(line.coeffs)


def line_from_json(data, context, path="line"):
    coeffs = _vector_from_json(data, context, path)
    if all(c.is_zero() for c in coeffs):
        raise SchemaError(path, "projective line cannot be the zero vector")
    return ProjLine(context, coeffs)


def matrix_to_json(matrix):
    return [_vector_to_json(row) for row in matrix.rows]


def matrix_from_json(data, context, path="matrix"):
    if not isinstance(data, list) or len(data) != 3:
        raise SchemaError(path, "expected a list of 3 rows")
    return ProjMatrix(
        context,
        [
            _vector_from_json(row, context, "%s[%d]" % (path, i))
            for i, row in enumerate(data)
        ],
    )


# ---------------------------------------------------------------------------
# curves


def curve_to_json(curve_or_form):
    form = getattr(curve_or_form, "form", curve_or_form)
    terms = [
        {"exps": list(exps), "coeff": element_to_json(coeff)}
        for exps, coeff in sorted(form.terms.items(), reverse=True)
    ]
    return {
        "field": field_to_json(form.context),
        "degree": form.degree,
        "terms": terms,
    }


def form_from_json(data, path="curve"):
    """Parse the curve schema into a homogeneous form (no smoothness gate)."""
    _check_object(data, path, {"field", "degree", "terms"})
    if "field" not in data:
        raise SchemaError(path + ".field", "missing")
    context = field_from_json(data["field"], path=path + ".field")
    degree = data.get("degree")
    if not isinstance(degree, int) or isinstance(degree, bool) or degree < 1:
        raise SchemaError(path + ".degree", "expected a positive integer")
    if degree > _MAX_DEGREE:
        raise SchemaError(path + ".degree", "must be at most %d" % _MAX_DEGREE)
    raw_terms = data.get("terms")
    if not isinstance(raw_terms, list) or not raw_terms:
        raise SchemaError(path + ".terms", "expected a nonempty list")
    terms = {}
    for idx, item in enumerate(raw_terms):
        tpath = "%s.terms[%d]" % (path, idx)
        if not isinstance(item, dict) or set(item) != {"exps", "coeff"}:
            raise SchemaError(tpath, "expected keys exps and coeff")
        exps = item["exps"]
        if (
            not isinstance(exps, list)
            or len(exps) != 3
            or not all(
                isinstance(e, int) and not isinstance(e, bool) and e >= 0
                for e in exps
            )
        ):
            raise SchemaError(
                tpath + ".exps", "expected 3 non-negative integers"
            )
        if sum(exps) != degree:
            raise SchemaError(
                tpath + ".exps",
                "exponents %r do not sum to the degree %d" % (exps, degree),
            )
        key = tuple(exps)
        if key in terms:
            raise SchemaError(tpath + ".exps", "duplicate exponent %r" % exps)
        terms[key] = element_from_json(
            item["coeff"], path=tpath + ".coeff", context=context
        )
    form = HomoPoly(context, degree, terms)
    if form.is_zero():
        raise SchemaError(path + ".terms", "all coefficients are zero")
    return form


def curve_from_json(data, path="curve"):
    """Parse the curve schema and verify smoothness (raises NotSmooth)."""
    form = form_from_json(data, path)
    if form.degree < PlaneCurve.MIN_DEGREE:
        raise SchemaError(
            path + ".degree", "a curve needs degree at least %d" % PlaneCurve.MIN_DEGREE
        )
    return PlaneCurve(form)


# ---------------------------------------------------------------------------
# census reports and groups


def sorted_records(report):
    """The report's quasi-Galois records in canonical point order."""
    records = [r for r in report.records.values() if r.order >= 2]
    return sorted(records, key=lambda r: r.point.key())


def _record_to_json(rec):
    """One point record: its point, order, locus and axis (null for order 1)."""
    return {
        "point": point_to_json(rec.point),
        "order": rec.order,
        "locus": rec.kind,
        "axis": None if rec.generator is None else line_to_json(rec.generator.axis),
    }


def report_to_json(report):
    points = [_record_to_json(rec) for rec in sorted_records(report)]
    pairs = []
    for info in report.pairs:
        keyed = sorted(
            (info.rec1.point, info.rec2.point), key=lambda p: p.key()
        )
        pairs.append(
            {
                "points": [point_to_json(p) for p in keyed],
                "order": info.n,
                "third": point_to_json(info.third),
            }
        )
    pairs.sort(key=lambda d: str(d["points"]))
    triples = []
    for tri in report.triples:
        keyed = sorted(tri, key=lambda p: p.key())
        triples.append([point_to_json(p) for p in keyed])
    triples.sort(key=str)
    return {
        "delta_prime": {
            str(n): report.delta_prime[n] for n in sorted(report.delta_prime)
        },
        "delta": {str(n): report.delta[n] for n in sorted(report.delta)},
        "points": points,
        "pairs": pairs,
        "triples": triples,
        "certification": report.certification,
    }


def group_to_json(group):
    matrices = sorted(group, key=lambda m: m.canonical_key())
    histogram = order_histogram(group)
    return {
        "field": field_to_json(matrices[0].context),
        "matrices": [matrix_to_json(m) for m in matrices],
        "order": len(group),
        "histogram": {str(n): histogram[n] for n in sorted(histogram)},
    }


def generators_from_json(data, path="generators"):
    """Parse a generator file: the group schema, ignoring order/histogram.

    Every matrix must be invertible, as ``group_closure`` requires.
    """
    _check_object(data, path, {"field", "matrices", "order", "histogram"})
    if "field" not in data:
        raise SchemaError(path + ".field", "missing")
    context = field_from_json(data["field"], path=path + ".field")
    raw = data.get("matrices")
    if not isinstance(raw, list) or not raw:
        raise SchemaError(path + ".matrices", "expected a nonempty list")
    matrices = []
    for i, m in enumerate(raw):
        where = "%s.matrices[%d]" % (path, i)
        matrix = matrix_from_json(m, context, path=where)
        if matrix.det().is_zero():
            raise SchemaError(where, "a generator must be invertible")
        matrices.append(matrix)
    return matrices


# ---------------------------------------------------------------------------
# command-line literals


_TERM_RE = re.compile(
    r"""
    (?P<sign>[+-])?\s*
    (?:
        (?P<coef>\d+(?:/\d+)?)\s*(?:\*\s*(?P<pz>z(?:\^(?P<pk>\d+))?))?
        |
        (?P<z>z(?:\^(?P<k>\d+))?)
    )
    \s*
    """,
    re.VERBOSE,
)


def scalar_from_literal(text, context, path="literal"):
    """Parse one exact scalar literal: sums of p/q, z^k and p/q*z^k terms."""
    s = text.strip()
    if not s:
        raise SchemaError(path, "empty literal")
    _check_digits(s, path)
    total = context.zero()
    pos = 0
    first = True
    while pos < len(s):
        m = _TERM_RE.match(s, pos)
        if m is None or m.end() == pos:
            raise SchemaError(
                path, "cannot parse %r at position %d" % (text, pos)
            )
        sign = m.group("sign")
        if sign is None and not first:
            raise SchemaError(
                path, "missing + or - between terms in %r" % text
            )
        factor = -1 if sign == "-" else 1
        if m.group("coef") is not None:
            try:
                value = Fraction(m.group("coef")) * factor
            except ZeroDivisionError:
                raise SchemaError(
                    path, "zero denominator in %r" % m.group("coef")
                ) from None
            term = context.from_rational(value)
            if m.group("pz") is not None:
                k = int(m.group("pk") or 1) % context.conductor
                term = term * context.zeta() ** k
        else:
            k = int(m.group("k") or 1) % context.conductor
            term = context.zeta() ** k
            if factor < 0:
                term = -term
        total = total + term
        pos = m.end()
        first = False
    return total


def vector_from_literal(text, context, path="vector"):
    """Parse a comma-separated 3-vector of exact scalar literals."""
    parts = text.split(",")
    if len(parts) != 3:
        raise SchemaError(
            path, "expected 3 comma-separated entries, got %d" % len(parts)
        )
    coords = [
        scalar_from_literal(p, context, path="%s[%d]" % (path, i))
        for i, p in enumerate(parts)
    ]
    if all(c.is_zero() for c in coords):
        raise SchemaError(path, "all three entries are zero")
    return coords


def point_from_literal(text, context, path="point"):
    return ProjPoint(context, vector_from_literal(text, context, path))


def line_from_literal(text, context, path="line"):
    return ProjLine(context, vector_from_literal(text, context, path))
