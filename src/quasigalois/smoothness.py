"""Exact smoothness decision for plane projective curves.

A ternary form F of degree d >= 1 in characteristic zero defines a smooth
curve iff its three partial derivatives have no common projective zero over
the algebraic closure (Euler's relation makes F itself vanish there).  The
plane splits into the affine chart Z = 1 and the line Z = 0.

On the chart the three dehomogenized partials form a bivariate system.  The
decision runs: (1) a nonzero-constant shortcut, (2) a full bivariate gcd
(nonconstant gcd means a whole common component, hence singular), (3) the
elimination of y by resultants — every common zero's x-coordinate is a root
of each formal resultant because the resultant lies in the ideal generated by
the pair — giving a finite candidate set w(x) = 0, and (4) a dynamic
evaluation (splitting) gcd of the system over K[x]/(squarefree part of w),
which decides for every candidate root at once whether a common y-root
exists, splitting the modulus whenever a leading coefficient is a zero
divisor.  When all pairwise resultants vanish identically (pairwise common
factors despite trivial triple gcd), resultants against combinations
g2 + t*g3 are used; only finitely many integers t can fail, so a nonzero
eliminant is always found.

On the line Z = 0 the restricted partials are binary forms, and common zeros
are decided by a univariate gcd plus a separate test at the point (0:1).
"""

from __future__ import annotations

from .errors import InvariantViolation
from .unipoly import UniPoly, poly_gcd, poly_xgcd, resultant, squarefree_part

# ---------------------------------------------------------------------------
# bivariate polynomials: dense lists over y whose entries are UniPoly in x
# ---------------------------------------------------------------------------


def _biv_trim(p):
    while p and p[-1].is_zero():
        p.pop()
    return p


def _biv_from_form_z1(form):
    """Dehomogenize a ternary form at Z = 1 into a y-list of x-polynomials."""
    ctx = form.context
    if form.is_zero():
        return []
    dy = max((e[1] for e in form.terms), default=0)
    cols = [{} for _ in range(dy + 1)]
    for (i, j, _k), c in form.terms.items():
        cols[j][i] = cols[j].get(i, ctx.zero()) + c
    out = []
    for col in cols:
        if col:
            n = max(col) + 1
            coeffs = [col.get(i, ctx.zero()) for i in range(n)]
            out.append(UniPoly(ctx, coeffs))
        else:
            out.append(UniPoly.zero(ctx))
    return _biv_trim(out)


def _biv_deg_y(p):
    return len(p) - 1


def _biv_deg_x(p):
    return max((c.degree() for c in p), default=-1)


def _biv_content(p):
    acc = UniPoly.zero(p[0].context)
    for c in p:
        acc = poly_gcd(acc, c) if not acc.is_zero() else (c.monic() if not c.is_zero() else acc)
        if acc.degree() == 0:
            break
    return acc


def _biv_exact_div_content(p, u):
    if u.degree() == 0:
        inv = u.coeffs[0].inverse()
        return [c * inv for c in p]
    return [c.exact_div(u) if not c.is_zero() else c for c in p]


def _biv_primitive_part(p):
    return _biv_exact_div_content(p, _biv_content(p))


def _biv_prem(f, g):
    """Pseudo-remainder of f by g with respect to y (associate is enough)."""
    dg = len(g) - 1
    lcg = g[-1]
    r = list(f)
    while len(r) - 1 >= dg and r:
        top = r[-1]
        if top.is_zero():
            r.pop()
            continue
        r = [c * lcg for c in r]
        off = len(r) - 1 - dg
        for j in range(dg + 1):
            r[off + j] = r[off + j] - top * g[j]
        # the leading term cancels exactly
        r.pop()
        _biv_trim(r)
    return r


def _biv_gcd(f, g):
    """Gcd in K[x][y] via the primitive polynomial remainder sequence."""
    if not f:
        return list(g)
    if not g:
        return list(f)
    cf, cg = _biv_content(f), _biv_content(g)
    cont = poly_gcd(cf, cg)
    f = _biv_exact_div_content(list(f), cf)
    g = _biv_exact_div_content(list(g), cg)
    if len(f) < len(g):
        f, g = g, f
    while True:
        if not g:
            h = f
            break
        if len(g) == 1:
            # primitive with a single y-coefficient: a unit of K[x]
            h = [g[0]]
            break
        r = _biv_prem(f, g)
        if not r:
            h = g
            break
        r = _biv_primitive_part(r)
        f, g = g, r
    h = _biv_primitive_part(h)
    if cont.degree() > 0 or not cont.coeffs[0].is_one():
        h = [c * cont for c in h]
    return h


def _biv_gcd_list(polys):
    acc = list(polys[0])
    for p in polys[1:]:
        acc = _biv_gcd(acc, p)
        if len(acc) == 1 and acc[0].degree() == 0:
            break
    return acc


def _biv_add_scaled(f, g, t):
    """f + t*g for an integer t."""
    if not f and not g:
        return []
    ctx = (f or g)[0].context
    s = ctx.from_int(t)
    n = max(len(f), len(g))
    zero = UniPoly.zero(ctx)
    out = []
    for i in range(n):
        a = f[i] if i < len(f) else zero
        b = g[i] if i < len(g) else zero
        out.append(a + b * s)
    return _biv_trim(out)


# ---------------------------------------------------------------------------
# resultant with respect to y, by evaluation and interpolation
# ---------------------------------------------------------------------------


def _lagrange_interpolate(ctx, nodes, values):
    """The unique K[x] polynomial through (node, value) pairs."""
    acc = UniPoly.zero(ctx)
    one = ctx.one()
    for i, (ai, vi) in enumerate(zip(nodes, values)):
        if vi.is_zero():
            continue
        num = UniPoly.constant(ctx, one)
        den = one
        for j, aj in enumerate(nodes):
            if j == i:
                continue
            num = num * UniPoly(ctx, [-aj, one])
            den = den * (ai - aj)
        acc = acc + num * (vi * den.inverse())
    return acc


def _res_y(p, q):
    """Formal resultant of two y-polynomials with K[x] coefficients.

    Computed by specializing x at integer nodes where neither leading
    coefficient vanishes (degree is then preserved, so the specialization of
    the resultant equals the resultant of the specializations) and
    interpolating; the degree bound is dy(p)*dx(q) + dy(q)*dx(p).
    """
    ctx = p[0].context
    bound = _biv_deg_y(p) * max(_biv_deg_x(q), 0) + _biv_deg_y(q) * max(
        _biv_deg_x(p), 0
    )
    lcp, lcq = p[-1], q[-1]
    nodes, values = [], []
    a = 0
    sign = 1
    while len(nodes) < bound + 1:
        x0 = ctx.from_int(a * sign)
        if a == 0:
            a = 1
        elif sign == 1:
            sign = -1
        else:
            sign = 1
            a += 1
        if lcp.evaluate(x0).is_zero() or lcq.evaluate(x0).is_zero():
            continue
        ps = UniPoly(ctx, [c.evaluate(x0) for c in p])
        qs = UniPoly(ctx, [c.evaluate(x0) for c in q])
        nodes.append(x0)
        values.append(resultant(ps, qs))
    return _lagrange_interpolate(ctx, nodes, values)


# ---------------------------------------------------------------------------
# dynamic evaluation over K[x]/(w): decide common y-roots over all roots of w
# ---------------------------------------------------------------------------


class _Split(Exception):
    """A zero divisor forced the modulus to split into two coprime factors."""

    def __init__(self, u, v):
        self.u = u
        self.v = v


def _d5_trim(p, m):
    """Reduce mod m and trim until the leading coefficient is a unit.

    Raises _Split when a leading coefficient is a proper zero divisor.
    """
    p = [c % m for c in p]
    while p:
        c = p[-1]
        if c.is_zero():
            p.pop()
            continue
        u = poly_gcd(c, m)
        if u.degree() == 0:
            return p
        raise _Split(u, m.exact_div(u))
    return p


def _d5_modinv(c, m):
    d, s, _t = poly_xgcd(c, m)
    if d.degree() == 0:
        return s % m
    raise _Split(d, m.exact_div(d))


def _d5_mod(f, g, m):
    """Remainder of f by g in (K[x]/m)[y]; lc(g) must be a unit mod m."""
    inv = _d5_modinv(g[-1], m)
    r = list(f)
    dg = len(g) - 1
    for i in range(len(r) - 1, dg - 1, -1):
        c = (r[i] * inv) % m
        if c.is_zero():
            continue
        for j in range(dg + 1):
            r[i - dg + j] = (r[i - dg + j] - c * g[j]) % m
    return r[:dg]


def _d5_gcd(f, g, m):
    while g:
        r = _d5_mod(f, g, m)
        f, g = g, _d5_trim(r, m)
    return f


def _branch_has_common_zero(gs, m):
    """Over x-roots of m: does some root a admit b with all g(a, b) = 0?"""
    polys = []
    for g in gs:
        p = _d5_trim(list(g), m)
        if p:
            polys.append(p)
    if not polys:
        return True  # every system polynomial vanishes identically at these roots
    acc = polys[0]
    for q in polys[1:]:
        acc = _d5_gcd(acc, q, m)
        if not acc:
            # can only happen transiently; re-trim guarantees nonzero here
            raise InvariantViolation("gcd collapsed to zero in a branch")
        if len(acc) == 1:
            break
    # leading coefficient of acc is a unit mod m, so the y-degree of the gcd
    # is the same at every root of m
    return len(acc) - 1 >= 1


def _d5_any_common_zero(gs, w):
    stack = [w]
    while stack:
        m = stack.pop()
        try:
            if _branch_has_common_zero(gs, m):
                return True
        except _Split as s:
            stack.append(s.u)
            stack.append(s.v)
    return False


# ---------------------------------------------------------------------------
# chart decision
# ---------------------------------------------------------------------------


def _chart_has_common_zero(gs):
    """Common zero in the affine plane of a list of nonzero bivariate polys?"""
    # nonzero constant in the system: certainly no common zero
    for g in gs:
        if len(g) == 1 and g[0].degree() == 0:
            return False
    if len(gs) == 1:
        return True  # one nonconstant polynomial always has zeros
    h = _biv_gcd_list(gs)
    if _biv_deg_y(h) > 0 or _biv_deg_x(h) > 0:
        return True  # common component
    elims = []
    positive = [g for g in gs if len(g) > 1]
    for g in gs:
        if len(g) == 1:
            elims.append(g[0])  # nonconstant x-polynomial: a direct eliminant
    for i in range(len(positive)):
        for j in range(i + 1, len(positive)):
            r = _res_y(positive[i], positive[j])
            if not r.is_zero():
                elims.append(r)
    if not elims:
        # all pairwise resultants vanish; mix the last two polynomials.  An
        # irreducible factor of positive[0] can divide positive[1] + t *
        # positive[2] for at most one integer t, so few candidates fail.
        base = positive[0]
        for t in range(_biv_deg_y(base) + 2):
            q = _biv_add_scaled(positive[1], positive[2], t)
            if not q:
                continue
            if len(q) == 1:
                if q[0].degree() == 0:
                    return False  # a unit lies in the ideal
                r = q[0]
            else:
                r = _res_y(base, q)
            if not r.is_zero():
                elims.append(r)
                break
        if not elims:
            raise InvariantViolation("failed to build a nonzero eliminant")
    w = elims[0]
    for r in elims[1:]:
        w = poly_gcd(w, r)
        if w.degree() == 0:
            break
    if w.degree() == 0:
        return False  # no candidate x-coordinate at all
    return _d5_any_common_zero(gs, squarefree_part(w))


def _infinity_has_common_zero(partials, degree):
    """Common zero of the partials on the line Z = 0?"""
    ctx = partials[0].context
    e = degree - 1
    restrictions = []
    for p in partials:
        col = {}
        for (i, j, k), c in p.terms.items():
            if k == 0:
                col[j] = col.get(j, ctx.zero()) + c
        coeffs = [col.get(j, ctx.zero()) for j in range(e + 1)]
        restrictions.append(UniPoly(ctx, coeffs))
    nonzero = [b for b in restrictions if not b.is_zero()]
    if not nonzero:
        return True  # every point at infinity kills all partials
    # points (1 : y): a common root of the dehomogenizations
    acc = nonzero[0]
    for b in nonzero[1:]:
        acc = poly_gcd(acc, b)
        if acc.degree() == 0:
            break
    if acc.degree() >= 1:
        return True
    # the point (0 : 1): needs the pure Y^e coefficient of every restriction
    # to vanish, i.e. every dehomogenization to have degree < e
    return all(b.degree() < e for b in nonzero)


def is_smooth(form):
    """True when the projective plane curve F = 0 is smooth over the closure."""
    if form.is_zero():
        raise ValueError("the zero form does not define a curve")
    if form.degree == 1:
        return True
    partials = [form.partial(v) for v in range(3)]
    nonzero_partials = [p for p in partials if not p.is_zero()]
    if not nonzero_partials:
        return False
    gs = []
    for p in nonzero_partials:
        b = _biv_from_form_z1(p)
        if b:
            gs.append(b)
    if not gs:
        return False
    if _chart_has_common_zero(gs):
        return False
    return not _infinity_has_common_zero(partials, form.degree)
