"""A floating-point cross-check of the exact census: counting homology centers.

Everything here is heuristic: the exact field elements are pushed through the
fixed embedding zeta_N -> exp(2*pi*i/N) (and the formal square root to the
principal complex square root), and invariant homologies are re-discovered
numerically by multi-start least squares over the gauge-fixed homology
parameters.  A numeric census counting the centers whose homology order is a
multiple of n is a sanity sweep, never a certificate: nothing guarantees the
random starts reach every center, which is why the exact census remains the
source of truth and the oracle only corroborates it.  Whether a matrix M
preserves a curve is not asked here: ``form.pullback(M).proportional_to(form)``
decides it exactly.

Each start is solved by MINPACK's lmder, called with the arguments that
``scipy.optimize.leastsq`` passes it, but without leastsq's checks of both
callbacks at the start and its covariance estimate, which nothing here
reads.  One evaluation reads F and its three partials at the homology images
of the samples from one gather of a power table, and keeps the gradient for
the last point, where lmder next asks for the Jacobian.  lmder's module,
``scipy.optimize._minpack``, is imported by the first start, not with this
module, so the exact commands never load scipy.

A start converges when its residual norm falls below tol = ``_RESIDUAL_TOL``.
It stops at the first evaluation below tol, and its center is read at that
point.  The converged set is that of lmder's full run.  lmder accepts a trial
step when ratio = actred / prered >= 1e-4 (Moré 1978), where actred = 1 -
|f_trial|^2 / |f|^2 and prered = 1 - |f + J p|^2 / |f|^2 <= 1 for the
Levenberg-Marquardt step p.  Accepted norms never increase, and lmder returns
the last accepted point.  So a start that never evaluates below tol is
lmder's full run.  A trial below tol has actred >= 1e-4, and is accepted,
whenever the current norm is at least 1.00005 tol; the full run then ends
below tol.  Only a current norm in [tol, 1.00005 tol) lets such a trial be
rejected, and the full run may then end in that window, above tol.  A
stopped center lies within about 1e-9 of the polished one, far inside
``_CLUSTER_TOL``, and polishing converged starts from 1e-9 down to 1e-15
would cost about a fifth of all residual evaluations.

Determinism: all randomness flows from one integer seed; the starts are
pre-generated up front and the results merged in a canonical order.  lmder
itself is not bit-reproducible: its iterates depend on the memory alignment
of its Jacobian buffer, so a start that ends within a few times tol can
converge in one process and not in another, moving
``diagnostics["converged"]`` by a start or two.
"""

from __future__ import annotations

import cmath
from collections import namedtuple

import numpy as np


# ---------------------------------------------------------------------------
# embedding exact data into complex doubles
# ---------------------------------------------------------------------------


def embed_element(element):
    """The image of a field element under zeta_N -> exp(2*pi*i/N).

    For quadratic extensions the formal square root goes to the principal
    complex square root of the embedded radicand.
    """
    ctx = element.context
    if ctx.lambda_sq is not None:
        u, v = element.parts()
        lam = cmath.sqrt(embed_element(ctx.lambda_sq))
        return embed_element(u) + embed_element(v) * lam
    root = cmath.exp(2j * cmath.pi / ctx.conductor)
    total = 0j
    power = 1 + 0j
    for c in element.nums:
        if c:
            total += c * power
        power *= root
    return total / element.den


def embed_point(point):
    """A unit-norm complex 3-vector representing the projective point."""
    vec = np.array([embed_element(c) for c in point.coords], dtype=complex)
    return vec / np.linalg.norm(vec)


def _monomials(pts, exps):
    """The (k, m) monomial table of (k, 3) points at (m, 3) exponent rows."""
    x, y, z = pts[:, 0:1], pts[:, 1:2], pts[:, 2:3]
    return x ** exps[:, 0] * y ** exps[:, 1] * z ** exps[:, 2]


class NumericCurve:
    """A plane curve with complex-double coefficients, max |coeff| = 1."""

    __slots__ = ("degree", "exps", "coeffs")

    def __init__(self, degree, exps, coeffs):
        exps = np.asarray(exps, dtype=np.int64)
        coeffs = np.asarray(coeffs, dtype=complex)
        if exps.ndim != 2 or exps.shape[1] != 3 or len(coeffs) != len(exps):
            raise ValueError("need parallel (m, 3) exponent and (m,) coefficient arrays")
        if exps.shape[0] == 0:
            raise ValueError("the zero polynomial is not a curve")
        if np.any(exps.sum(axis=1) != degree):
            raise ValueError("every exponent triple must sum to the degree")
        top = np.abs(coeffs).max()
        if top == 0.0:
            raise ValueError("the zero polynomial is not a curve")
        self.degree = degree
        self.exps = exps
        self.coeffs = coeffs / top

    def evaluate_many(self, points):
        """Evaluate at an (k, 3) array of complex points; returns shape (k,)."""
        return _monomials(np.asarray(points, dtype=complex), self.exps) @ self.coeffs

    def evaluate(self, point):
        return self.evaluate_many(np.asarray(point, dtype=complex).reshape(1, 3))[0]


def numeric_curve(curve_or_form):
    """NumericCurve from a PlaneCurve or a homogeneous form."""
    form = curve_or_form.form if hasattr(curve_or_form, "form") else curve_or_form
    items = sorted(form.terms.items())
    return NumericCurve(
        form.degree, [e for e, _ in items], [embed_element(c) for _, c in items]
    )


# ---------------------------------------------------------------------------
# numeric census
# ---------------------------------------------------------------------------

OracleCensus = namedtuple("OracleCensus", "count centers diagnostics")


def _fubini_study(p, q):
    """The sine of the angle between the lines through p and q.

    Read off the part of q orthogonal to p, which resolves angles down to
    the rounding of the coordinates; sqrt(1 - cos^2) cannot go below about
    2e-8, the square root of the double epsilon.
    """
    p = p / np.linalg.norm(p)
    q = q / np.linalg.norm(q)
    return float(np.linalg.norm(q - np.vdot(p, q) * p))


def _proportionality_samples(degree, k):
    """k unit sample points whose degree-d evaluation map is well conditioned.

    The sample set is intentionally independent of the census seed: it
    defines the objective function, and two runs over different seeds must
    optimize the same landscape so that only the multistart draws vary.
    The fixed generator below almost always passes the conditioning check on
    the first draw; the retry loop guards against unlucky geometry.
    """
    rng = np.random.default_rng(987654321)
    exps = np.array(
        [
            (i, j, degree - i - j)
            for i in range(degree + 1)
            for j in range(degree + 1 - i)
        ]
    )
    pts = None
    for _ in range(32):
        pts = rng.normal(size=(k, 3)) + 1j * rng.normal(size=(k, 3))
        pts /= np.linalg.norm(pts, axis=1, keepdims=True)
        sv = np.linalg.svd(_monomials(pts, exps), compute_uv=False)
        if sv[-1] > 1e-8 * sv[0]:
            break
    return pts


class _Converged(Exception):
    """A residual evaluation fell below the stop threshold at ``params``."""

    def __init__(self, params):
        super().__init__()
        self.params = params


class _Search:
    """Shared data for one census run: curve, samples, gradient, fixed zeta.

    The evaluation rounds exactly as forming M = I + (zeta - 1) center
    axis^T / (axis . center), y = samples M^T, and evaluating F and each
    partial as its own NumericCurve; a differently rounded one moves the
    starts that end near ``_RESIDUAL_TOL``.  The power table stays ``**``
    and the 3x3 algebra stays in numpy: npy_cpow and Python complex
    arithmetic round differently from numpy's array multiply.

    A non-degenerate residual of norm below ``stop`` raises ``_Converged``
    (``stop=0`` never does).
    """

    def __init__(self, num, n, seed, starts, stop=0.0):
        self.stop2 = stop * stop
        self.zeta = cmath.exp(2j * cmath.pi / n)
        rng = np.random.default_rng(seed)
        k = (num.degree + 1) * (num.degree + 2) // 2 + 5
        self.samples = _proportionality_samples(num.degree, k)
        self.f_samples = num.evaluate_many(self.samples)
        self.f_norm2 = float((np.abs(self.f_samples) ** 2).sum())
        self.eye = np.eye(3, dtype=complex)
        # F and its three partials (the terms with x_v, x_v lowered by one)
        # as column blocks of one gather from the flat power table, where
        # y_v^e is column v * (d + 1) + e.
        d, exps, coeffs = num.degree, num.exps, num.coeffs
        blocks = [(exps, coeffs)]
        for v in range(3):
            keep = exps[:, v] > 0
            lowered = exps[keep] - np.eye(3, dtype=np.int64)[v]
            blocks.append((lowered, coeffs[keep] * exps[keep, v]))
        columns = np.concatenate([e for e, _ in blocks]) + (d + 1) * np.arange(3)
        self.gather = columns.T
        ends = np.cumsum([0] + [len(c) for _, c in blocks])
        self.terms = [(slice(a, b), c) for a, b, (_, c) in zip(ends, ends[1:], blocks)]
        self.powers = np.arange(d + 1)
        # 8 real unknowns per start: real and imaginary parts of the two
        # free center coordinates and the two free axis coordinates (one
        # coordinate of each is pinned to 1 by the start's chart).
        self.starts = rng.normal(size=(starts, 8))
        self.set_chart((0, 0))

    def set_chart(self, chart):
        cp, cl = chart
        # the four free coordinates of center and axis, side by side
        self.fp = np.array([i for i in range(3) if i != cp])
        self.fl = np.array([i for i in range(3) if i != cl])
        self.free = np.concatenate([self.fp, 3 + self.fl])
        self.samples_fl = self.samples[:, self.fl]
        self.memo_key = None

    def assemble(self, params):
        both = np.ones(6, dtype=complex)
        both[self.free] = params[:4] + 1j * params[4:]
        return both[:3], both[3:]

    def residual(self, params):
        """The realified residual g - scale * F(samples), g = F(M samples)."""
        key = params.tobytes()
        if key == self.memo_key:
            return self.memo_res
        center, axis = self.assemble(params)
        denom = axis @ center
        k = len(self.samples)
        size = max(1.0, max(map(abs, center.tolist())) * max(map(abs, axis.tolist())))
        if abs(denom) < 1e-9 * size:
            self.memo = None
            res = np.full(2 * k, 1e3)
        else:
            m = self.eye + (self.zeta - 1.0) * (center[:, None] * axis) / denom
            y = self.samples @ m.T
            table = (y[:, :, None] ** self.powers).reshape(k, -1)
            mono = table[:, self.gather].prod(axis=1)
            # contiguous blocks: BLAS rounds a strided block differently
            g, *grad = [np.ascontiguousarray(mono[:, b]) @ c for b, c in self.terms]
            grad = np.stack(grad, axis=1)
            self.memo = (center, axis, denom, grad)
            scale = np.vdot(self.f_samples, g) / self.f_norm2
            r = g - scale * self.f_samples
            res = np.concatenate([r.real, r.imag])
            if res @ res < self.stop2:
                raise _Converged(params.copy())
        self.memo_key, self.memo_res = key, res
        return res

    def jacobian(self, params):
        """Analytic derivative of the residual, with the scale held fixed.

        Freezing the projection scale (a variable-projection shortcut) keeps
        the Jacobian holomorphic in the four complex unknowns, which the
        realified 2x2 block form below relies on.
        """
        if params.tobytes() != self.memo_key:
            self.residual(params)
        k = len(self.samples)
        if self.memo is None:
            return np.zeros((2 * k, 8))
        center, axis, denom, grad = self.memo
        t = self.samples @ axis  # (k,)
        gp = grad @ center  # (k,) gradient dotted with the center
        w = (self.zeta - 1.0) / denom
        fp, fl = self.fp, self.fl
        jac = np.empty((k, 4), dtype=complex)
        jac[:, :2] = (w * t)[:, None] * (grad[:, fp] - (axis[fp] / denom) * gp[:, None])
        jac[:, 2:] = w * (self.samples_fl - center[fl] * t[:, None] / denom) * gp[:, None]
        out = np.empty((2 * k, 8))
        out[:k, :4] = jac.real
        out[:k, 4:] = -jac.imag
        out[k:, :4] = jac.imag
        out[k:, 4:] = jac.real
        return out


def _lmder(*args):
    """MINPACK's lmder; scipy.optimize is imported by the first start, not with the package."""
    from scipy.optimize._minpack import _lmder as lmder

    return lmder(*args)


# The arguments after x0 that leastsq(residual, x0, Dfun=jacobian,
# full_output=True, ftol=1e-15, xtol=1e-15, gtol=1e-15, maxfev=200) passes to
# lmder: args, full_output, col_deriv, ftol, xtol, gtol, maxfev, factor, diag.
_LMDER_ARGS = ((), 1, 0, 1e-15, 1e-15, 1e-15, 200, 100, None)

# A converged center joins the first cluster whose representative lies within
# this Fubini-Study distance of it.
_CLUSTER_TOL = 1e-6

# A start converges when its residual norm falls below this, 1e-3 * _CLUSTER_TOL.
_RESIDUAL_TOL = 1e-9


def numeric_census(curve, n, starts=20000, seed=0):
    """Count the distinct homology centers whose order is a multiple of n.

    Minimizes the proportionality residual of F(M(P, axis) x) against F(x)
    over random starts, with a fixed primitive n-th root of unity; a start
    converges when its residual norm falls below ``_RESIDUAL_TOL``, and
    converged centers are clustered in the Fubini-Study metric at
    ``_CLUSTER_TOL``.  Both tolerances are constants, which ``diagnostics``
    reports as ``residual_tol`` and ``cluster_tol``.
    Returns the cluster count, canonical center representatives, and
    diagnostics.  Heuristic by construction; agreement with the exact census
    is evidence, not proof.
    Raises ValueError for n < 2 and for n above the curve's degree.
    """
    if n < 2:
        raise ValueError("the homology order must be at least 2")
    if starts < 0:
        raise ValueError("the number of starts must be nonnegative")
    num = curve if isinstance(curve, NumericCurve) else numeric_curve(curve)
    if n > num.degree:
        # a homology order divides d or d - 1 on a smooth curve of degree d
        raise ValueError("the homology order must be at most the degree")
    search = _Search(num, n, seed, starts, stop=_RESIDUAL_TOL)
    converged = []
    n_conv = 0
    for idx in range(starts):
        search.set_chart((idx % 3, (idx // 3) % 3))
        try:
            x, info, _ier = _lmder(
                search.residual, search.jacobian, search.starts[idx].flatten(), *_LMDER_ARGS
            )
        except _Converged as stop:
            x = stop.params
        else:
            if not np.linalg.norm(info["fvec"]) < _RESIDUAL_TOL:
                continue
        n_conv += 1
        center, _axis = search.assemble(x)
        converged.append(center / np.linalg.norm(center))
    clusters = []  # (representative, radius)
    for center in converged:
        placed = False
        for entry in clusters:
            d = _fubini_study(entry[0], center)
            if d < _CLUSTER_TOL:
                entry[1] = max(entry[1], d)
                placed = True
                break
        if not placed:
            clusters.append([center, 0.0])
    reps = sorted(
        (_canonical_center(c) for c, _ in clusters),
        key=lambda v: tuple(np.round(v, 8).view(float)),
    )
    worst = max((r for _, r in clusters), default=0.0)
    diagnostics = {
        "starts": starts,
        "converged": n_conv,
        "convergence_rate": n_conv / starts if starts else 0.0,
        "worst_cluster_radius": worst,
        "residual_tol": _RESIDUAL_TOL,
        "cluster_tol": _CLUSTER_TOL,
        "seed": seed,
        "order": n,
    }
    return OracleCensus(len(clusters), reps, diagnostics)


def _canonical_center(vec):
    """Scale so the largest-modulus coordinate is exactly 1."""
    k = int(np.argmax(np.abs(vec)))
    return vec / vec[k]
