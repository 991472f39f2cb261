"""Floating-point cross-checks of the exact machinery.

Everything here is heuristic: the exact field elements are pushed through the
fixed embedding zeta_N -> exp(2*pi*i/N) (and the formal square root to the
principal complex square root), and invariant homologies are re-discovered
numerically by multi-start least squares over the gauge-fixed homology
parameters.  A numeric census counting the centers whose homology order is a
multiple of n is a sanity sweep, never a certificate: nothing guarantees the
random starts reach every center, which is why the exact census remains the
source of truth and the oracle only corroborates it.

Each start is solved by MINPACK's lmder through ``scipy.optimize.leastsq``.
One evaluation reads F and its three partials at the homology images of the
samples from one gather of a power table, and keeps the gradient for the
last point, where lmder next asks for the Jacobian.

Determinism: all randomness flows from one integer seed; the starts are
pre-generated up front and the results merged in a canonical order.  lmder
itself is not bit-reproducible: its iterates depend on the memory alignment
of its Jacobian buffer, so a start that ends within a few times ``tol`` can
converge in one process and not in another, moving
``diagnostics["converged"]`` by a start or two.
"""

from __future__ import annotations

import cmath
import math
from collections import namedtuple

import numpy as np
from scipy.optimize import leastsq


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


def embed_matrix(matrix):
    """The 3x3 complex image of a projective matrix."""
    return np.array(
        [[embed_element(matrix.entry(i, j)) for j in range(3)] for i in range(3)],
        dtype=complex,
    )


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

    @classmethod
    def from_form(cls, form):
        items = sorted(form.terms.items())
        return cls(
            form.degree,
            [e for e, _ in items],
            [embed_element(c) for _, c in items],
        )

    def evaluate_many(self, points):
        """Evaluate at an (k, 3) array of complex points; returns shape (k,)."""
        pts = np.asarray(points, dtype=complex)
        mono = (
            pts[:, 0:1] ** self.exps[:, 0]
            * pts[:, 1:2] ** self.exps[:, 1]
            * pts[:, 2:3] ** self.exps[:, 2]
        )
        return mono @ self.coeffs

    def evaluate(self, point):
        return self.evaluate_many(np.asarray(point, dtype=complex).reshape(1, 3))[0]


def numeric_curve(curve_or_form):
    """NumericCurve from a PlaneCurve or a homogeneous form."""
    form = curve_or_form.form if hasattr(curve_or_form, "form") else curve_or_form
    return NumericCurve.from_form(form)


# ---------------------------------------------------------------------------
# spot checks
# ---------------------------------------------------------------------------


def numeric_spot_check(curve, matrix, samples=64, seed=0):
    """Max proportionality residual |F(Mx)F(y) - F(My)F(x)| over random pairs.

    Residuals stay below roughly 1e-10 when the matrix maps the curve to
    itself, and are of order one for a generic non-automorphism.
    """
    if samples < 1:
        raise ValueError("need at least one sample")
    num = curve if isinstance(curve, NumericCurve) else numeric_curve(curve)
    mat = matrix if isinstance(matrix, np.ndarray) else embed_matrix(matrix)
    rng = np.random.default_rng(seed)
    shape = (samples, 3)
    x = rng.normal(size=shape) + 1j * rng.normal(size=shape)
    y = rng.normal(size=shape) + 1j * rng.normal(size=shape)
    x /= np.linalg.norm(x, axis=1, keepdims=True)
    y /= np.linalg.norm(y, axis=1, keepdims=True)
    fx, fy = num.evaluate_many(x), num.evaluate_many(y)
    fmx, fmy = num.evaluate_many(x @ mat.T), num.evaluate_many(y @ mat.T)
    return float(np.abs(fmx * fy - fmy * fx).max())


# ---------------------------------------------------------------------------
# numeric census
# ---------------------------------------------------------------------------

OracleCensus = namedtuple("OracleCensus", "count centers diagnostics")


def _fubini_study(p, q):
    inner = np.vdot(p, q)
    cos2 = (inner * inner.conjugate()).real / (
        (np.vdot(p, p).real) * (np.vdot(q, q).real)
    )
    return math.sqrt(max(0.0, 1.0 - min(1.0, cos2)))


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
        vander = (
            pts[:, 0:1] ** exps[:, 0]
            * pts[:, 1:2] ** exps[:, 1]
            * pts[:, 2:3] ** exps[:, 2]
        )
        sv = np.linalg.svd(vander, compute_uv=False)
        if sv[-1] > 1e-8 * sv[0]:
            break
    return pts


class _Search:
    """Shared data for one census run: curve, samples, gradient, fixed zeta.

    The evaluation rounds exactly as forming M = I + (zeta - 1) center
    axis^T / (axis . center), y = samples M^T, and evaluating F and each
    partial as its own NumericCurve; a differently rounded one moves the
    starts that end near ``tol``.
    """

    def __init__(self, num, n, seed, starts):
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
        self.free = np.array(
            [i for i in range(3) if i != cp] + [3 + i for i in range(3) if i != cl]
        )
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
        size = max(1.0, float(np.abs(center).max() * np.abs(axis).max()))
        if abs(denom) < 1e-9 * size:
            self.memo = None
            res = np.full(2 * k, 1e3)
        else:
            m = self.eye + (self.zeta - 1.0) * (center[:, None] * axis) / denom
            y = self.samples @ m.T
            table = (y[:, :, None] ** self.powers).reshape(k, -1)
            g0, g1, g2 = self.gather
            mono = table[:, g0] * table[:, g1] * table[:, g2]
            # contiguous blocks: BLAS rounds a strided block differently
            g, *grad = [np.ascontiguousarray(mono[:, b]) @ c for b, c in self.terms]
            grad = np.stack(grad, axis=1)
            self.memo = (center, axis, denom, grad)
            scale = np.vdot(self.f_samples, g) / self.f_norm2
            r = g - scale * self.f_samples
            res = np.concatenate([r.real, r.imag])
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
        out = np.zeros((2 * k, 8))
        if self.memo is None:
            return out
        center, axis, denom, grad = self.memo
        t = self.samples @ axis  # (k,)
        gp = grad @ center  # (k,) gradient dotted with the center
        w = (self.zeta - 1.0) / denom
        fp, fl = self.free[:2], self.free[2:] - 3
        jac = np.empty((k, 4), dtype=complex)
        jac[:, :2] = (w * t)[:, None] * (grad[:, fp] - (axis[fp] / denom) * gp[:, None])
        jac[:, 2:] = (
            w * (self.samples[:, fl] - center[fl] * t[:, None] / denom) * gp[:, None]
        )
        out[:k, :4] = jac.real
        out[:k, 4:] = -jac.imag
        out[k:, :4] = jac.imag
        out[k:, 4:] = jac.real
        return out


def numeric_census(curve, n, starts=20000, tol=1e-9, seed=0, cluster_tol=1e-6):
    """Count the distinct homology centers whose order is a multiple of n.

    Minimizes the proportionality residual of F(M(P, axis) x) against F(x)
    over random starts, with a fixed primitive n-th root of unity; converged
    centers are clustered in the Fubini-Study metric.  Returns the cluster
    count, canonical center representatives, and diagnostics.  Heuristic by
    construction; agreement with the exact census is evidence, not proof.
    """
    if n < 2:
        raise ValueError("the homology order must be at least 2")
    if not tol > 0:
        raise ValueError("tolerance must be positive")
    if not cluster_tol > 0:
        raise ValueError("cluster tolerance must be positive")
    if starts < 0:
        raise ValueError("the number of starts must be nonnegative")
    num = curve if isinstance(curve, NumericCurve) else numeric_curve(curve)
    search = _Search(num, n, seed, starts)
    converged = []
    n_conv = 0
    for idx in range(starts):
        search.set_chart((idx % 3, (idx // 3) % 3))
        x, _cov, info, _msg, _ier = leastsq(
            search.residual,
            search.starts[idx],
            Dfun=search.jacobian,
            full_output=True,
            ftol=1e-15,
            xtol=1e-15,
            gtol=1e-15,
            maxfev=200,
        )
        if np.linalg.norm(info["fvec"]) < tol:
            n_conv += 1
            center, _axis = search.assemble(x)
            converged.append(center / np.linalg.norm(center))
    clusters = []  # (representative, radius)
    for center in converged:
        placed = False
        for entry in clusters:
            d = _fubini_study(entry[0], center)
            if d < cluster_tol:
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
        "residual_tol": tol,
        "cluster_tol": cluster_tol,
        "seed": seed,
        "order": n,
    }
    return OracleCensus(len(clusters), reps, diagnostics)


def _canonical_center(vec):
    """Scale so the largest-modulus coordinate is exactly 1."""
    k = int(np.argmax(np.abs(vec)))
    return vec / vec[k]
