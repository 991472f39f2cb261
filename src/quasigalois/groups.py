"""Finite matrix groups generated by homologies, and their action on a line.

Closures are computed by breadth-first multiplication with deduplication up
to scalar (projective equality); a finite set of invertible matrices closed
under multiplication is automatically a group.  Given the smooth plane curve
the generators preserve (checked by one exact pullback each), the group is
finite, and over a plain cyclotomic field the closure deduplicates on the
matrices' reductions mod a prime above a split prime (see ``modular``), so
only the |G| - 1 new elements cost an exact product.  Without a curve, or
over a quadratic extension, deduplication uses exact canonical keys, and an
infinite group still exceeds the cap.  When every generator
preserves a line, the restriction to that line in the coordinates of its two
canonical spanning points is a 2x2 matrix, well defined up to scalar; the
induced map is a group homomorphism, and its kernel size, image size and the
image's element-order histogram identify the quotient (for example the
histograms {1:1, 2:3, 3:8} and {1:1, 2:9, 3:8, 4:6} of the alternating and
symmetric groups on four letters).
"""

from __future__ import annotations

from .errors import (
    ClosureCapExceeded,
    CurveNotPreserved,
    InvariantViolation,
    LineNotPreserved,
)
from .geometry import ProjMatrix, _canonicalize
from .modular import choose_prime


def group_closure(generators, cap=1000, curve=None):
    """All products of the generators (a finite group), BFS order, with cap.

    With a smooth plane ``curve`` every generator must preserve it (else
    CurveNotPreserved), which makes the group finite; over a plain cyclotomic
    field the closure then deduplicates on fingerprints mod a prime.
    """
    if not generators:
        raise ValueError("need at least one generator")
    ctx = generators[0].context
    if curve is not None:
        form = curve.form
        for i, g in enumerate(generators):
            if not form.pullback(g).proportional_to(form):
                raise CurveNotPreserved("generator %d does not preserve the curve" % i)
        if ctx.lambda_sq is None:
            return _fingerprint_closure(generators, cap)
    identity = ProjMatrix.identity(ctx)
    elements = [identity]
    seen = {identity.canonical_key()}
    for m in elements:  # grows while it is iterated
        for g in generators:
            nm = g * m
            key = nm.canonical_key()
            if key not in seen:
                if len(seen) >= cap:
                    raise ClosureCapExceeded(cap)
                seen.add(key)
                elements.append(nm)
    return elements


def _fingerprint_closure(generators, cap):
    """The BFS of group_closure keyed by reduction mod a prime (modular.py).

    The reduction is injective on a finite group, so the keys separate
    exactly the elements that exact canonical keys separate, and an exact
    product is formed only for a new element.
    """
    red = choose_prime(generators)
    gen_prints = [red.fingerprint(g) for g in generators]
    identity = ProjMatrix.identity(generators[0].context)
    elements = [identity]
    prints = [red.fingerprint(identity)]
    seen = set(prints)
    for k, m in enumerate(elements):  # grows while it is iterated
        for g, fg in zip(generators, gen_prints):
            key = red.product(fg, prints[k])
            if key not in seen:
                if len(seen) >= cap:
                    raise ClosureCapExceeded(cap)
                seen.add(key)
                elements.append(g * m)
                prints.append(key)
    return elements


def projective_order(matrix, cap=1000):
    """Smallest k >= 1 with matrix^k a scalar matrix."""
    identity_key = ProjMatrix.identity(matrix.context).canonical_key()
    return _order_modulo(matrix, {identity_key}, cap)


def _order_modulo(matrix, subgroup_keys, cap):
    """Smallest k >= 1 with matrix^k in a subgroup given by canonical keys."""
    acc = matrix
    for k in range(1, cap + 1):
        if acc.canonical_key() in subgroup_keys:
            return k
        acc = acc * matrix
    raise ValueError("projective order exceeds cap")


def order_histogram(group):
    """Map projective element order -> count over the whole group."""
    histogram = {}
    for m in group:
        o = projective_order(m, cap=len(group))
        histogram[o] = histogram.get(o, 0) + 1
    return histogram


def _raw_apply(matrix, coords):
    dot = matrix.context.dot
    return [dot(row, coords) for row in matrix.rows]


def _line_coordinates(line, s1, s2, vec):
    """Coordinates of a raw vector in the basis s1, s2 of the line's points."""
    j = next(i for i, c in enumerate(line.coeffs) if not c.is_zero())
    k1, k2 = [i for i in range(3) if i != j]
    s, t = vec[k1], vec[k2]
    if vec[j] != line.context.dot((s, t), (s1.coords[j], s2.coords[j])):
        raise LineNotPreserved("the image vector does not lie on the line")
    return s, t


def restrict_to_line(matrix, line):
    """2x2 matrix of the action on the line's spanning-point coordinates.

    Raises LineNotPreserved when the matrix does not map the line to itself.
    The result is well defined up to the scalar class of `matrix`.
    """
    s1, s2 = line.spanning_points()
    a, b = _line_coordinates(line, s1, s2, _raw_apply(matrix, s1.coords))
    c, d = _line_coordinates(line, s1, s2, _raw_apply(matrix, s2.coords))
    # M(s*S1 + t*S2) = (a*s + c*t) S1 + (b*s + d*t) S2
    return ((a, c), (b, d))


def _canon2(m2):
    return tuple(c.key() for c in _canonicalize((*m2[0], *m2[1])))


def _is_scalar2(m2):
    return (
        m2[0][1].is_zero() and m2[1][0].is_zero() and m2[0][0] == m2[1][1]
    )


class LineActionReport:
    """Kernel size, image size and image order histogram of a line action."""

    __slots__ = ("group_order", "kernel_order", "image_order", "histogram")

    def __init__(self, group_order, kernel_order, image_order, histogram):
        self.group_order = group_order
        self.kernel_order = kernel_order
        self.image_order = image_order
        self.histogram = histogram

    def __repr__(self):
        return "LineActionReport(|G|=%d, kernel %d, image %d, histogram %r)" % (
            self.group_order,
            self.kernel_order,
            self.image_order,
            self.histogram,
        )


def line_action_analysis(group, line):
    """Restrict a matrix group to an invariant line and describe the quotient.

    Returns a LineActionReport; checks |G| = |kernel| * |image| as a
    homomorphism sanity check.  The order of an image class is the least k
    with m^k in the kernel, for any m in the class.
    """
    images = {}
    kernel = []
    for m in group:
        r2 = restrict_to_line(m, line)
        images.setdefault(_canon2(r2), m)
        if _is_scalar2(r2):
            kernel.append(m.canonical_key())
    if len(kernel) * len(images) != len(group):
        raise InvariantViolation(
            "line action must be a homomorphism: |G| = |kernel| * |image|"
        )
    kernel_keys = set(kernel)
    histogram = {}
    for m in images.values():
        o = _order_modulo(m, kernel_keys, cap=len(group))
        histogram[o] = histogram.get(o, 0) + 1
    return LineActionReport(len(group), len(kernel), len(images), histogram)
