"""Exception types shared across the toolkit."""


class QuasiGaloisError(Exception):
    """Base class for all toolkit-specific errors."""


class ZeroDivisorEncountered(QuasiGaloisError):
    """Inversion hit a zero divisor in a quadratic extension ring K[l]/(l^2 - c).

    Raised lazily: the ring is built without testing whether c is a square in K,
    and the first inversion of u + v*l with u^2 = c*v^2 discovers the splitting.
    The exception carries ``root`` with root^2 = c, i.e. the factorization
    l^2 - c = (l - root)(l + root), so callers may substitute a genuine root
    of c and retry over the base field.
    """

    def __init__(self, root, message=None):
        self.root = root
        if message is None:
            message = (
                "zero divisor in quadratic extension: l^2 - c factors as "
                "(l - r)(l + r) with r = %s" % (root,)
            )
        super().__init__(message)


class RootOfUnityUnavailable(QuasiGaloisError):
    """The field Q(zeta_N) does not contain a primitive n-th root of unity."""

    def __init__(self, order, conductor, suggested_conductor):
        self.order = order
        self.conductor = conductor
        self.suggested_conductor = suggested_conductor
        super().__init__(
            "no primitive root of unity of order %d in conductor-%d field; "
            "smallest sufficient conductor is %d"
            % (order, conductor, suggested_conductor)
        )


class LineContainedInCurve(QuasiGaloisError):
    """Restriction of a curve to a line vanished identically."""


class PointNotOnLine(QuasiGaloisError):
    """A point argument was required to lie on the given line."""


class PointNotOnCurve(QuasiGaloisError):
    """A point argument was required to lie on the curve."""


class SamePoint(QuasiGaloisError):
    """Two distinct points were required."""


class NotAGPair(QuasiGaloisError):
    """The two records do not form a mutually-fixing pair with a common order."""


class InvariantViolation(QuasiGaloisError):
    """A mathematical invariant the toolkit relies on failed to hold.

    Raised instead of ``assert`` so the check still runs under ``python -O``.
    """


class ClosureCapExceeded(QuasiGaloisError):
    """A closure computation exceeded its element cap without stabilizing."""

    def __init__(self, cap, message=None):
        self.cap = cap
        super().__init__(message or "closure exceeded cap of %d elements" % cap)


class LineNotPreserved(QuasiGaloisError):
    """A projective transformation does not map the given line to itself."""


class CurveNotPreserved(QuasiGaloisError):
    """A projective transformation does not map the given curve to itself."""


class NotAHomology(QuasiGaloisError):
    """Matrix is not a central collineation (singular, eigenvalues not
    (a, b, b) with a != b, or not diagonalizable, or not of finite projective
    order)."""


class ParameterViolation(QuasiGaloisError):
    """A catalog family received parameters outside its stated constraints."""


class NotSmooth(QuasiGaloisError):
    """The projective plane curve has a singular point."""


class SchemaError(QuasiGaloisError):
    """A JSON document does not match the published schema.

    ``path`` points at the offending field, e.g. ``terms[3].coeff.coords``.
    """

    def __init__(self, path, message):
        self.path = path
        self.message = message
        super().__init__("%s: %s" % (path, message) if path else message)
