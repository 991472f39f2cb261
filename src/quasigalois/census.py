"""Seed-driven census of quasi-Galois points: orbit closure, pairs, counts.

Starting from seed points, the census classifies the seeds and closes them
into their orbit under the homologies found there.  An automorphism h of the
curve maps the group at P onto the group at h(P), so each image's record is
carried from its preimage's, not classified again.  It records mutual pairs
— two points whose generators fix each other's center, read off the axes as
a homology fixes just its center and axis — the triangles they form, the
per-order tallies delta[n] (points on the curve with group order exactly n)
and delta_prime[n] (points off the curve), and a certification status:

- "certified" when the count of outer points of order >= n attains the sharp
  upper bound (for sextics the flex-driven bound delta_prime[>=3] <= 12, for
  quartics delta_prime[>=2] <= 21), so no point anywhere can be missing;
- "theory_table_only" when the exact count matches a value the classification
  theorems allow, but does not attain the bound (seeds are then trusted to
  have reached the whole orbit);
- "bound_gap" otherwise.

The pair geometry rests on a lemma, so the census tests each pair once and
evaluates no third point.  Let r1, r2 be quasi-Galois records of one smooth
curve C with centers P1 != P2, axes A1, A2 and generators s1, s2 of the full
groups G[P1], G[P2].

(a) P2 on A1 iff P1 on A2.  If P2 is on A1, s1 fixes P2, so s1 G[P2] s1^-1
    = G[P2] and s1 s2 s1^-1 is a homology of C at P2 with the ratio of s2.  The ratio
    tells the elements of the cyclic group G[P2] apart, so s1 s2 s1^-1 = s2.
    The two maps commute, so s2 fixes the center P1 of s1, and P1 is on A2.
(b) A1 != A2, as P1 is on A2 but not on A1.  Their meet T is not P1, and
    P1, P2, T are not collinear: the line through P1 and T is A2, which
    misses P2.
(c) If P1 and P2 are both outer, T is off C.  In the basis (P1, P2, T),
    s1 = diag(z1, 1, 1) and s2 = diag(1, z2, 1) with orders n1, n2 >= 2, so
    every X-exponent of F is congruent to d mod n1 and every Y-exponent to d
    mod n2.  An outer order divides d, so both classes are 0.  If F(T) = 0,
    then F(x, y, 1) has no constant and no linear term, and T is a singular
    point of C.
"""

from __future__ import annotations

from math import gcd

from .errors import ClosureCapExceeded, NotAGPair, SamePoint
from .geometry import ProjMatrix
from .homology import Homology, PointRecord, classify_point, homology_matrix


def orbit_expand(form, seeds, cap=10000):
    """Classify seeds and close them into their orbit under their generators.

    One breadth-first pass applies each generator found at a seed to each
    point in the order found.  A point q = h(s) has G_q = h G_s h^-1 inside
    the group the seed generators span, so the orbit is closed under the
    generator at each of its points; an image g(p) carries p's record and is
    not classified.  Each generator's center is its record's point, and a
    nontrivial homology has one center, so distinct points have disjoint
    groups.  Returns an insertion-ordered dict, seeds first, of PointRecords;
    raises ClosureCapExceeded when over `cap` points appear.
    """
    points = list(dict.fromkeys(seeds))
    if len(points) > cap:
        raise ClosureCapExceeded(cap)
    records = {p: classify_point(form, p) for p in points}
    generators = [r.generator.matrix for r in records.values() if r.is_quasi_galois]
    for p in points:  # grows while it is iterated
        for g in generators:
            q = g.apply_to_point(p)
            if q in records:
                continue
            if len(records) >= cap:
                raise ClosureCapExceeded(cap)
            records[q] = _carry(records[p], g, q)
            points.append(q)
    return records


def _carry(rec, g, q):
    """The record at q = g(p), p = rec.point, for a homology g of the curve.

    g maps the curve and the projection from p onto those at q, so q keeps
    p's locus, order and tangency; its generator g G g^-1 has center q, axis
    g(axis) and G's ratio, the matrix that classifying q builds.
    """
    if rec.generator is None:
        return PointRecord(q, rec.on_curve, rec.projection_degree, 1, None, None)
    zeta = rec.generator.zeta
    axis = g.apply_to_line(rec.generator.axis)
    generator = Homology(homology_matrix(q, axis, zeta), q, axis, zeta, rec.order)
    return PointRecord(
        q, rec.on_curve, rec.projection_degree, rec.order, generator, rec.tangency
    )


def is_mutual_pair(rec1, rec2):
    """Do the generators at two quasi-Galois points fix each other's center?

    Both records must come from the classification of one curve: then the
    second point lies on the first axis exactly when the first lies on the
    second, by (a) of the module's lemma.  Raises SamePoint on equal points.
    """
    if rec1.point == rec2.point:
        raise SamePoint("a pair needs two distinct points")
    if not (rec1.is_quasi_galois and rec2.is_quasi_galois):
        return False
    return rec1.generator.axis.contains(rec2.point)


class PairInfo:
    """A mutual pair: the two records, n = gcd of orders, the third point."""

    __slots__ = ("rec1", "rec2", "n", "third")

    def __init__(self, rec1, rec2, n, third):
        self.rec1 = rec1
        self.rec2 = rec2
        self.n = n
        self.third = third

    def points(self):
        return (rec.point for rec in (self.rec1, self.rec2))

    def __repr__(self):
        return "PairInfo(%r, %r, n=%d, third=%r)" % (
            self.rec1.point,
            self.rec2.point,
            self.n,
            self.third,
        )


def make_pair(rec1, rec2):
    """Build the PairInfo of a mutual pair; raises NotAGPair otherwise.

    The axes of the two generators are distinct, by (b) of the module's
    lemma, and the third point is the axes' intersection.
    """
    if not is_mutual_pair(rec1, rec2):
        raise NotAGPair("the generators do not fix each other's center")
    return _pair_info(rec1, rec2)


def _pair_info(rec1, rec2):
    """The PairInfo of two records already known to form a mutual pair."""
    third = rec1.generator.axis.meet(rec2.generator.axis)
    return PairInfo(rec1, rec2, gcd(rec1.order, rec2.order), third)


def build_pair_graph(records):
    """All mutual pairs among the quasi-Galois records, in deterministic order."""
    qg = [rec for rec in records.values() if rec.is_quasi_galois]
    pairs = []
    for i in range(len(qg)):
        for j in range(i + 1, len(qg)):
            if is_mutual_pair(qg[i], qg[j]):
                pairs.append(_pair_info(qg[i], qg[j]))
    return pairs


def find_triples(pairs):
    """Triangles in the pair graph: point triples pairwise forming pairs."""
    adj = {}
    for pair in pairs:
        p, q = pair.rec1.point, pair.rec2.point
        adj.setdefault(p, set()).add(q)
        adj.setdefault(q, set()).add(p)
    points = list(adj)
    triples = []
    for i in range(len(points)):
        for j in range(i + 1, len(points)):
            if points[j] not in adj[points[i]]:
                continue
            for k in range(j + 1, len(points)):
                if points[k] in adj[points[i]] and points[k] in adj[points[j]]:
                    triples.append((points[i], points[j], points[k]))
    return triples


def normalize_pair(form, rec1, rec2):
    """Move a mutual pair to (1:0:0), (0:1:0) with the third point at (0:0:1).

    Returns (base_change, normalized_form, n).  By (c) of the module's lemma
    the support of the normalized form uses one congruence class of
    X-exponents mod order1 and one of Y-exponents mod order2, and for a pair
    of outer points both classes are 0, so the affine model is a polynomial
    in x^n and y^n.
    """
    pair = make_pair(rec1, rec2)
    base_change = ProjMatrix.from_columns(rec1.point, rec2.point, pair.third)
    return base_change, form.pullback(base_change), pair.n


def _pair_support(n):
    return {
        (2 * n, 0, 0),
        (0, 2 * n, 0),
        (0, 0, 2 * n),
        (n, n, 0),
        (n, 0, n),
        (0, n, n),
    }


def has_pair_normal_support(form, n):
    """Does a degree-2n form use only the six pair-normal monomials?

    Those are X^2n, Y^2n, Z^2n, X^nY^n, X^nZ^n, Y^nZ^n, with the three pure
    powers required nonzero (zero pure powers force singular points).
    """
    if form.degree != 2 * n:
        return False
    allowed = _pair_support(n)
    if not set(form.terms) <= allowed:
        return False
    return all(
        not form.coeff(e).is_zero()
        for e in ((2 * n, 0, 0), (0, 2 * n, 0), (0, 0, 2 * n))
    )


# ---------------------------------------------------------------------------
# report
# ---------------------------------------------------------------------------

# Per degree: the least order counted, the bound on the points of at least
# that order, and the possible counts of points of exactly that order.
CERTIFICATION_BY_DEGREE = {
    6: (3, 12, {0, 1, 2, 3, 4, 8, 12}),  # flex bound, n = 3: 3d(d-2)/d = 12 at d = 6
    4: (2, 21, {0, 1, 3, 5, 6, 9, 12, 21}),  # 1 + 4*2 + 4*3 over the four tangency patterns
}


class CensusReport:
    """Everything the census found, plus tallies and certification."""

    __slots__ = (
        "degree",
        "records",
        "pairs",
        "triples",
        "delta",
        "delta_prime",
        "certification",
        "certification_bound",
        "certification_attained",
    )

    def __init__(self, degree, records, pairs, triples):
        self.degree = degree
        self.records = records
        self.pairs = pairs
        self.triples = triples
        self.delta = _tally(records, on_curve=True, top=degree - 1)
        self.delta_prime = _tally(records, on_curve=False, top=degree)
        cert, bound, attained = _certify(degree, self.delta_prime)
        self.certification = cert
        self.certification_bound = bound
        self.certification_attained = attained

    def quasi_galois_points(self):
        return [r for r in self.records.values() if r.is_quasi_galois]

    def __repr__(self):
        return "CensusReport(%d points, delta'=%r, delta=%r, %s)" % (
            len(self.records),
            self.delta_prime,
            self.delta,
            self.certification,
        )


def _divisors_from_2(n):
    return [k for k in range(2, n + 1) if n % k == 0]


def _tally(records, on_curve, top):
    counts = {n: 0 for n in _divisors_from_2(top)} if top >= 2 else {}
    for rec in records.values():
        if rec.on_curve == on_curve and rec.order >= 2:
            counts[rec.order] = counts.get(rec.order, 0) + 1
    return counts


def _certify(degree, delta_prime):
    if degree not in CERTIFICATION_BY_DEGREE:
        return "bound_gap", None, sum(delta_prime.values())
    low, bound, table = CERTIFICATION_BY_DEGREE[degree]
    attained = sum(c for k, c in delta_prime.items() if k >= low)
    if attained == bound:
        return "certified", bound, attained
    if delta_prime.get(low, 0) in table:
        return "theory_table_only", bound, attained
    return "bound_gap", bound, attained


def census(curve, seeds, cap=10000):
    """Full census of a smooth plane curve (a PlaneCurve) from seed points.

    Classifies the seeds and carries their records along the orbit closure,
    builds the pair graph and triangles, and certifies the tallies.  The
    third point of an outer mutual pair lies off the curve by (c) of the
    module's lemma, so it is not evaluated.
    """
    form = curve.form
    records = orbit_expand(form, seeds, cap=cap)
    pairs = build_pair_graph(records)
    triples = find_triples(pairs)
    return CensusReport(form.degree, records, pairs, triples)
