"""Exact smoothness decisions over the algebraic closure."""

import functools
import itertools
import math
import random
from fractions import Fraction

import pytest

from quasigalois import (
    FieldContext,
    HomoPoly,
    NotSmooth,
    PlaneCurve,
    ProjMatrix,
    is_smooth,
)
from quasigalois import catalog, smoothness
from quasigalois.cyclotomic import FieldElement, _conjugate
from quasigalois.modular import Reduction, split_reductions
from quasigalois.errors import ZeroDivisorEncountered
from quasigalois.smoothness import (
    _PRIME_FLOOR,
    _full_rank_exact,
    _full_rank_mod_p,
    _monomials,
    _rows,
)


def test_all_catalog_forms_are_smooth(instances):
    for name, inst in instances.items():
        assert is_smooth(inst.curve.form), name


def _singular_quartics():
    ctx = FieldContext(4)
    return (
        # cuspidal: X^3 Z + Y^4 has a singular point at (0 : 0 : 1)
        HomoPoly.from_int_terms(ctx, 4, {(3, 0, 1): 1, (0, 4, 0): 1}),
        # union of four lines through coordinate vertices
        HomoPoly.from_int_terms(ctx, 4, {(2, 2, 0): 1, (0, 2, 2): 1}),
        # binary quartic in X, Y only: singular at (0 : 0 : 1)
        HomoPoly.from_int_terms(ctx, 4, {(4, 0, 0): 1, (0, 4, 0): 1}),
    )


def test_known_singular_quartics():
    for form in _singular_quartics():
        assert not is_smooth(form)


def test_parameter_boundaries_are_singular():
    with pytest.raises(NotSmooth):
        catalog.make("quartic_xy", a=2)
    with pytest.raises(NotSmooth):
        catalog.make("quartic_xy", a=-2)
    with pytest.raises(NotSmooth):
        catalog.make("quartic_symmetric", a=-1)
    with pytest.raises(NotSmooth):
        catalog.make("quartic_symmetric", a=2)
    with pytest.raises(NotSmooth):
        catalog.make("quartic_symmetric", a=-2)


def test_singularity_can_be_invisible_over_the_base_field():
    # X^4 + 2 X^2 Y^2 + Y^4 + ... style: nodes only at conjugate points
    ctx = FieldContext(4)
    # (X^2 + Y^2)^2 + Z^4 is singular exactly at (1 : ±i : 0)
    form = HomoPoly.from_int_terms(
        ctx, 4, {(4, 0, 0): 1, (2, 2, 0): 2, (0, 4, 0): 1, (0, 0, 4): 1}
    )
    assert not is_smooth(form)


def test_smoothness_is_invariant_under_linear_substitution():
    rng = random.Random(1291)
    ctx = FieldContext(4)
    smooth = HomoPoly.from_int_terms(
        ctx, 4, {(4, 0, 0): 1, (0, 4, 0): 1, (0, 0, 4): 1}
    )
    singular = HomoPoly.from_int_terms(ctx, 4, {(3, 0, 1): 1, (0, 4, 0): 1})
    for _ in range(8):
        while True:
            m = ProjMatrix.from_ints(
                ctx, [[rng.randint(-3, 3) for _ in range(3)] for _ in range(3)]
            )
            if not m.det().is_zero():
                break
        assert is_smooth(smooth.pullback(m))
        assert not is_smooth(singular.pullback(m))


def test_plane_curve_gate_matches_is_smooth():
    ctx = FieldContext(4)
    cusp = HomoPoly.from_int_terms(ctx, 4, {(3, 0, 1): 1, (0, 4, 0): 1})
    with pytest.raises(NotSmooth):
        PlaneCurve(cusp)
    good = HomoPoly.from_int_terms(
        ctx, 4, {(3, 0, 1): 1, (0, 4, 0): 1, (0, 0, 4): 1}
    )
    curve = PlaneCurve(good)
    assert curve.form == good
    assert curve.degree == 4


def test_sextic_boundary_values():
    # the one-parameter sextic family degenerates at a = 0 but stays smooth
    # at other small integers
    for a in (1, -1, 3, 7):
        inst = catalog.make("sextic_delta4", a=a)
        assert is_smooth(inst.curve.form)


def _random_invertible(rng, ctx):
    while True:
        m = ProjMatrix.from_ints(
            ctx, [[rng.randint(-2, 2) for _ in range(3)] for _ in range(3)]
        )
        if not m.det().is_zero():
            return m


MOVED = [(3, d) for d in (2, 3, 4, 5, 6)] + [(4, d) for d in (2, 3, 4, 5)]


def _moved_forms(conductor, degree):
    # A form with no monomial of X-degree >= d - 1 has all partials zero at
    # (1 : 0 : 0); a change of coordinates hides that point but keeps it
    # singular, and keeps the Fermat curve smooth.
    rng = random.Random(1000 * conductor + degree)
    ctx = FieldContext(conductor)
    singular = HomoPoly.from_int_terms(
        ctx,
        degree,
        {
            e: rng.choice((-3, -2, -1, 1, 2, 3))
            for e in _monomials(degree)
            if e[0] <= degree - 2
        },
    )
    fermat = HomoPoly.from_int_terms(
        ctx, degree, {(degree, 0, 0): 1, (0, degree, 0): 1, (0, 0, degree): 1}
    )
    moved_singular = singular.pullback(_random_invertible(rng, ctx))
    return moved_singular, fermat.pullback(_random_invertible(rng, ctx))


@pytest.mark.parametrize("conductor, degree", MOVED)
def test_moved_forms_of_every_degree(conductor, degree):
    singular, fermat = _moved_forms(conductor, degree)
    assert not is_smooth(singular)
    assert is_smooth(fermat)


def test_sextic_singular_only_at_points_outside_the_field():
    # (X^2 + Y^2)^3 + Z^6 is singular exactly at (1 : +-i : 0), and i is not
    # in Q(zeta_3)
    ctx = FieldContext(3)
    form = HomoPoly.from_int_terms(
        ctx,
        6,
        {(6, 0, 0): 1, (4, 2, 0): 3, (2, 4, 0): 3, (0, 6, 0): 1, (0, 0, 6): 1},
    )
    assert not is_smooth(form)


def test_low_degree_forms():
    ctx = FieldContext(1)
    nodal_cubic = HomoPoly.from_int_terms(
        ctx, 3, {(0, 2, 1): 1, (3, 0, 0): -1, (2, 0, 1): -1}
    )
    assert not is_smooth(nodal_cubic)
    assert is_smooth(
        HomoPoly.from_int_terms(ctx, 3, {(3, 0, 0): 1, (0, 3, 0): 1, (0, 0, 3): 1})
    )
    assert not is_smooth(HomoPoly.from_int_terms(ctx, 2, {(1, 1, 0): 1}))
    assert is_smooth(
        HomoPoly.from_int_terms(ctx, 2, {(2, 0, 0): 1, (0, 2, 0): 1, (0, 0, 2): 1})
    )
    for coeffs in ((1, 0, 0), (0, 0, -2), (3, -1, 5)):
        line = HomoPoly.linear_form(ctx, [ctx.from_int(c) for c in coeffs])
        assert is_smooth(line)
    with pytest.raises(ValueError):
        is_smooth(HomoPoly.zero(ctx, 4))


def test_smoothness_is_invariant_under_galois_conjugation():
    ctx = FieldContext(8)
    zeta = ctx.zeta()
    smooth = catalog.make("quartic_symmetric", a=zeta + 1).curve.form
    # (X^2 + zeta Y^2)^2 + Z^4 is singular along X^2 + zeta Y^2 = Z = 0
    one = ctx.one()
    singular = HomoPoly(
        ctx,
        4,
        {(4, 0, 0): one, (2, 2, 0): zeta * 2, (0, 4, 0): zeta * zeta, (0, 0, 4): one},
    )
    for form, expected in ((smooth, True), (singular, False)):
        assert is_smooth(form) is expected
        for k in (5, 7):
            terms = {e: _conjugate(c, k) for e, c in form.terms.items()}
            assert terms != form.terms
            assert is_smooth(HomoPoly(ctx, form.degree, terms)) is expected


def _target(form):
    return len(_monomials(3 * form.degree - 5))


def test_modular_certificate_is_never_full_where_the_exact_rank_is_short():
    cases = [(form, False) for form in _singular_quartics()]
    for conductor, degree in MOVED:
        singular, fermat = _moved_forms(conductor, degree)
        cases += [(singular, False), (fermat, True)]
    for form, smooth in cases:
        target = _target(form)
        modular = _full_rank_mod_p(form, target)
        # a singular form is never certified; the moved Fermat forms have
        # good reduction, so the certificate fires on them
        assert modular is smooth
        assert _full_rank_exact(form, target) is smooth


def test_bad_reduction_falls_back_to_the_exact_rank():
    # X^4 + Y^4 + p Z^4 is smooth over Q(i) but singular at (0 : 0 : 1) mod p
    ctx = FieldContext(4)
    p = next(split_reductions(ctx, [], _PRIME_FLOOR)).p
    form = HomoPoly.from_int_terms(ctx, 4, {(4, 0, 0): 1, (0, 4, 0): 1, (0, 0, 4): p})
    assert not _full_rank_mod_p(form, _target(form))
    assert is_smooth(form)


def _reference_full_rank(rows, target, inverse, normal):
    """The sparse dict elimination with the field's operations from the caller.

    The reference for the packed rows of `_full_rank_mod_p`: fed the same
    residues, both must reach the same rank on every form.
    """
    pivots = {}
    for row in rows:
        while row:
            lead = max(row)
            pivot = pivots.get(lead)
            if pivot is None:
                inv = inverse(row.pop(lead))
                pivots[lead] = {m: normal(x * inv) for m, x in row.items()}
                if len(pivots) == target:
                    return True
                break
            scale = -row.pop(lead)
            for m, x in pivot.items():
                y = row.get(m)
                y = normal(scale * x if y is None else y + scale * x)
                if y:
                    row[m] = y
                else:
                    row.pop(m, None)
    return False


def _reference_rank_mod_p(form):
    """The rank mod P of the dict elimination, at the prime of _full_rank_mod_p.

    A pivot costs one inversion, so with an unreachable target the number of
    inversions is the largest target at which the elimination returns True.
    """
    red = next(split_reductions(form.context, [c.den for c in form.terms.values()], _PRIME_FLOOR))
    p = red.p
    partials = [
        {e: r for e, c in form.partial(v).terms.items() if (r := red.element(c))}
        for v in range(3)
    ]
    inversions = []

    def inverse(x):
        inversions.append(x)
        return pow(x, -1, p)

    rows = _rows(partials, form.degree)
    assert not _reference_full_rank(rows, _target(form) + 1, inverse, lambda x: x % p)
    return len(inversions)


def _random_form(rng, ctx, degree, density):
    """A seeded form with a random share of the monomials and dense coefficients."""
    zeta, terms = ctx.zeta(), {}
    for e in _monomials(degree):
        if rng.random() < density:
            powers = [zeta ** rng.randrange(ctx.conductor) * rng.randint(-9, 9) for _ in range(3)]
            terms[e] = sum(powers, ctx.zero()) * Fraction(rng.randint(1, 9), rng.randint(1, 9))
    form = HomoPoly(ctx, degree, terms)
    return HomoPoly.from_int_terms(ctx, degree, {(0, 0, degree): 1}) if form.is_zero() else form


def test_packed_modular_rank_equals_the_dict_elimination(instances):
    forms = [inst.curve.form for inst in instances.values()]
    for conductor, degree in MOVED:
        forms += _moved_forms(conductor, degree)
    ctx = FieldContext(4)
    p = next(split_reductions(ctx, [], _PRIME_FLOOR)).p
    forms.append(HomoPoly.from_int_terms(ctx, 4, {(4, 0, 0): 1, (0, 4, 0): 1, (0, 0, 4): p}))
    # sparse forms, most of short rank, alternate with dense ones by degree,
    # and each degree gets a dense form at some conductors
    rng = random.Random(3457)
    for n, conductor in enumerate((1, 3, 4, 24, 210)):
        ctx = FieldContext(conductor)
        for degree in range(2, 9):
            forms.append(_random_form(rng, ctx, degree, (0.2, 1.0)[(n + degree) % 2]))
    # every coefficient p - 1 makes each entry of the partials large mod p,
    # which drives the slots towards their bound
    ctx = FieldContext(210)
    p = next(split_reductions(ctx, [], _PRIME_FLOOR)).p
    forms.append(HomoPoly.from_int_terms(ctx, 8, {e: p - 1 for e in _monomials(8)}))
    short = 0
    for form in forms:
        if form.context.lambda_sq is not None:
            assert not _full_rank_mod_p(form, 1)
            continue
        rank = _reference_rank_mod_p(form)
        assert _full_rank_mod_p(form, rank)
        assert not _full_rank_mod_p(form, rank + 1)
        short += rank < _target(form)
    assert 0 < short < len(forms)


def test_a_modular_verdict_at_one_root_would_be_unsound_over_k_times_k():
    # Q(i)[l], l^2 = 4, is K x K; F is X^4 + Y^4 + Z^4 at l = 2 and the
    # singular X^4 + Y^4 at l = -2
    base = FieldContext(4)
    ctx = base.extend_sqrt(base.from_int(4))
    coeff = (ctx.sqrt_generator() + 2) * Fraction(1, 4)
    one = ctx.one()
    form = HomoPoly(ctx, 4, {(4, 0, 0): one, (0, 4, 0): one, (0, 0, 4): coeff})
    with pytest.raises(ZeroDivisorEncountered):
        is_smooth(form)
    # the reduction sends l to 2 and F to the smooth Fermat quartic mod p, so
    # a certificate at that root would call F smooth
    red = next(split_reductions(ctx, [c.den for c in form.terms.values()], _PRIME_FLOOR))
    p = red.p
    assert (p, red.sqrt, red.element(coeff)) == (65537, 2, 1)
    partials = [
        {e: r for e, c in form.partial(v).terms.items() if (r := red.element(c))}
        for v in range(3)
    ]
    target = _target(form)
    assert _reference_full_rank(
        _rows(partials, 4), target, lambda x: pow(x, -1, p), lambda x: x % p
    )
    assert not _full_rank_mod_p(form, target)


def _count_inversions(monkeypatch):
    calls = []
    inverse = FieldElement.inverse

    def counted(self):
        calls.append(self)
        return inverse(self)

    monkeypatch.setattr(FieldElement, "inverse", counted)
    return calls


def test_moved_sextic_is_certified_without_field_inversions(monkeypatch):
    # the benchmark's fixed moved member: sextic_delta4 at a = 3/2, F(M x)
    base = catalog.make("sextic_delta4", a=Fraction(3, 2)).curve.form
    m = ProjMatrix.from_ints(base.context, ((1, 1, 1), (1, -1, 1), (1, 1, -1)))
    form = base.pullback(m)
    calls = _count_inversions(monkeypatch)
    assert is_smooth(form)
    assert calls == []


def test_quadratic_extension_gets_the_exact_verdict(monkeypatch):
    special = catalog.make("quartic_xy", a=6)  # Q(zeta_8)[l], l^2 = 2*sqrt(2)
    assert special.context.lambda_sq is not None

    def no_reduction(self, e):
        raise AssertionError("a quadratic extension must not be reduced mod p")

    monkeypatch.setattr(Reduction, "element", no_reduction)
    calls = _count_inversions(monkeypatch)
    assert is_smooth(special.curve.form)
    assert calls


def _family_quartic(a, b):
    # X^4 + Y^4 + Z^4 + a X^2 Y^2 + b (Y^2 Z^2 + X^2 Z^2), the quartic families
    ctx = FieldContext(4)
    terms = {(4, 0, 0): 1, (0, 4, 0): 1, (0, 0, 4): 1, (2, 2, 0): a, (0, 2, 2): b, (2, 0, 2): b}
    return HomoPoly(ctx, 4, {e: ctx.from_rational(c) for e, c in terms.items()})


# The singular members of the quartic families (quartic_xy: b = 0;
# quartic_symmetric: b = a; quartic_5family: any b), as (a, b).
SINGULAR_MEMBERS = [
    (2, 0), (-2, 0), (-1, -1), (2, 2), (-2, -2),
    (2, Fraction(5, 3)), (-2, Fraction(1, 2)), (Fraction(1, 3), -2), (7, 3),
    (Fraction(-7, 4), Fraction(-1, 2)),
]


def _seeded_forms():
    """Rational and zeta-coefficient forms, each also made singular at a moved (1 : 0 : 0)."""
    rng = random.Random(6151)
    forms = []
    for conductor in (1, 3, 4, 8, 12, 24):
        ctx = FieldContext(conductor)
        for degree in (3, 4):
            rational = {e: ctx.from_int(rng.choice((-2, -1, 1, 2))) for e in _monomials(degree)}
            powers = {e: ctx.zeta() ** rng.randrange(conductor) for e in rational}
            for terms in (rational, {e: c + powers[e] for e, c in rational.items()}):
                form = HomoPoly(ctx, degree, terms)
                low = {e: c for e, c in form.terms.items() if e[0] <= degree - 2}
                forms += [form, HomoPoly(ctx, degree, low).pullback(_random_invertible(rng, ctx))]
    return forms


@functools.cache
def _equivalence_cases():
    """Each form with its verdict by the exact rank over K."""
    forms = list(_singular_quartics())
    for conductor, degree in MOVED:
        forms += _moved_forms(conductor, degree)
    ctx = FieldContext(3)
    for d in (2, 3):  # (X^2 + Y^2)^d + Z^(2d), singular only at (1 : +-i : 0)
        terms = {(2 * i, 2 * d - 2 * i, 0): math.comb(d, i) for i in range(d + 1)}
        forms.append(HomoPoly.from_int_terms(ctx, 2 * d, {**terms, (0, 0, 2 * d): 1}))
    ctx = FieldContext(8)
    zeta, one = ctx.zeta(), ctx.one()
    singular = {(4, 0, 0): one, (2, 2, 0): zeta * 2, (0, 4, 0): zeta * zeta, (0, 0, 4): one}
    for form in (
        catalog.make("quartic_symmetric", a=zeta + 1).curve.form,
        HomoPoly(ctx, 4, singular),
    ):
        for k in (1, 5, 7):
            forms.append(HomoPoly(ctx, 4, {e: _conjugate(c, k) for e, c in form.terms.items()}))
    ctx = FieldContext(4)
    p = next(split_reductions(ctx, [], _PRIME_FLOOR)).p
    forms.append(HomoPoly.from_int_terms(ctx, 4, {(4, 0, 0): 1, (0, 4, 0): 1, (0, 0, 4): p}))
    rng = random.Random(35)
    for a, b in SINGULAR_MEMBERS:
        forms.append(_family_quartic(a, b).pullback(_random_invertible(rng, ctx)))
    forms += _seeded_forms()
    return tuple((form, _full_rank_exact(form, _target(form))) for form in forms)


def _first_primes(monkeypatch, count):
    """Let is_smooth see only the first `count` split primes, so that a
    verdict it cannot prove there ends the loop with None."""
    primes = smoothness.split_reductions
    monkeypatch.setattr(
        smoothness, "split_reductions", lambda *args: itertools.islice(primes(*args), count)
    )


def test_modular_verdicts_match_the_exact_rank(monkeypatch):
    cases = _equivalence_cases()
    assert {verdict for _, verdict in cases} == {True, False}
    _first_primes(monkeypatch, 8)
    for form, verdict in cases:
        assert is_smooth(form) is verdict


def _forbid_the_exact_rank(monkeypatch):
    def no_exact_rank(rows, target):
        raise AssertionError("a plain context must not take the exact rank")

    monkeypatch.setattr(smoothness, "_full_rank", no_exact_rank)


def test_plain_contexts_never_take_the_exact_rank(monkeypatch):
    singular = [form for form, verdict in _equivalence_cases() if not verdict]
    _forbid_the_exact_rank(monkeypatch)
    _first_primes(monkeypatch, 8)
    assert len(singular) > 30
    for form in singular:
        assert is_smooth(form) is False


def _dense_singular_octic():
    # over Q(zeta_3), two coordinates in -3..3 per coefficient and no
    # monomial of X-degree above 6, so all partials vanish at (1 : 0 : 0)
    rng = random.Random(8)
    ctx = FieldContext(3)
    coords = {e: [rng.randint(-3, 3), rng.randint(-3, 3)] for e in _monomials(8) if e[0] <= 6}
    return HomoPoly(ctx, 8, {e: ctx.from_int(a) + ctx.zeta() * b for e, (a, b) in coords.items()})


def test_dense_octics_at_the_degree_ceiling_are_proven_singular(monkeypatch):
    form = _dense_singular_octic()
    _forbid_the_exact_rank(monkeypatch)
    assert is_smooth(form) is False
    m = ProjMatrix.from_ints(form.context, ((1, 1, -1), (1, -1, 1), (-1, 1, 1)))
    assert is_smooth(form.pullback(m)) is False
