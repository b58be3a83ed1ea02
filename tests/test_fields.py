import dataclasses
import math
from types import SimpleNamespace

import numpy as np
import pytest

from lagmin.errors import SingularPoint
from lagmin.fields import (
    EllipticField,
    ExceptionalField,
    HyperbolicField,
    ParabolicField,
    RootQuarticField,
    fd_bilaplacian,
    make_bump_field,
    make_polynomial_field,
    pushforward_inversion,
    reduce_elliptic_field,
    sum_fields,
)
from lagmin.grammar import parse_field, parse_surface
from lagmin.surfaces import block_field

BIHARMONIC_TOL = 1e-9
VALUE_TOL = 1e-12

# hyperbolic(...)'s 19 spec keywords: the Cartesian names, each a
# multiple of one basis coefficient, then the radial basis
HYPERBOLIC_KEYS = ("a1", "a2", "a3", "b1", "b2", "c1", "c2",
                   *("%s%d" % (g, k) for g in ("alpha", "beta", "gamma")
                     for k in range(1, 5)))


def hyperbolic(coeffs):
    """The field of hyperbolic(...) keywords {name: value}, through the
    grammar: each value's repr parses back to the same float."""
    return parse_field("hyperbolic(%s)" % ",".join(
        "%s=%r" % (k, float(v)) for k, v in coeffs.items()))


# one representative of each closed family, fixed random coefficients
RNG = np.random.default_rng(20260823)
ELLIPTIC = EllipticField(*RNG.normal(size=12).round(3))
HYPERBOLIC = hyperbolic(dict(zip(HYPERBOLIC_KEYS,
                                 RNG.normal(size=19).round(3))))
PARABOLIC = ParabolicField(*RNG.normal(size=12).round(3))
EXCEPTIONAL = ExceptionalField(*RNG.normal(size=8).round(3))


def annulus_points(rng, n, lo=0.4, hi=2.5, min_abs_x=0.05):
    r = rng.uniform(lo, hi, n)
    t = rng.uniform(0, 2 * math.pi, n)
    x, y = r * np.cos(t), r * np.sin(t)
    # keep clear of the branch line x = 0 used by the angular factor
    x = np.where(np.abs(x) < min_abs_x, x + np.sign(x + 0.5) * 2 * min_abs_x, x)
    return x, y


@pytest.mark.parametrize(
    "field", [ELLIPTIC, HYPERBOLIC, PARABOLIC, EXCEPTIONAL], ids=lambda f: f.family
)
def test_family_fields_have_vanishing_bilaplacian(field):
    rng = np.random.default_rng(1)
    x, y = annulus_points(rng, 400)
    vals = field.bilaplacian(x, y)
    assert np.max(np.abs(vals)) < BIHARMONIC_TOL


@pytest.mark.parametrize("cls", [EllipticField, HyperbolicField,
                                 ParabolicField], ids=lambda c: c.family)
def test_each_coefficient_of_a_linear_family_is_its_own_field(cls):
    # the unit fields' order-2 jets at 400 points have full rank, so no
    # coefficient states a multiple of another's field; the normalised
    # columns' smallest singular value is 0.21 or more, and a repeated
    # coefficient gives 1e-16
    names = [f.name for f in dataclasses.fields(cls) if not f.kw_only]
    x, y = annulus_points(np.random.default_rng(5), 400)
    A = np.column_stack([cls(**{k: 1.0}).jet(x, y, 2).d.ravel()
                         for k in names])
    s = np.linalg.svd(A / np.linalg.norm(A, axis=0), compute_uv=False)
    assert np.sum(s > 1e-10 * s[0]) == len(names) == 12


def test_elliptic_frozen_value():
    F = EllipticField(a1=1.0, a3=-1.0)
    assert abs(F.value(1.0, 1.0) - math.pi / 4) < VALUE_TOL


def test_remark_counterexample_values():
    F = RootQuarticField()
    assert abs(F.value(0.0, 0.0) - 1.0) < VALUE_TOL
    # frozen: 41/128, computed once from the exact fourth derivatives
    assert abs(F.bilaplacian(1.0, 1.0) - 0.3203125) < 1e-9
    assert abs(F.bilaplacian(1.0, 1.0)) > 1e-3


def test_gradient_and_laplacian_channels():
    F = make_polynomial_field({(2, 0): 1.0, (0, 2): 3.0, (1, 1): -2.0})
    g = F.gradient(1.0, 2.0)
    assert np.allclose(g, (2.0 - 4.0, 12.0 - 2.0), atol=VALUE_TOL)
    j = F.jet(1.0, 2.0, 2)
    assert abs(j.entry(2, 0) + j.entry(0, 2) - 8.0) < VALUE_TOL


def test_singular_guard_raises_and_masks():
    F = EllipticField(a1=1.0, a3=-1.0, guard=1e-3)
    assert not F.is_safe(0.0, 0.0)
    assert F.is_safe(0.5, 0.5)
    with pytest.raises(SingularPoint):
        F.jet(0.0, 0.0, 2)
    assert F.excluded() == ((0.0, 0.0, 0.0),)


def test_branch_shifts_angular_multiple():
    F = EllipticField(a3=1.0)  # F = Arctan(y/x)
    base = F.value(1.0, 1.0)
    up = EllipticField(a3=1.0, branch=1).value(1.0, 1.0)
    assert abs(up - base - math.pi) < VALUE_TOL
    # the elliptic Arctan is the only term a branch shifts
    for cls in (HyperbolicField, ParabolicField, ExceptionalField,
                RootQuarticField):
        assert "branch" not in {f.name for f in dataclasses.fields(cls)}


def test_fd_stencil_examples():
    Fq = make_polynomial_field({(4, 0): 1.0})
    assert abs(fd_bilaplacian(Fq, 0.3, -1.1, 1e-2) - 24.0) < 1e-6
    Fc = make_polynomial_field({(2, 1): 1.0})
    assert abs(fd_bilaplacian(Fc, 0.3, -1.1, 1e-2)) < 1e-8
    Fe = EllipticField(a1=1.0, a3=-1.0)
    assert abs(fd_bilaplacian(Fe, 2.0, 1.0, 1e-3)) < 1e-4


@pytest.mark.parametrize("h", [1e-2, 5e-3, 2.5e-3])
def test_fd_stencil_on_sextic_keeps_its_truncation_error(h):
    # the 13-point stencil on x^6 gives 360x^2 + 120h^2 exactly: the h^2
    # term shows the estimate differences node values, not the jet
    F = make_polynomial_field({(6, 0): 1.0})
    expected = 360.0 * 0.7**2 + 120.0 * h * h
    assert abs(fd_bilaplacian(F, 0.7, 0.3, h) - expected) < 1e-8


def test_fd_stencil_on_sum_of_polynomials_is_exact():
    # P = -0.2x^5 + 0.6x^2y^2 + 1.1x^3y + 3: the sum states P's monomials,
    # so its node increments are formed without cancellation
    P = make_polynomial_field({(5, 0): -0.2, (2, 2): 0.6, (3, 1): 1.1,
                               (0, 0): 3.0})
    S = sum_fields([(1.0, P)])
    x, y, h = 1.9, -1.7, 2.5e-3
    assert abs(fd_bilaplacian(S, x, y, h) - P.bilaplacian(x, y)) < 1e-8


def test_sum_field_monomials_need_every_term():
    P = make_polynomial_field({(2, 1): 1.0, (0, 0): 2.0})
    Q = make_polynomial_field({(2, 1): 3.0})
    assert sum_fields([(2.0, P), (-1.0, Q)]).monomials() == {
        (2, 1): -1.0, (0, 0): 4.0}
    assert sum_fields([(1.0, P), (1.0, ELLIPTIC)]).monomials() is None


def test_a_convolution_field_names_its_terms_guard():
    # the terms mask at the parsed guard, so the sum's guard is that one
    F = parse_surface("conv(1*r1,0.5*r4)", guard=0.5).field
    assert F.guard == 0.5
    with pytest.raises(SingularPoint, match="inside the 0.5 singular guard"):
        F.jet(0.1, 0.2)
    with pytest.raises(SingularPoint,
                       match="stencil box overlaps a singular locus"):
        fd_bilaplacian(F, 0.45, 0.0, 1e-3)
    # a term without a singular center has no say
    bump = make_bump_field((0.0, 0.0), 1.0, 1.0).with_guard(2.0)
    assert sum_fields([(1.0, F), (1.0, bump)]).guard == 0.5


@pytest.mark.parametrize("g", [1e-6, 0.3])
@pytest.mark.parametrize("name, theta", [("r5", 0.0), ("r6", 0.4)])
def test_r5_and_r6_fields_exclude_their_fold_band(name, theta, g):
    # the fold circle |p| = 1 is the field's datum, so the field itself
    # masks the band and refuses a jet there
    F = block_field(name, theta).with_guard(g)
    assert F.excluded() == ((0.0, 0.0, 0.0), (0.0, 0.0, 1.0))
    ang = np.linspace(0.0, 2.0 * math.pi, 7, endpoint=False)
    x, y = np.cos(ang), np.sin(ang)
    for rad in (1.0 - 0.49 * g, 1.0, 1.0 + 0.49 * g):
        assert not np.any(F.is_safe(rad * x, rad * y))
        with pytest.raises(SingularPoint):
            F.jet(rad * x, rad * y)
        with pytest.raises(SingularPoint):
            F.jet(rad * x[2], rad * y[2])
    for rad in (1.0 - 2.0 * g, 1.0 + 2.0 * g):
        assert np.all(F.is_safe(rad * x, rad * y))


def test_fd_stencil_refuses_a_box_over_the_fold_band():
    F = block_field("r5")
    h = 1e-3
    # no node is in the band, but the box reaches 2.83e-3 past it
    with pytest.raises(SingularPoint,
                       match="stencil box overlaps a singular locus"):
        fd_bilaplacian(F, 1.0025, 0.0, h)
    with pytest.raises(SingularPoint,
                       match="stencil box overlaps a singular locus"):
        fd_bilaplacian(F, 0.0, -0.9975, h)
    assert abs(fd_bilaplacian(F, 1.004, 0.0, h)) < 1e-3


def test_a_sum_excludes_the_union_of_its_terms_loci():
    F = parse_surface("conv(1*r1,0.3*r5,0.2*r8)").field
    assert F.excluded() == ((0.0, 0.0, 0.0), (0.0, 0.0, 0.0),
                            (0.0, 0.0, 1.0))
    assert not F.is_safe(0.6, 0.8) and F.is_safe(0.6, 0.7)


def test_fd_stencil_error_drops_by_four_per_halving():
    F = HYPERBOLIC
    x, y = 1.3, 0.8
    e1 = abs(fd_bilaplacian(F, x, y, 2e-2) - F.bilaplacian(x, y))
    e2 = abs(fd_bilaplacian(F, x, y, 1e-2) - F.bilaplacian(x, y))
    assert e1 / e2 == pytest.approx(4.0, rel=0.35)


def test_kelvin_pushforward_value_matches_substitution():
    G = pushforward_inversion(ELLIPTIC)
    rng = np.random.default_rng(8)
    x, y = annulus_points(rng, 50)
    r2 = x * x + y * y
    want = r2 * ELLIPTIC.value(x / r2, y / r2)
    assert np.allclose(G.value(x, y), want, atol=1e-10)


def test_kelvin_is_an_involution():
    G = pushforward_inversion(ELLIPTIC)
    F2 = pushforward_inversion(G)
    assert abs(F2.value(1.3, -0.8) - ELLIPTIC.value(1.3, -0.8)) < 1e-10


def test_kelvin_preserves_biharmonicity():
    G = pushforward_inversion(HYPERBOLIC)
    rng = np.random.default_rng(13)
    x, y = annulus_points(rng, 100)
    assert np.max(np.abs(G.bilaplacian(x, y))) < 1e-7


def test_reduction_kills_redundant_coefficients():
    reduced, psi, removed = reduce_elliptic_field(ELLIPTIC)
    for name in ("a4", "b3", "c3", "d1", "d2"):
        assert getattr(reduced, name) == 0.0
    assert set(removed) == {"rsq", "x", "y", "const"}


def test_reduction_identity_up_to_branch_wraps():
    reduced, psi, removed = reduce_elliptic_field(ELLIPTIC)
    cs, sn = math.cos(psi), math.sin(psi)
    rng = np.random.default_rng(40)
    gap = 0.0
    checked = 0
    for _ in range(60):
        r = rng.uniform(0.3, 3.0)
        t = rng.uniform(0, 2 * math.pi)
        px, py = r * math.cos(t), r * math.sin(t)
        rx, ry = cs * px + sn * py, -sn * px + cs * py
        if abs(rx) < 0.05 or abs(px) < 0.05:
            continue
        lhs = ELLIPTIC.value(rx, ry)
        # rotating shifts the angle by psi modulo whole turns of the branch
        alpha = math.atan(ry / rx)
        beta = math.atan(py / px)
        k = round((alpha - (beta - psi)) / math.pi)
        r2 = px * px + py * py
        afac = ELLIPTIC.a1 * r2 + reduced.a2 * px + ELLIPTIC.a3
        rhs = (
            reduced.value(px, py)
            + removed["rsq"] * r2
            + removed["x"] * px
            + removed["y"] * py
            + removed["const"]
            + k * math.pi * afac
        )
        gap = max(gap, abs(lhs - rhs))
        checked += 1
    assert checked > 30
    assert gap < 1e-9


def test_sum_and_bump_fields():
    F = sum_fields(
        [
            (2.0, make_polynomial_field({(1, 0): 1.0})),
            (1.0, make_polynomial_field({(0, 1): 1.0})),
        ]
    )
    assert abs(F.value(3.0, 4.0) - 10.0) < VALUE_TOL
    bump = make_bump_field((1.0, 0.0), 0.5, 2.0)
    assert abs(bump.value(2.0, 2.0)) < VALUE_TOL  # compact support
    assert abs(bump.value(1.0, 0.0) - 2.0) < VALUE_TOL
    j = bump.jet(1.0, 0.0, 4)
    assert np.isfinite(j.d).all()


@pytest.mark.parametrize(
    "F",
    [
        EllipticField(c1=2.3, c2=-1.7, c3=3.1, d1=0.9, d2=-2.2),
        parse_field("hyperbolic(c1=0.7,c2=-1.3,alpha1=0.4,beta1=-0.9,"
                    "alpha4=0.5,beta4=1.1,gamma1=2.0,gamma2=-0.6)"),
    ],
)
def test_fd_stencil_on_polynomial_only_families_is_exact(F):
    # with no Arctan, log or inverse term the field states its monomials,
    # so the stencil forms its node increments without cancellation
    x, y, h = 1.9, -1.7, 2.5e-3
    assert abs(fd_bilaplacian(F, x, y, h) - F.bilaplacian(x, y)) < 1e-8


# -- stated families: P0 + Σ Pk·gk written once per family -------------


def _reference_jet(F, x, y, order, spelled=None):
    """Each stated family's jet written out by hand, term by term, in the
    order the family states them; a hyperbolic field's from the 19
    keywords `spelled` that built it, in the Cartesian form they name."""
    from lagmin.jets import (jet_arctan_ratio, jet_log_rsq, jet_polynomial,
                             jet_rsq)

    def nonzero(*vals):
        return any(v != 0.0 for v in vals)

    if F.family == "elliptic":
        out = jet_polynomial(x, y, {(0, 2): F.c1, (1, 1): F.c2, (2, 0): F.c3,
                                    (1, 0): F.d1, (0, 1): F.d2}, order)
        if nonzero(F.a1, F.a2, F.a3, F.a4):
            factor = jet_polynomial(x, y, {(2, 0): F.a1, (0, 2): F.a1,
                                           (1, 0): F.a2, (0, 0): F.a3,
                                           (0, 1): F.a4}, order)
            out = out + factor * jet_arctan_ratio(x, y, order, F.branch)
        if nonzero(F.b1, F.b2, F.b3):
            num = jet_polynomial(
                x, y, {(0, 2): F.b1, (1, 1): F.b2, (2, 0): F.b3}, order)
            out = out + num * jet_rsq(x, y, order).reciprocal()
        return out
    if F.family == "hyperbolic":
        F = SimpleNamespace(**(dict.fromkeys(HYPERBOLIC_KEYS, 0.0) | spelled))
        out = jet_polynomial(x, y, {
            (3, 0): F.c2 + F.alpha4, (1, 2): F.c2 + F.alpha4,
            (2, 1): F.c1 + F.beta4, (0, 3): F.c1 + F.beta4,
            (1, 0): F.alpha1, (0, 1): F.beta1, (0, 0): F.gamma1,
            (2, 0): F.gamma2, (0, 2): F.gamma2}, order)
        logc = {(2, 0): F.a1 + 0.5 * F.gamma4, (0, 2): F.a1 + 0.5 * F.gamma4,
                (1, 0): F.a2 + 0.5 * F.alpha2, (0, 1): 0.5 * F.beta2,
                (0, 0): F.a3 + 0.5 * F.gamma3}
        if nonzero(*logc.values()):
            out = out + jet_polynomial(x, y, logc, order) * jet_log_rsq(
                x, y, order)
        invc = {(1, 0): F.b2 + F.alpha3, (0, 1): F.b1 + F.beta3}
        if nonzero(*invc.values()):
            out = out + jet_polynomial(x, y, invc, order) * jet_rsq(
                x, y, order).reciprocal()
        return out
    if F.family == "parabolic":
        return jet_polynomial(x, y, {
            (0, 2): F.alpha0, (1, 2): F.alpha1, (2, 2): F.alpha2,
            (3, 2): F.alpha3, (0, 1): F.beta0, (1, 1): F.beta1,
            (2, 1): F.beta2, (3, 1): F.beta3, (0, 0): F.gamma0,
            (1, 0): F.gamma1, (2, 0): F.gamma2, (3, 0): F.gamma3,
            (4, 0): -F.alpha2 / 3.0, (5, 0): -F.alpha3 / 5.0}, order)
    assert F.family == "polynomial"
    return jet_polynomial(x, y, dict(F.coeffs), order)


_ELLIPTIC_SINGULAR = ("a1", "a2", "a3", "a4", "b1", "b2", "b3")
_HYPERBOLIC_SINGULAR = ("a1", "a2", "a3", "b1", "b2", "alpha2", "alpha3",
                        "beta2", "beta3", "gamma3", "gamma4")


def _stated_cases():
    """(field, the hyperbolic(...) keywords that built it, or None)."""
    from lagmin.fields import EllipticField, HyperbolicField, PolynomialField

    rng = np.random.default_rng(20261018)
    cases = []
    for cls, n, singular in ((EllipticField, 12, _ELLIPTIC_SINGULAR),
                             (HyperbolicField, 12, _HYPERBOLIC_SINGULAR)):
        names = [f.name for f in dataclasses.fields(cls) if not f.kw_only]
        assert len(names) == n
        if cls is HyperbolicField:
            names = HYPERBOLIC_KEYS

            def build(kw):
                return hyperbolic(kw), kw
        else:
            def build(kw):
                return cls(**kw), None
        coeffs = dict(zip(names, rng.normal(size=len(names)).round(3)))
        regular = {k: (0.0 if k in singular else v) for k, v in coeffs.items()}
        cases.append(build(coeffs))
        if cls is EllipticField:
            cases.append((cls(**coeffs, branch=1), None))
        cases.append(build(regular))
        cases.append(build({k: (-0.0 if k in singular else v)
                            for k, v in coeffs.items()}))
        cases.append(build({k: -0.0 for k in names}))
        # one nonzero singular coefficient at a time
        cases += [build(regular | {k: coeffs[k]}) for k in singular]
    cases += [(F, None) for F in (
        ParabolicField(*rng.normal(size=12).round(3)),
        ParabolicField(*([-0.0] * 12)),
        ParabolicField(),
        make_polynomial_field(
            {(p, q): c for (p, q), c in zip([(0, 0), (3, 1), (1, 4), (2, 2)],
                                            rng.normal(size=4).round(3))}),
        PolynomialField((((0, 0), -0.0), ((2, 1), 1.5), ((1, 3), -0.0))),
        PolynomialField(()),
    )]
    return cases


STATED = _stated_cases()


@pytest.mark.parametrize("case", STATED, ids=lambda case: case[0].family)
def test_stated_families_derive_centers_monomials_and_jet(case):
    from lagmin.jets import jet_polynomial

    F, spelled = case
    rng = np.random.default_rng(3)
    mono = F.monomials()
    assert (F.excluded() == ()) == (mono is not None)
    for shape in ((), (7,)):
        r = rng.uniform(0.3, 2.0, shape)
        t = rng.uniform(0.0, 2.0 * math.pi, shape)
        x = np.asarray(r * np.cos(t))
        y = np.asarray(r * np.sin(t))
        for order in range(5):
            got = F.jet(x, y, order).d
            want = _reference_jet(F, x, y, order, spelled).d
            assert got.shape == want.shape
            assert np.array_equal(got, want)
            assert np.array_equal(np.signbit(got), np.signbit(want))
            if mono is not None:
                poly = jet_polynomial(x, y, mono, order).d
                assert np.array_equal(got, poly)
                assert np.array_equal(np.signbit(got), np.signbit(poly))


def test_every_grammar_family_is_a_stated_field():
    from lagmin.fields import StatedField
    from lagmin.grammar import _FIELD_CLASSES

    for cls in _FIELD_CLASSES.values():
        assert issubclass(cls, StatedField), cls.__name__


# -- the exceptional family, stated about its centre (c, d) -------------


def _hand_built_exceptional_jet(F, x, y, order):
    """The exceptional jet as it was written before the family became a
    `StatedField`: (u·u·B + (u·v)·C + v·v·D)·1/(u·u + v·v) built from the
    shifted coordinate jets u = x − c and v = y − d."""
    from lagmin.jets import jet_polynomial, jet_xy

    out = jet_polynomial(x, y, {
        (2, 0): F.A, (0, 2): F.A, (1, 0): -2.0 * F.A * F.a,
        (0, 1): -2.0 * F.A * F.b,
        (0, 0): F.A * (F.a * F.a + F.b * F.b)}, order)
    if any(v != 0.0 for v in (F.B, F.C, F.D)):
        jx, jy = jet_xy(x, y, order)
        ju = jx - F.c
        jv = jy - F.d
        u2 = ju * ju
        v2 = jv * jv
        num = u2 * F.B + (ju * jv) * F.C + v2 * F.D
        out = out + num * (u2 + v2).reciprocal()
    return out


def _exceptional_cases():
    rng = np.random.default_rng(20261020)
    coeffs = [rng.normal(size=8).round(3) for _ in range(4)]
    with_c = [ExceptionalField(*k) for k in coeffs]
    without_c = [dataclasses.replace(F, C=0.0) for F in with_c]
    without_c += [ExceptionalField(c=0.5, d=-0.3, B=1.0, C=-0.0, D=2.0),
                  ExceptionalField(a=0.3, b=-0.2, c=0.5, d=0.1, A=0.7)]
    return with_c, without_c


@pytest.mark.parametrize("dtype", [np.float64, np.longdouble])
def test_exceptional_jet_matches_the_hand_built_one(dtype):
    # (C·u)·v rounds where (u·v)·C did, so C ≠ 0 moves entries by a few
    # eps of the entry's largest value over the points: at most 4.6 eps in
    # float64 and 6.4 eps in 80-bit long double over 20 random fields at
    # orders 0–4; with C = 0 only the signs of zeros may differ
    with_c, without_c = _exceptional_cases()
    eps = np.finfo(dtype).eps
    rng = np.random.default_rng(11)
    for F in with_c + without_c:
        r = rng.uniform(0.3, 2.0, 9)
        t = rng.uniform(0.0, 2.0 * math.pi, 9)
        x = (F.c + r * np.cos(t)).astype(dtype)
        y = (F.d + r * np.sin(t)).astype(dtype)
        for order in range(5):
            got = F.jet(x, y, order).d
            want = _hand_built_exceptional_jet(F, x, y, order).d
            assert got.dtype == want.dtype == dtype
            if F in without_c:
                assert np.array_equal(got, want)
            else:
                scale = np.max(np.abs(want), axis=-1, keepdims=True)
                assert np.all(np.abs(got - want) <= 16 * eps * scale)


def test_an_exceptional_paraboloid_is_its_polynomial():
    # B = C = D = 0 leaves A((x−a)² + (y−b)²): no centre to exclude, and
    # the stencil forms its node increments monomial by monomial
    F = ExceptionalField(a=0.3, b=-0.2, c=0.5, d=0.1, A=0.7)
    assert F.excluded() == ()
    assert F.monomials() == {(2, 0): 0.7, (0, 2): 0.7, (1, 0): -2.0 * 0.7 * 0.3,
                             (0, 1): -2.0 * 0.7 * -0.2,
                             (0, 0): 0.7 * (0.3 * 0.3 + 0.2 * 0.2)}
    # differencing the node values instead gives 4.4e-8 here
    assert abs(fd_bilaplacian(F, 1.9, -1.7, 2.5e-3)) < 1e-9
    G = dataclasses.replace(F, C=0.4)
    assert G.excluded() == ((0.5, 0.1, 0.0),) and G.monomials() is None
