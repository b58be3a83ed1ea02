import math
from types import SimpleNamespace

import numpy as np
import pytest

from lagmin.errors import (
    BadFit,
    DegenerateCone,
    DependentCircles,
    EmptyIntersection,
    NotLinearOnCircle,
    TooFew,
)
from lagmin.fields import (
    EllipticField,
    HyperbolicField,
    RootQuarticField,
    make_polynomial_field,
)
from lagmin.grammar import parse_field
from lagmin.pencils import (
    Cycle,
    _circle_points,
    _fit_linear,
    classification_report,
    classify_family,
    fit_nested,
    gauss_circle_of_cone,
    gauss_pencil_of_cones,
    isotropic_circle_residual,
    parse_cycle_lines,
    recover_crossing,
)
from lagmin.surfaces import CycloLine, cyclographic_preimage

RECOVER_TOL = 1e-9
CARRIED_TOL = 1e-13      # a field on a cycle it carries reads rounding only
CENTER_TOL = 1e-9        # linearity residual in center_constraint_check
CENTER_SAMPLES = 60      # points on the circle center_constraint_check samples


def center_constraint_check(A, B, C, a, b, c, S: Cycle) -> bool:
    """Is (x^2+y^2)(Ax+By+C) + ax+by+c linear along the circle S?

    For A^2 + B^2 != 0 this holds exactly when S is centered at the
    origin; with A = B = 0 the function is affine plus a multiple of
    x^2+y^2 and the restriction is linear on every circle.  The converse
    half of the nested-circle lemma that `fit_nested` fits; the package
    has no caller for it.
    """
    if S.a == 0.0 or S.q() <= 0.0:
        raise ValueError("S must be a genuine circle")
    pts = _circle_points(S.center(), S.radius(), CENTER_SAMPLES)
    x, y = pts[:, 0], pts[:, 1]
    r2 = x * x + y * y
    vals = r2 * (A * x + B * y + C) + a * x + b * y + c
    _, resid = _fit_linear(pts, vals)
    return resid < CENTER_TOL


def circle_samples(center, radius, fn, n=50):
    th = np.linspace(0, 2 * np.pi, n, endpoint=False)
    pts = np.column_stack(
        [center[0] + radius * np.cos(th), center[1] + radius * np.sin(th)]
    )
    return pts, fn(pts[:, 0], pts[:, 1])


def test_cycle_from_circle_and_back():
    c = Cycle.from_circle((2.0, -1.0), 1.5)
    assert np.allclose(c.center(), (2.0, -1.0), atol=1e-12)
    assert abs(c.radius() - 1.5) < 1e-12
    th = np.linspace(0, 2 * np.pi, 7)
    x = 2.0 + 1.5 * np.cos(th)
    y = -1.0 + 1.5 * np.sin(th)
    assert np.max(np.abs(c.evaluate(x, y))) < 1e-12


def test_concentric_family_is_hyperbolic_with_origin_limit():
    pc = classify_family([Cycle(1, 0, 0, -r) for r in (1.0, 2.0, 3.0)])
    assert pc.tag == "hyperbolic"
    finite = [p for p in pc.base_points if p is not None]
    assert any(np.allclose(p, (0.0, 0.0), atol=1e-12) for p in finite)
    assert any(p is None for p in pc.base_points)  # the ideal limit point


def test_common_points_family_is_elliptic():
    pc = classify_family([Cycle(1, 0, c, -1) for c in (0.0, 1.0, 2.0)])
    assert pc.tag == "elliptic"
    bp = sorted(tuple(round(t, 9) for t in p) for p in pc.base_points)
    assert bp == [(-1.0, 0.0), (1.0, 0.0)]


@pytest.mark.parametrize("point", [(0.0, 0.0), (1.0, 2.0)])
def test_a_pencil_of_lines_meets_at_a_point_and_the_ideal_point(point):
    # three lines through one point: the pencil's second common point is
    # the ideal one, reported last as null like a hyperbolic ideal limit
    x, y = point
    lines = [Cycle(0.0, 1.0, 0.0, -x), Cycle(0.0, 0.0, 1.0, -y),
             Cycle(0.0, 1.0, 1.0, -x - y)]
    pc = classify_family(lines)
    assert pc.tag == "elliptic" and len(pc.base_points) == 2
    assert np.allclose(pc.base_points[0], point, atol=1e-12)
    assert classification_report(pc)["base_points"][1] is None


def test_a_row_whose_norm_overflows_is_classified_as_scaled():
    # |(1e308, 1e308, 1e308, 1e308)| overflows; scaled to (1, 1, 1, 1) the
    # family is no pencil, to the last bit of its singular values
    circles = [Cycle.from_circle((0.0, 0.0), r) for r in (1.0, 2.0)]
    big = classify_family([Cycle(*[1e308] * 4)] + circles)
    assert big.tag == "not-a-pencil"
    assert big == classify_family([Cycle(1.0, 1.0, 1.0, 1.0)] + circles)


def test_tangent_family_is_parabolic():
    pc = classify_family([Cycle(1, 0, -t, 0) for t in (1.0, 2.0, 3.0)])
    assert pc.tag == "parabolic"
    assert np.allclose(pc.base_points[0], (0.0, 0.0), atol=1e-12)


def test_nested_quartic_family_is_not_a_pencil():
    cycles = [
        Cycle(1.0, -t, 0.0, -math.sqrt(t * t - 1.0)) for t in (1.0, 1.25, 1.5, 2.0)
    ]
    pc = classify_family(cycles)
    assert pc.tag == "not-a-pencil"
    assert pc.rank == 3


def test_two_cycles_are_too_few():
    with pytest.raises(TooFew):
        classify_family([Cycle(1, 0, 0, -1), Cycle(1, 0, 0, -2)])


def test_classification_invariant_under_scaling_and_relabeling():
    rng = np.random.default_rng(11)
    for _ in range(200):
        c1 = rng.normal(size=4)
        c2 = rng.normal(size=4)
        lams = rng.normal(size=4)
        tag0 = classify_family([Cycle(*(c1 + l * c2)) for l in lams]).tag
        scales = rng.choice([-3.0, 0.5, 2.0, -0.1], size=4)
        perm = rng.permutation(4)
        cycles = [Cycle(*(scales[i] * (c1 + lams[perm[i]] * c2))) for i in range(4)]
        assert classify_family(cycles).tag == tag0


# fields and the cycles of their pencils, or of another pencil; ELLIPTIC is
# the seeded elliptic field of tests/test_fields.py
ELLIPTIC = EllipticField(*np.random.default_rng(20260823).normal(size=12).round(3))
RADIAL = HyperbolicField(gamma1=-1.0, gamma2=-1.0, gamma3=-1.0, gamma4=1.0)
PARABOLIC = parse_field("parabolic(alpha0=1,alpha2=0.4,beta1=0.6,gamma0=0.3,"
                        "gamma3=0.1)")
CARRIED = {
    "radial-circle": (RADIAL, Cycle(1, 0, 0, -4)),
    "elliptic-line-through-0": (ELLIPTIC, Cycle(0, 2, -1, 0)),
    # the quartic counterexample is linear on its own nested circles
    "root-quartic-circle": (RootQuarticField(),
                            Cycle(1, -2, 0, -math.sqrt(3.0))),
    "hyperbolic-circle-about-0": (
        HyperbolicField(a2=0.3, c1=0.4, alpha1=1, beta2=0.5, gamma1=0.2),
        Cycle.from_circle((0.0, 0.0), 1.5)),
    "parabolic-vertical-line": (PARABOLIC, Cycle(0, 1, 0, -0.7)),
}
CONTROLS = {
    "x4-unit-circle": (make_polynomial_field({(4, 0): 1.0}),
                       Cycle(1, 0, 0, -1)),
    "radial-off-centre": (RADIAL, Cycle(1, -1, 0, -3)),
    "elliptic-line-missing-0": (ELLIPTIC, Cycle(0, 2, -1, 1)),
    # an axis-parallel line, where D3F[t, t, t] is a single term
    "x3-x-axis": (make_polynomial_field({(3, 0): 1.0}), Cycle(0, 0, 1, 0)),
    "parabolic-horizontal-line": (PARABOLIC, Cycle(0, 0, 1, -0.7)),
}


@pytest.mark.parametrize("case", sorted(CARRIED))
def test_a_field_carries_the_isotropic_circles_of_its_pencil(case):
    F, cycle = CARRIED[case]
    assert isotropic_circle_residual(F, cycle) <= CARRIED_TOL


@pytest.mark.parametrize("case", sorted(CONTROLS))
def test_a_cycle_off_the_pencil_leaves_the_identity(case):
    F, cycle = CONTROLS[case]
    assert isotropic_circle_residual(F, cycle) > 1e-2


@pytest.mark.parametrize("F, cycle", [
    (ELLIPTIC, Cycle(1, 0, 0, 1)),              # imaginary circle
    (ELLIPTIC, Cycle(0, 0, 0, 1)),              # no locus at all
    # every point of the radius-0.5 circle lies inside the 0.6 guard
    (EllipticField(a1=1, a3=-1).with_guard(0.6),
     Cycle.from_circle((0.0, 0.0), 0.5)),
], ids=["empty", "no-locus", "guarded"])
def test_the_circle_residual_needs_a_point_of_the_cycle(F, cycle):
    with pytest.raises(EmptyIntersection):
        isotropic_circle_residual(F, cycle)


def test_recover_crossing_round_trip():
    F = lambda x, y: 2.0 * ((x - 1.0) ** 2 + y**2) + 3.0
    centers = [(0, 0), (3, 0), (0, 3)]
    circles = [Cycle.from_circle(c, 2.0) for c in centers]
    samples = [circle_samples(c, 2.0, F) for c in centers]
    got = recover_crossing(circles, samples)
    assert np.allclose(got, (2, 1, 0, 3), atol=RECOVER_TOL)


def test_recover_crossing_constant_field():
    centers = [(0, 0), (3, 0), (0, 3)]
    circles = [Cycle.from_circle(c, 2.0) for c in centers]
    samples = [circle_samples(c, 2.0, lambda x, y: 0 * x + 5.0) for c in centers]
    got = recover_crossing(circles, samples)
    assert got[0] == 0.0 and abs(got[3] - 5.0) < RECOVER_TOL


def test_recover_crossing_random_round_trips():
    rng = np.random.default_rng(19)
    centers = [(0, 0), (2.5, 0.3), (0.4, 2.5), (-2.0, 1.0)]
    circles = [Cycle.from_circle(c, 1.7) for c in centers]
    worst = 0.0
    for _ in range(10):
        A, a, b, B = rng.normal(size=4)
        fn = lambda x, y: A * ((x - a) ** 2 + (y - b) ** 2) + B
        samples = [circle_samples(c, 1.7, fn) for c in centers]
        got = recover_crossing(circles, samples)
        worst = max(worst, np.max(np.abs(np.asarray(got) - (A, a, b, B))))
    assert worst < 1e-7


def test_recover_crossing_rejects_quartic():
    centers = [(0, 0), (3, 0), (0, 3)]
    circles = [Cycle.from_circle(c, 2.0) for c in centers]
    samples = [circle_samples(c, 2.0, lambda x, y: x**4) for c in centers]
    with pytest.raises(NotLinearOnCircle):
        recover_crossing(circles, samples)


def test_recover_crossing_rejects_pencil_input():
    circles = [Cycle(1, 0, 0, -r) for r in (1.0, 2.0, 3.0)]
    samples = [
        circle_samples((0, 0), math.sqrt(r), lambda x, y: 0 * x + 1.0)
        for r in (1.0, 2.0, 3.0)
    ]
    with pytest.raises(DependentCircles):
        recover_crossing(circles, samples)


def test_fit_nested_round_trip():
    poly = make_polynomial_field(
        {(3, 0): 1.0, (1, 2): 1.0, (2, 0): 2.0, (0, 2): 2.0, (0, 1): 3.0}
    )
    got = fit_nested(poly)
    assert np.allclose(got, (1, 0, 2, 0, 3, 0), atol=RECOVER_TOL)
    zero = make_polynomial_field({})
    assert np.allclose(fit_nested(zero), 0.0, atol=RECOVER_TOL)


def test_fit_nested_rejects_log_field():
    logf = HyperbolicField(gamma4=1.0)  # (x²+y²) ln(x²+y²)
    with pytest.raises(BadFit):
        fit_nested(logf)


def test_center_constraints():
    assert center_constraint_check(1, 0, 0, 0, 0, 0, Cycle.from_circle((0, 0), 2.0))
    assert not center_constraint_check(1, 0, 0, 0, 0, 0, Cycle.from_circle((1, 0), 1.0))
    assert center_constraint_check(0, 0, 1, 0, 0, 0, Cycle.from_circle((3, 2), 1.5))


def test_gauss_images_of_cone_families():
    vertical = SimpleNamespace(
        line=lambda p: CycloLine((0, 0, 0, 0), (0, 0, 1, 0.2 + 0.1 * p)))
    pc = gauss_pencil_of_cones(vertical, samples=7)
    assert pc.tag == "hyperbolic"
    pc = gauss_pencil_of_cones(cyclographic_preimage("R1"), samples=9)
    assert pc.tag == "elliptic"
    with pytest.raises(DegenerateCone):
        gauss_circle_of_cone(CycloLine((0, 0, 0, 0), (0, 0, 0, 1.0)))
    with pytest.raises(TooFew):
        gauss_pencil_of_cones(vertical, samples=2)


def test_parse_and_report_round_trip():
    txt = (
        '{"a":1,"b":0,"c":0,"d":-1}\n\n'
        '{"a":1,"b":0,"c":0,"d":-2}\n'
        '{"center":[0,0],"radius":1.7320508075688772}\n'
    )
    cycles = parse_cycle_lines(txt)
    assert len(cycles) == 3
    rep = classification_report(classify_family(cycles))
    assert rep["tag"] == "hyperbolic"
    assert rep["rank"] == 2
    assert len(rep["singular_values"]) >= 3


def test_parse_rejects_bad_lines():
    with pytest.raises(ValueError):
        parse_cycle_lines('{"a":1,"b":0}\n')
