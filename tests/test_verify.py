"""Certification helpers: curvature, energy, residual checks and reports."""
import json
import math

import numpy as np
import pytest

from lagmin.errors import NonImmersed, UnknownName, ZeroGaussCurvature
from lagmin.fields import (
    EllipticField,
    ParabolicField,
    RootQuarticField,
    make_polynomial_field,
    sum_fields,
)
from lagmin.geom_core import OrientedSphere
from lagmin.grammar import parse_surface
from lagmin.meshing import CHUNK, grid_axes, grid_points, surface_mesh
from lagmin.reconstruct import FieldSurface, GaussMappedSurface
from lagmin.surfaces import block_field, building_block, cyclographic_preimage
from lagmin.verify import (
    TANGENCY_TOL,
    CheckReport,
    biharmonic_residual,
    curvatures,
    fd_curvature_check,
    first_variation,
    gaussmap_identity_residual,
    json_text,
    omega_integrand,
    report_json,
    ruling_residual,
    stationarity_check,
    tangency_plan,
    tangency_residual,
    write_reports,
)

SPHERE_FIELD = make_polynomial_field({(2, 0): 0.5, (0, 2): 0.5, (0, 0): 0.5})


def test_unit_sphere_curvatures():
    S = FieldSurface(SPHERE_FIELD)
    rng = np.random.default_rng(2)
    r = rng.uniform(0.3, 1.8, 50)
    t = rng.uniform(0, 2 * math.pi, 50)
    H, K = curvatures(S, r * np.cos(t), r * np.sin(t))
    assert np.max(np.abs(K - 1.0)) < 1e-9
    assert np.max(np.abs(np.abs(H) - 1.0)) < 1e-9


def test_minimal_blocks_have_zero_mean_curvature():
    rng = np.random.default_rng(3)
    for name in ("r1", "r4"):
        S = building_block(name)
        r = rng.uniform(0.3, 1.8, 50)
        t = rng.uniform(0, 2 * math.pi, 50)
        u, v = r * np.cos(t), r * np.sin(t)
        keep = np.abs(r - 1.0) > 0.05
        H, _ = curvatures(S, u[keep], v[keep])
        assert np.max(np.abs(H)) < 1e-6


def test_omega_integrand_values():
    S = FieldSurface(SPHERE_FIELD)
    val = omega_integrand(S, 0.4, -0.3)
    assert abs(val) < 1e-12
    helicoid = building_block("r1")
    val = omega_integrand(helicoid, 0.7, 0.2)
    assert abs(val + 1.0) < 1e-9


def test_first_variation_scales_with_amplitude(monkeypatch):
    F = make_polynomial_field({(4, 0): 1.0})
    d1 = first_variation(F, (0.9, 0.55), 0.35, 0.01)
    # the Gauss-Legendre rule is made once, not on every call
    monkeypatch.setattr(np.polynomial.legendre, "leggauss", None)
    d2 = first_variation(F, (0.9, 0.55), 0.35, 0.02)
    assert d1 != 0.0
    assert d2 / d1 == pytest.approx(2.0, rel=0.05)


def test_stationarity_separates_conoid_from_quartic():
    rep = stationarity_check(block_field("r3"), seed=0)
    assert rep.passed
    assert rep.max_residual < 0.1


def test_gaussmap_report_and_nowhere_immersed_failure():
    rep = gaussmap_identity_residual(building_block("r3"))
    assert rep.passed and rep.max_residual < 1e-8
    # r2 is nowhere immersed: every grid point is skipped, and a check
    # that measured nothing fails
    rep2 = gaussmap_identity_residual(building_block("r2"))
    assert not rep2.passed and rep2.samples == 0
    assert rep2.meta["skipped"] == 100 * 100


def test_ruling_residual_passes_for_matching_family():
    rep = ruling_residual(parse_surface("conv(1*r1, 0.3*r2, 0.6*r3@theta=0.2)"))
    assert rep.passed
    assert rep.max_residual < 1e-8


def test_ruling_residual_skips_the_angles_where_the_rulings_c_vanishes():
    # c = a1 + a3 sin(phi + theta) cos(phi + theta) is 0 at phi = 0 when
    # a1 = 0 and theta = 0: that angle's four lambdas are skipped
    rep = ruling_residual(parse_surface("conv(1*r2,1*r3)"))
    assert rep.passed and rep.max_residual < 1e-8
    assert rep.samples == 48 and rep.meta["skipped"] == 4


def test_biharmonic_residual_detects_failure():
    rep = biharmonic_residual(block_field("r1"))
    assert rep.passed and rep.max_residual < 1e-9
    bad = biharmonic_residual(RootQuarticField())
    assert not bad.passed
    assert bad.max_residual > 1e-3


@pytest.mark.parametrize("seed", [1, 2, 4, 5])
def test_biharmonic_residual_passes_r6_at_seeds_with_float64_noise(seed):
    # near the sampling margin the r^-5 fourth derivatives of r6 cancel
    # only to float64 rounding; the extended-precision re-measure decides
    rep = biharmonic_residual(block_field("r6"), seed=seed)
    assert rep.passed and rep.max_residual <= 1e-9


@pytest.mark.xfail(strict=True, reason="where long double is float64, as on "
                   "Windows and arm64 macOS, the re-measure cannot decide "
                   "r6's noisy samples: seed 1 reads 1.86e-9 against 1e-9 "
                   "(ROADMAP item 14)")
def test_biharmonic_residual_passes_r6_where_long_double_is_float64(
        monkeypatch):
    monkeypatch.setattr(np, "longdouble", np.float64)
    assert biharmonic_residual(block_field("r6"), seed=1).passed


def _r6_plus_quartic(bilap):
    # bilaplacian of c*x^4 is 24c, so the sum misses biharmonicity by bilap
    quartic = make_polynomial_field({(4, 0): bilap / 24.0})
    return sum_fields([(1.0, block_field("r6")), (1.0, quartic)])


@pytest.mark.parametrize("seed", range(6))
def test_biharmonic_residual_still_rejects_small_defect(seed):
    rep = biharmonic_residual(_r6_plus_quartic(2e-9), seed=seed)
    assert not rep.passed
    assert rep.max_residual == pytest.approx(2e-9, rel=1e-3)


@pytest.mark.parametrize("seed", range(6))
def test_biharmonic_residual_accepts_defect_below_tolerance(seed):
    assert biharmonic_residual(_r6_plus_quartic(5e-10), seed=seed).passed


def test_biharmonic_residual_is_deterministic():
    a = biharmonic_residual(EllipticField(a1=1.0, a3=-1.0), seed=7)
    b = biharmonic_residual(EllipticField(a1=1.0, a3=-1.0), seed=7)
    assert report_json(a) == report_json(b)
    c = biharmonic_residual(EllipticField(a1=1.0, a3=-1.0), seed=8)
    assert report_json(a) != report_json(c)


def test_fd_curvature_check_on_block():
    rep = fd_curvature_check(building_block("r5"), seed=0)
    assert rep.passed
    assert rep.max_residual < 1e-5


def test_tangency_plan_frozen_and_guarded():
    plan = tangency_plan("r1")
    assert [fam for fam, _, _ in plan] == ["R1"]
    _, pairs, window = plan[0]
    assert len(pairs) == 15  # 5 azimuths x 3 radii
    assert len(window) == 4
    with pytest.raises(UnknownName):
        tangency_plan("r2")


def _plan_spheres(block_name):
    fam_name, pairs, window = tangency_plan(block_name)[0]
    fam = cyclographic_preimage(fam_name)
    return [fam.line(p).sphere(l) for p, l in pairs], window


def _tangency_cases():
    spheres, window = _plan_spheres("r1")     # R1's spheres have radius 0
    # plus a sphere that holds grid points: signed gaps go negative there
    others = _plan_spheres("r5")[0][::4] + [
        OrientedSphere(building_block("r1").point(1.0, 0.7), -0.25)]
    return {
        # r1's 400x400 plan window
        "r1-plan": (building_block("r1"), window, spheres),
        # a guarded block: 7820 grid points masked
        "r1-guarded": (building_block("r1", guard=0.5),
                       (-2.0, 2.0, -2.0, 2.0), others),
        # overflow: 46400 unguarded grid points with non-finite coordinates
        "poly-overflow": (parse_surface("field:poly(x^2000)"),
                          (0.0, 2.0, 0.0, 2.0), others),
    }


@pytest.mark.parametrize("case", ["r1-plan", "r1-guarded", "poly-overflow"])
def test_tangency_gaps_are_the_mesh_vertex_gaps(case):
    S, window, spheres = _tangency_cases()[case]
    verts = surface_mesh(S, window, (400, 400)).vertices
    with np.errstate(over="ignore"):    # squares of huge finite points
        want = [float(np.min(np.abs(
            np.linalg.norm(verts - np.asarray(sp.m, dtype=float), axis=-1)
            - abs(float(sp.r))))) for sp in spheres]
        got = [tangency_residual(S, [sp], window=window).max_residual
               for sp in spheres]
        rep = tangency_residual(S, spheres, window=window)
    assert got == want
    assert rep.meta["vertices"] == len(verts)
    assert rep.max_residual == max(want)


def _reference_tangency(S, spheres, window):
    """(minima, report) of the cone tangency check as a whole-array loop
    over a NaN-filled grid walk: the form the chunked gap search replaced."""
    uu, vv = np.meshgrid(*grid_axes(window, (400, 400)))
    with np.errstate(over="ignore", invalid="ignore"):
        ok = S.is_safe(uu, vv)
        pts = np.full(ok.shape + (3,), np.nan)
        if ok.any():
            pts[ok] = S.point(uu[ok], vv[ok])
    X, Y, Z = pts[ok & np.all(np.isfinite(pts), axis=-1)].T.copy()
    d = np.empty_like(X)
    gaps = np.empty_like(X)
    minima = []
    for sp in spheres if X.size else ():
        mx, my, mz = np.asarray(sp.m, dtype=float)
        np.subtract(X, mx, out=d)
        np.multiply(d, d, out=gaps)
        np.subtract(Y, my, out=d)
        d *= d
        gaps += d
        np.subtract(Z, mz, out=d)
        d *= d
        gaps += d
        np.sqrt(gaps, out=gaps)
        gaps -= abs(float(sp.r))
        np.abs(gaps, out=gaps)
        minima.append(float(np.min(gaps)))
    return minima, CheckReport.from_residuals(
        "cone-tangency", minima, TANGENCY_TOL,
        {"grid": [400, 400], "window": [float(t) for t in window],
         "vertices": int(len(X))})


class _HolesSurface:
    """A surface whose points are non-finite at some safe grid points; a
    point's holes depend on its (u, v) alone, as every surface's do."""

    def __init__(self, base):
        self.base = base
        self.is_safe = base.is_safe

    def point(self, u, v):
        p = self.base.point(u, v).copy()
        s = np.sin(4e4 * u) * np.sin(3e4 * v)
        p[s > 0.999, 0] = np.inf
        p[s < -0.999, 2] = np.nan
        p[np.abs(s) < 1e-4, 1] = -np.inf
        return p


def _chunk_cases():
    r5_spheres, r5_window = _plan_spheres("r5")
    guarded = FieldSurface(EllipticField(a1=1.0, a3=-1.0).with_guard(0.3))
    S = building_block("r5")
    pts, _ = grid_points(r5_window, (400, 400), S.is_safe, S.point)
    # point spheres on the first and last vertex of each chunk: gap 0 there
    edges = [OrientedSphere(pts[k], 0.0) for k in
             (0, CHUNK - 1, CHUNK, 4 * CHUNK, -1)]
    return {
        "r5-plan": (S, r5_window, r5_spheres),
        "chunk-edges": (S, r5_window, edges),
        "guarded": (guarded, (-1.0, 1.0, -1.0, 1.0), r5_spheres[::3]),
        "holes": (_HolesSurface(building_block("r5")), r5_window, r5_spheres),
        # a squared distance that overflows to inf, and a NaN centre
        "far-and-nan": (building_block("r5"), r5_window,
                        [OrientedSphere(np.array([1e200, 0.0, 0.0]), 1.0),
                         OrientedSphere(np.array([np.nan, 0.0, 0.0]), 1.0),
                         r5_spheres[0]]),
        "all-guarded": (guarded, (-0.1, 0.1, -0.1, 0.1), r5_spheres),
    }


def _bits(values):
    return [float(x).hex() for x in values]


@pytest.mark.parametrize("case", ["r5-plan", "chunk-edges", "guarded",
                                  "holes", "far-and-nan", "all-guarded"])
def test_chunked_tangency_is_the_whole_array_loop_bit_for_bit(case,
                                                              monkeypatch):
    S, window, spheres = _chunk_cases()[case]
    seen = []
    report = CheckReport.from_residuals

    def recording(check, residuals, *args, **kwargs):
        seen.append(residuals)
        return report(check, residuals, *args, **kwargs)

    monkeypatch.setattr(CheckReport, "from_residuals",
                        staticmethod(recording))
    with np.errstate(over="ignore"):    # squares of the far sphere's gaps
        rep = tangency_residual(S, spheres, window)
    monkeypatch.undo()
    with np.errstate(over="ignore"):
        want_minima, want = _reference_tangency(S, spheres, window)
    assert _bits(seen[0]) == _bits(want_minima)
    assert _bits([rep.max_residual, rep.rms_residual]) == _bits(
        [want.max_residual, want.rms_residual])
    assert rep.meta == want.meta
    assert (rep.samples, rep.passed) == (want.samples, want.passed)
    n = rep.meta["vertices"]
    if case == "guarded":
        assert n > CHUNK and n % CHUNK
    if case == "all-guarded":
        assert n == rep.samples == 0 and not rep.passed
    if case == "chunk-edges":
        assert seen[0] == [0.0] * 5
    if case == "holes":
        assert n < tangency_residual(S.base, [], window).meta["vertices"]
    if case == "far-and-nan":
        assert _bits(seen[0][:2]) == ["inf", "nan"]


@pytest.mark.parametrize("block_name", ["r5", "r1~"])
def test_tangency_fails_a_sphere_that_no_longer_reaches_the_block(block_name):
    spheres, window = _plan_spheres(block_name)
    S = building_block(block_name)
    assert tangency_residual(S, spheres, window=window).passed
    sp = spheres[7]
    spheres[7] = OrientedSphere(sp.m, sp.r * (1 - 1e-3))
    rep = tangency_residual(S, spheres, window=window)
    assert not rep.passed
    assert rep.max_residual > 1e-5


@pytest.mark.xfail(strict=True, reason="the gap over grid points is also "
                   "small for a sphere that crosses the block")
def test_tangency_fails_a_sphere_that_crosses_the_block():
    spheres, window = _plan_spheres("r5")
    sp = spheres[7]
    spheres[7] = OrientedSphere(sp.m, sp.r * (1 + 1e-3))
    rep = tangency_residual(building_block("r5"), spheres, window=window)
    assert not rep.passed


@pytest.mark.xfail(strict=True, reason="finite-difference truncation: the "
                   "worst sample, 0.785 from the exceptional centre, has "
                   "H = 14.5 and reads 1.05e-4 at h = 1e-4; a Richardson step "
                   "reads 1.05e-6 there")
def test_curvature_check_passes_an_exceptional_sum():
    S = parse_surface("field:sum(1*exceptional(c=0.5,d=-0.3,B=1,C=0.8,D=2),"
                      "0.5*elliptic(a1=1,a3=-1))")
    assert fd_curvature_check(S, seed=0).passed


# Wrong verdicts of the CLI's checks, each on the surface the CLI parses
# from the spec: `lagmin verify --surface SPEC --checks NAME --seed SEED`
# gives the same report.  Each test passes once its ROADMAP item lands.


@pytest.mark.xfail(strict=True, reason="the sampled check reads max 1.46e-11 "
                   "against 1e-9 on a 1e-12*x^2*y^2 defect; the exact "
                   "certificate of ROADMAP item 8 reads it as 1.0")
def test_biharmonic_fails_a_tiny_defect():
    S = parse_surface("field:sum(1*elliptic(a1=1,a3=-1),"
                      "1e-12*poly(x^2*y^2))")
    assert not biharmonic_residual(S.field, seed=0).passed


@pytest.mark.xfail(strict=True, reason="the 16-node rule's quadrature error "
                   "hides a 0.2*x^2*y^2 defect: max 0.0669 against 0.1, "
                   "while biharmonic reads 1.6; ROADMAP item 11's exact "
                   "bilinear form reads 0.2/3 under a bound set near 1e-10")
def test_stationarity_fails_a_defect_that_biharmonic_fails():
    S = parse_surface("field:sum(1*hyperbolic(a2=1,c2=1,alpha1=-1),"
                      "0.2*poly(x^2*y^2))")
    assert not stationarity_check(S.field, seed=0).passed


@pytest.mark.xfail(strict=True, reason="finite-difference truncation: r5 at "
                   "seed 3 reads 1.78e-5 against 1e-5; ROADMAP item 1's "
                   "Richardson step reads 1.09e-6 at worst over seeds 0-9")
def test_curvature_check_passes_r5_at_seed_3():
    assert fd_curvature_check(parse_surface("r5"), seed=3).passed


def test_report_json_is_valid_and_stable():
    rep = CheckReport.from_residuals("demo", [1e-12, 3e-11], 1e-9, {"seed": 0})
    txt = report_json(rep)
    parsed = json.loads(txt)
    assert parsed["check"] == "demo"
    assert parsed["pass"] is True
    assert parsed["samples"] == 2
    assert report_json(rep) == txt  # same object, same bytes


def test_write_reports_layout(tmp_path):
    reps = [
        CheckReport.from_residuals("a", [0.5], 1.0),
        CheckReport.from_residuals("b", [2.0], 1.0),
    ]
    path = tmp_path / "reports.json"
    write_reports(reps, str(path))
    body = path.read_text()
    parsed = json.loads(body)
    assert [r["check"] for r in parsed] == ["a", "b"]
    assert parsed[0]["pass"] is True and parsed[1]["pass"] is False
    assert body.endswith("]\n")


def test_json_text_float_formatting():
    assert json_text(0.1) == "0.10000000000000001"
    assert json_text(True) == "true"
    assert json_text({"k": [1, 2.5]}) == '{"k": [1, 2.5]}'


def test_curvatures_of_the_cycloid_block_are_undefined():
    # r2 collapses onto a curve: r_u x r_v vanishes everywhere
    with pytest.raises(NonImmersed, match="curvature undefined"):
        curvatures(building_block("r2"), np.array([0.5, 1.2]),
                   np.array([0.7, -0.3]))


def test_curvature_check_never_passes_on_too_few_samples():
    # a guard that leaves a thin rim of the sampling annulus: the few
    # samples there agree, but fewer than 20 prove nothing
    rep = fd_curvature_check(building_block("r1", guard=1.499), seed=0)
    assert 0 < rep.samples < 20
    assert rep.max_residual < 1e-5 and not rep.passed


def test_stationarity_refuses_a_bump_across_the_singular_curve():
    # this bump's disk straddles the curve where r_u x r_v vanishes and
    # K runs through infinity; its ratio grew with the node count
    F = ParabolicField(alpha0=1.0, alpha2=0.4, beta1=0.6, gamma0=0.3,
                       gamma3=0.1)
    with pytest.raises((NonImmersed, ZeroGaussCurvature)):
        first_variation(F, (0.525, -1.104), 0.373, 1.0)
    assert first_variation(F, (0.9, 0.55), 0.35, 1.0) != 0.0


class _Shifted(GaussMappedSurface):
    """A surface whose parameters are off by du: not in Gauss coordinates."""

    def __init__(self, base, du):
        self.base = base
        self.du = du

    def is_safe(self, u, v):
        return self.base.is_safe(u, v)

    def frame(self, u, v, order=2):
        return self.base.frame(np.asarray(u) + self.du, v, order)


def test_gaussmap_remeasure_keeps_failing_a_shifted_surface():
    S = building_block("r3", 0.5)
    rep = gaussmap_identity_residual(S)
    assert rep.passed and rep.samples == 10000
    bad = gaussmap_identity_residual(_Shifted(S, 1e-6))
    assert not bad.passed
    assert bad.max_residual > 5e-7
