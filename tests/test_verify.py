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
from lagmin.meshing import surface_mesh
from lagmin.reconstruct import FieldSurface, GaussMappedSurface
from lagmin.surfaces import block_field, building_block, cyclographic_preimage
from lagmin.verify import (
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


def test_first_variation_scales_with_amplitude():
    F = make_polynomial_field({(4, 0): 1.0})
    d1 = first_variation(F, (0.9, 0.55), 0.35, 0.01)
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
