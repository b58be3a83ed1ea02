"""Numerical certification of the geometric claims.

Curvatures come from exact derivative jets, never finite differences.
The energy integrand (H^2 - K)/K is only ever integrated over compact
bump supports, because the full integral need not converge; the first
variation compares reconstructions of F + eps*bump and F - eps*bump.
Residual checks return CheckReport records with a stable JSON form.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field

import numpy as np

from . import meshing
from .errors import (
    NonImmersed,
    ProvenanceMismatch,
    SingularPoint,
    UnknownName,
    ZeroGaussCurvature,
)
from .fields import (clear_of, make_bump_field, make_polynomial_field,
                     sum_fields)
from .isotropic import stereographic
from .reconstruct import (
    IMMERSION_TOL,
    FieldSurface,
    GaussMappedSurface,
    SurfaceJet,
    cross_and_norm,
    unit_normal,
)
from .surfaces import (cyclographic_preimage, kinematic_rulings,
                       kinematic_weights)

K_TOL = 1e-12
BISECT_TOL = 1e-12
BIHARMONIC_TOL = 1e-9
CURVATURE_FD_TOL = 1e-5
GAUSSMAP_TOL = 1e-8
RULING_TOL = 1e-8
STATIONARITY_RATIO = 0.1
TANGENCY_TOL = 1e-5


@dataclass
class CheckReport:
    check: str
    samples: int
    max_residual: float
    rms_residual: float
    tolerance: float
    passed: bool
    meta: dict = field(default_factory=dict)

    @classmethod
    def from_residuals(cls, check, residuals, tolerance, meta=None, needed=1):
        res = np.asarray(residuals, dtype=float)
        if res.size == 0:
            mx = rms = 0.0
        else:
            mx = float(np.max(res))
            rms = float(np.sqrt(np.mean(res * res)))
        # a check that measured fewer than `needed` samples, by default
        # nothing at all, has not shown enough: it fails
        return cls(check, int(res.size), mx, rms, float(tolerance),
                   res.size >= max(needed, 1) and mx <= float(tolerance),
                   dict(meta or {}))


def json_text(obj) -> str:
    """Deterministic strict JSON for report-like values: 17-digit floats,
    and null for a non-finite one, which strict JSON cannot write."""
    if isinstance(obj, bool):
        return "true" if obj else "false"
    if obj is None:
        return "null"
    if isinstance(obj, (float, np.floating)):
        obj = float(obj)
        return "%.17g" % obj if math.isfinite(obj) else "null"
    if isinstance(obj, (int, np.integer)):
        return str(int(obj))
    if isinstance(obj, str):
        return json.dumps(obj)
    if isinstance(obj, dict):
        inner = ", ".join(
            "%s: %s" % (json.dumps(str(k)), json_text(v)) for k, v in obj.items()
        )
        return "{" + inner + "}"
    if isinstance(obj, np.ndarray):
        obj = obj.tolist()
    if isinstance(obj, (list, tuple)):
        return "[" + ", ".join(json_text(v) for v in obj) + "]"
    raise TypeError(f"cannot serialize {type(obj)!r}")


def report_json(report: CheckReport) -> str:
    """Stable-order JSON record; floats carry 17 significant digits."""
    payload = {
        "check": report.check,
        "samples": report.samples,
        "max_residual": float(report.max_residual),
        "rms_residual": float(report.rms_residual),
        "tolerance": float(report.tolerance),
        "pass": bool(report.passed),
        "meta": report.meta,
    }
    return json_text(payload)


def write_reports(reports, path):
    body = "[\n" + ",\n".join("  " + report_json(r) for r in reports) + "\n]\n"
    meshing.atomic_write_text(path, body)


# -- curvature and energy ---------------------------------------------


def mean_gauss_curvature(fr: SurfaceJet, n):
    """(H, K) from the first and second fundamental forms of a
    second-order frame with unit normal n."""
    E = np.sum(fr.ru * fr.ru, axis=-1)
    F = np.sum(fr.ru * fr.rv, axis=-1)
    G = np.sum(fr.rv * fr.rv, axis=-1)
    L = np.sum(n * fr.ruu, axis=-1)
    M = np.sum(n * fr.ruv, axis=-1)
    N = np.sum(n * fr.rvv, axis=-1)
    den = E * G - F * F
    K = (L * N - M * M) / den
    H = (E * N - 2.0 * F * M + G * L) / (2.0 * den)
    return H, K


def curvatures(S, u, v):
    """Mean and Gauss curvature from the exact second-order frame."""
    u = np.asarray(u, dtype=float)
    v = np.asarray(v, dtype=float)
    fr = S.frame(u, v, order=2)
    n, _ = unit_normal(S, fr.ru, fr.rv, u, v, "curvature")
    H, K = mean_gauss_curvature(fr, n)
    if u.ndim == 0 and v.ndim == 0:
        return float(H), float(K)
    return H, K


def omega_integrand(S, u, v):
    """(H^2 - K)/K, the Laguerre energy density; needs K != 0."""
    H, K = curvatures(S, u, v)
    if np.any(np.abs(np.asarray(K)) <= K_TOL):
        raise ZeroGaussCurvature("energy integrand undefined where K = 0")
    return (H * H - K) / K


def _changes_sign(a):
    return bool(np.any(a > 0.0) and np.any(a < 0.0))


def _local_energy(fieldobj, uu, vv, wts):
    """(H^2 - K)/K dA summed over the nodes; refused where K or the oriented
    area element (r_u x r_v) . n changes sign there (a singular curve), and
    where K or E·G − F² is 0; NaN, from a frame that overflows, fails."""
    S = FieldSurface(fieldobj)
    fr = S.frame(uu, vv, order=2)
    n, ln = unit_normal(S, fr.ru, fr.rv, uu, vv, "energy density")
    if _changes_sign(np.sum(cross_and_norm(fr.ru, fr.rv)[0] * n, axis=-1)):
        raise NonImmersed("bump support straddles a fold of the surface")
    with np.errstate(divide="ignore"):
        H, K = mean_gauss_curvature(fr, n)
    if (np.any(np.isinf(H) | np.isinf(K) | (np.abs(K) <= K_TOL))
            or _changes_sign(K)):
        raise ZeroGaussCurvature("bump support touches K = 0 or EG - F^2 = 0")
    return float(np.sum(wts * (H * H - K) / K * ln))


def first_variation(F, center, radius, amplitude):
    """Central-difference d(Omega_local)/d(eps) of the bump perturbation.

    Omega_local integrates (H^2-K)/K dA over the bump's support square
    with a 16-node tensor Gauss-Legendre rule; Richardson extrapolation
    over eps in {1e-4, 5e-5} removes the leading truncation term.
    """
    eps = 1e-4
    bump = make_bump_field(center, radius, amplitude)
    x, w = np.polynomial.legendre.leggauss(16)
    r = float(radius)
    gu = center[0] + r * x
    gv = center[1] + r * x
    uu, vv = np.meshgrid(gu, gv)
    wts = np.outer(w, w) * r * r

    def omega(e):
        return _local_energy(sum_fields([(1.0, F), (e, bump)]), uu, vv, wts)

    def central(e):
        return (omega(e) - omega(-e)) / (2.0 * e)

    d1 = central(eps)
    d2 = central(eps / 2.0)
    return (4.0 * d2 - d1) / 3.0


# -- residual checks ---------------------------------------------------


def _remeasured(measure, x, y, tolerance):
    """measure(x, y), re-measured in `np.longdouble` (which keeps the new
    value) wherever the float64 residual exceeds `tolerance`; where
    `np.longdouble` is float64 this reproduces the first value."""
    res = measure(x, y)
    undecided = res > tolerance
    if np.any(undecided):
        res[undecided] = measure(x[undecided].astype(np.longdouble),
                                 y[undecided].astype(np.longdouble))
    return res


def gaussmap_identity_residual(S, tolerance=GAUSSMAP_TOL) -> CheckReport:
    """Round trip: the stereographic top view of the oriented unit
    normal at (u, v) must reproduce (u, v) on the 100 x 100 grid of the
    surface's default window.  Only surfaces in Gauss
    coordinates have such a round trip; any other parametrization, such
    as a ruled patch in (phi, lambda), raises ProvenanceMismatch.  Points
    where the normal is undefined are skipped and counted, so a surface
    with no normal anywhere, such as r2, measures no sample and fails.
    Where nearly parallel tangents leave float64 noise above the tolerance
    the points beyond it are re-measured in `np.longdouble`, frame included
    (`_remeasured`)."""
    if not isinstance(S, GaussMappedSurface):
        raise ProvenanceMismatch(
            f"a {type(S).__name__} is not in Gauss coordinates")
    window = S.default_window
    shape = (100, 100)
    u, v = meshing.grid_axes(window, shape)
    uu, vv = np.meshgrid(u, v)
    ok = S.is_safe(uu, vv)
    skipped = int(ok.size - ok.sum())

    def gap(u, v):
        fr = S.frame(u, v, order=1)
        n, ln = unit_normal(S, fr.ru, fr.rv, u, v, None)
        top = stereographic(n)
        res = np.hypot(top[..., 0] - u, top[..., 1] - v)
        res[np.isnan(res)] = np.inf          # fails the check
        res[~(ln > IMMERSION_TOL)] = np.nan  # normal undefined: skipped
        return res

    res = _remeasured(gap, uu[ok], vv[ok], tolerance)
    good = ~np.isnan(res)
    skipped += int(np.sum(~good))
    return CheckReport.from_residuals(
        "gaussmap-identity", res[good], tolerance,
        {"grid": [int(shape[0]), int(shape[1])],
         "window": [float(t) for t in window],
         "skipped": skipped},
    )


def ruling_residual(S, *, tolerance=RULING_TOL) -> CheckReport:
    """Distance from the centers of the point spheres on the rulings of
    S = a1*r1 + a2*r2 + a3*r3@theta (`kinematic_rulings`) to the surface at
    the matched Gauss coordinates, for 13 angles phi in [-1.2, 1.2] and
    four lambdas; ProvenanceMismatch for any other surface.

    A ruling with direction (sin phi, cos phi, 0) meets the surface
    along the Gauss line (u, v) = s (cos phi, -sin phi); the radius s
    belonging to a given lambda solves a monotone 1-D equation, handled
    by bracketed bisection.  The surface is evaluated once, at every
    bracketed point that its guard keeps.
    """
    a1, a2, a3, theta = kinematic_weights(S)
    family = kinematic_rulings(S)

    phis = np.linspace(-1.2, 1.2, 13)
    lams = (-0.8, -0.3, 0.2, 0.7)
    us, vs, centres = [], [], []
    skipped = 0
    for phi in phis:
        c = a1 + a3 * np.sin(phi + theta) * np.cos(phi + theta)
        if abs(c) < 1e-12:
            skipped += len(lams)
            continue
        line = family.line(phi)
        for lam in lams:
            t = (lam + a2 * np.cos(phi)) / c

            def g(s):
                return (1.0 / s - s) - t

            guess = 0.5 * (-t + np.sqrt(t * t + 4.0))
            lo, hi = 0.5 * guess, 2.0 * guess
            if g(lo) < 0.0 or g(hi) > 0.0:
                skipped += 1
                continue
            while hi - lo > BISECT_TOL * max(1.0, guess):
                mid = 0.5 * (lo + hi)
                if g(mid) > 0.0:
                    lo = mid
                else:
                    hi = mid
            s = 0.5 * (lo + hi)
            us.append(s * np.cos(phi))
            vs.append(-s * np.sin(phi))
            centres.append(line.sphere(lam).m)
    u, v = np.array(us), np.array(vs)
    safe = S.is_safe(u, v)
    skipped += int(np.count_nonzero(~safe))
    points = S.frame(u[safe], v[safe], order=0).r
    residuals = [float(np.linalg.norm(p - m))
                 for p, m in zip(points, np.array(centres)[safe])]
    return CheckReport.from_residuals(
        "ruling-incidence", residuals, tolerance,
        {"phis": len(phis), "lams": len(lams), "skipped": skipped},
    )


def tangency_residual(S, spheres, window, *,
                      tolerance=TANGENCY_TOL) -> CheckReport:
    """Max over spheres of the min contact gap | |r - m| - |R| | over the
    valid points of the 400 x 400 grid on `window` (guarded and finite, the
    vertices `surface_mesh` would keep): small means every sphere of the
    family touches S.  No valid grid point, no gap: 0 samples."""
    shape = (400, 400)
    pts, ok = meshing.grid_points(window, shape, S.is_safe, S.point)
    X, Y, Z = pts[ok & np.all(np.isfinite(pts), axis=-1)].T.copy()
    d = np.empty_like(X)
    gaps = np.empty_like(X)
    minima = []
    for sp in spheres if X.size else ():
        # |r - m| summed left to right, as np.linalg.norm adds (x, y, z)
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
    return CheckReport.from_residuals(
        "cone-tangency", minima, tolerance,
        {"grid": [int(shape[0]), int(shape[1])],
         "window": [float(t) for t in window],
         "vertices": int(len(X))},
    )


# -- seeded point checks ----------------------------------------------


def _sample(rng, draw, keep, count):
    """The first `count` points that keep(x, y) accepts among up to 100
    seeded draws (x, y) = draw(rng); fewer, maybe none, when the draws run
    out."""
    xs = ys = np.empty(0)
    for _ in range(100):
        x, y = draw(rng)
        ok = keep(x, y)
        xs = np.concatenate([xs, x[ok]])
        ys = np.concatenate([ys, y[ok]])
        if xs.size >= count:
            break
    return xs[:count], ys[:count]


def biharmonic_residual(F, *, seed=0, samples=1000,
                        tolerance=BIHARMONIC_TOL) -> CheckReport:
    """|Laplacian^2 F| at seeded random safe points (exact jets) of the
    window [-2, 2]^2.

    Samples stay a margin of 0.1 away from the field's singular points: the
    exact fourth derivatives cancel analytically but their individual
    terms grow like negative powers of the distance, so points right at
    the guard radius would measure rounding noise, not biharmonicity.
    Near the margin that cancellation can still leave float64 noise
    above the tolerance, so the samples beyond it are re-measured in
    `np.longdouble` (`_remeasured`).  When 100 draws leave fewer safe
    points than `samples`, the check fails on those it has.
    """
    margin = 0.1
    window = (-2.0, 2.0, -2.0, 2.0)
    points = [locus for locus in F.excluded() if locus[2] == 0.0]
    samples = int(samples)

    def draw(rng):
        return (rng.uniform(*window[:2], samples),
                rng.uniform(*window[2:], samples))

    def safe(x, y):
        return F.is_safe(x, y) & clear_of(points, x, y, margin)

    x, y = _sample(np.random.default_rng(seed), draw, safe, samples)
    res = _remeasured(lambda x, y: np.abs(F.bilaplacian(x, y)), x, y,
                      tolerance)
    return CheckReport.from_residuals(
        "biharmonic", res, tolerance,
        {"seed": int(seed), "margin": margin,
         "window": [float(t) for t in window]},
        needed=samples,
    )


def fd_curvature_check(S, *, seed=0,
                       tolerance=CURVATURE_FD_TOL) -> CheckReport:
    """Exact-jet H, K against finite-difference fundamental forms with
    step h = 1e-4, at 20 seeded samples.

    Samples live in the parameter annulus 0.3 <= |(u,v)| <= 1.5 and
    are rejected where the exact normal is undefined or |H| + |K|
    exceeds 25: several blocks carry genuine curvature blowup loci (the
    conoid's axis image, the ring of the surfaces of revolution) where a
    fixed step cannot resolve the geometry, and curvature magnitude is
    exactly the scale that drives the truncation error there.  When
    fewer than 20 samples resolve in 100 draws, the check fails on those
    it has.
    """
    samples, h = 20, 1e-4
    rmin, rmax, curvature_cap = 0.3, 1.5, 25.0
    step = np.array([-h, 0.0, h])

    def stencil(u, v):
        # the nine points (u + ih, v + jh) at [1 + i, 1 + j]
        return np.broadcast_arrays(u + step[:, None, None],
                                   v + step[None, :, None])

    def exact(u, v):
        fr = S.frame(u, v, order=2)
        # NaN where the normal is undefined, which the cap rejects
        n, _ = unit_normal(S, fr.ru, fr.rv, u, v, None)
        return mean_gauss_curvature(fr, n)

    def draw(rng):
        ang = rng.uniform(0.0, 2.0 * np.pi, 2 * samples)
        rad = rng.uniform(rmin, rmax, 2 * samples)
        return rad * np.cos(ang), rad * np.sin(ang)

    def resolved(x, y):
        ok = np.all(S.is_safe(*stencil(x, y)), axis=(0, 1))
        if ok.any():
            He, Ke = exact(x[ok], y[ok])
            ok[ok] = (np.abs(He) + np.abs(Ke)) <= curvature_cap
        return ok

    u, v = _sample(np.random.default_rng(seed), draw, resolved, samples)
    H, K = exact(u, v)
    p = S.frame(*stencil(u, v), order=0).r
    d = np.zeros((3, 3) + p.shape[2:])
    d[0, 0] = p[1, 1]
    d[1, 0] = (p[2, 1] - p[0, 1]) / (2 * h)
    d[0, 1] = (p[1, 2] - p[1, 0]) / (2 * h)
    d[2, 0] = (p[2, 1] - 2 * p[1, 1] + p[0, 1]) / (h * h)
    d[0, 2] = (p[1, 2] - 2 * p[1, 1] + p[1, 0]) / (h * h)
    d[1, 1] = (p[2, 2] - p[2, 0] - p[0, 2] + p[0, 0]) / (4 * h * h)
    fd = SurfaceJet(d, 2)
    n, _ = unit_normal(S, fd.ru, fd.rv, u, v, "finite-difference curvature")
    Hf, Kf = mean_gauss_curvature(fd, n)
    res = np.maximum(np.abs(H - Hf) / (1.0 + np.abs(Hf)),
                     np.abs(K - Kf) / (1.0 + np.abs(Kf)))
    return CheckReport.from_residuals(
        "curvature-fd", res, tolerance,
        {"seed": int(seed), "step": h,
         "annulus": [rmin, rmax]},
        needed=samples,
    )


def stationarity_check(F, *, seed=0,
                       tolerance=STATIONARITY_RATIO) -> CheckReport:
    """|dOmega| of F against the (non-stationary) x^4 control on 5
    seeded random bumps; each residual is the ratio of the two.
    Bump centers have 0.5 <= |x|, |y| <= 1.4 and radii lie in
    [0.25, 0.45].  When 300 tries measure fewer than 5 bumps, the check
    fails on those it has."""
    bumps = 5
    control = make_polynomial_field({(4, 0): 1.0})
    rng = np.random.default_rng(seed)
    ratios = []
    tried = 0
    while len(ratios) < bumps and tried < 60 * bumps:
        tried += 1
        cx = rng.uniform(0.5, 1.4) * (1 if rng.uniform() < 0.5 else -1)
        cy = rng.uniform(0.5, 1.4) * (1 if rng.uniform() < 0.5 else -1)
        r = rng.uniform(0.25, 0.45)
        try:
            d = first_variation(F, (cx, cy), r, 1.0)
            dc = first_variation(control, (cx, cy), r, 1.0)
        except (NonImmersed, ZeroGaussCurvature, SingularPoint):
            continue
        if abs(dc) < 1e-9:
            continue
        ratios.append(abs(d) / abs(dc))
    return CheckReport.from_residuals(
        "stationarity", ratios, tolerance,
        {"seed": int(seed), "bumps": bumps, "tried": tried},
        needed=bumps,
    )


# -- frozen sphere-tangency plans -------------------------------------

# Tuned offline per family: (phi, lambda) samples whose contact points
# land inside the stated mesh window, keeping sphere radii away from
# zero (point spheres leave a first-order pit no mesh can resolve).


def _r1_vertex_pairs():
    # exact alignment: contact points of the helicoid's point spheres
    # are placed on 400x400 grid vertices of the (-2,2)^2 window
    delta = 4.0 / 399.0
    ks = {(1, 1): (99, 141, 197), (1, -1): (99, 141, 197),
          (3, 1): (45, 63, 89), (3, -1): (45, 63, 89),
          (1, 3): (45, 63, 89)}
    pairs = []
    for (p, q), kk in ks.items():
        for k in kk:
            s = k * (delta / 2.0) * math.hypot(p, q)
            pairs.append((math.atan2(-q, p), 1.0 / s - s))
    return pairs


def _grid_pairs(phis, lams):
    return [(p, l) for p in phis for l in lams]


def _curve_pairs(phis, offs, lam_of):
    return [(p + o, lam_of(p + o)) for p in phis for o in offs]


def tangency_plan(block_name):
    """Frozen (family name, (phi, lambda) pairs, mesh window) triples
    for every block with a stated cone-family preimage."""
    plans = {
        "r1": [("R1", _r1_vertex_pairs(), (-2.0, 2.0, -2.0, 2.0))],
        "r4": [("R4",
                _curve_pairs((-0.3, -0.15, 0.0, 0.15, 0.3),
                             (-0.04, 0.0, 0.04), lambda p: -2.0 * math.sinh(p)),
                (-1.092, 0.092, -1.442, -0.534))],
        "r5": [("R5",
                _grid_pairs((0.2, 0.215, 0.23, 0.245, 0.26), (0.2, 0.26, 0.32)),
                (0.025, 0.101, 0.742, 0.842))],
        "r6": [("R6",
                _grid_pairs((-0.27, -0.25, 0.23, 0.25, 0.27), (0.18, 0.2, 0.22)),
                (0.080, 0.169, 1.225, 1.331))],
        "r7": [("R7",
                _curve_pairs((0.24, 0.26, 0.28, 0.30, 0.32),
                             (-0.008, 0.0, 0.008), lambda p: -p),
                (0.202, 0.358, -0.020, 0.020)),
               ("R7b",
                _grid_pairs((0.3, 0.35, 0.4, 0.45, 0.5), (0.2, 0.28, 0.36)),
                (-1.318, -0.317, 0.169, 0.450))],
        "r8": [("R8",
                _curve_pairs((0.24, 0.26, 0.28, 0.30, 0.32),
                             (-0.008, 0.0, 0.008), lambda p: -3.0 * p * p),
                (0.202, 0.358, -0.020, 0.020))],
        "r9": [("R9",
                _grid_pairs((0.45, 0.475, 0.5, 0.525, 0.55), (0.2, 0.3, 0.4)),
                (0.420, 0.580, -0.491, -0.136)),
               ("R9b",
                _grid_pairs((0.3, 0.325, 0.35, 0.375, 0.4), (-0.4, -0.3, -0.2)),
                (0.573, 0.892, 0.270, 0.430))],
        "r10": [("R10",
                 _grid_pairs((0.3, 0.34, 0.38, 0.42, 0.46), (0.1, 0.15, 0.2)),
                 (0.264, 0.496, -0.745, -0.472))],
        "r11": [("R11",
                 _grid_pairs((0.32, 0.36, 0.4, 0.44, 0.48), (0.16, 0.2, 0.24)),
                 (0.284, 0.516, 0.425, 0.577))],
        "r1~": [("R1~",
                 _grid_pairs((0.13, 0.14, 0.15, 0.16, 0.17), (0.5, 0.52, 0.54)),
                 (-2.380, -2.226, 0.266, 0.432))],
        "r3~": [("R3~",
                 _grid_pairs((0.26, 0.29, 0.32, 0.35, 0.38), (-0.5, -0.47, -0.44)),
                 (-0.486, -0.288, 0.056, 0.210))],
    }
    if block_name not in plans:
        raise UnknownName(
            "no stated cone-family preimage for block %r" % (block_name,)
        )
    return plans[block_name]


def tangency_check(S, *, tolerance=TANGENCY_TOL):
    """All frozen sphere-tangency reports for a named block surface S
    (with its guard, if any); the plan is looked up by `S.name`."""
    reports = []
    for fam_name, pairs, window in tangency_plan(S.name):
        fam = cyclographic_preimage(fam_name)
        spheres = [fam.line(p).sphere(l) for p, l in pairs]
        rep = tangency_residual(S, spheres, window, tolerance=tolerance)
        rep.meta["family"] = fam_name
        reports.append(rep)
    return reports
