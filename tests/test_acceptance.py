"""Acceptance suite: one certification per numbered criterion.

Each test prints a single line

    criterion NN <label>: PASS <detail>

(or FAIL, in which case the assertion also fires).  Tolerances are the
contract values; they are asserted, never relaxed here.  Run with
`pytest -v` (output capture is disabled project-wide so the lines land in
the log).
"""
import math
import subprocess
import sys
import time

import numpy as np
import pytest

from lagmin.errors import BadFit
from lagmin.fields import (
    EllipticField,
    ExceptionalField,
    HyperbolicField,
    ParabolicField,
    RootQuarticField,
    fd_bilaplacian,
    make_polynomial_field,
    pushforward_inversion,
)
from lagmin.geom_core import OrientedSphere, random_unit_vectors, sphere_tangent_plane
from lagmin.grammar import parse_field
from lagmin.isotropic import plane_to_ipoint, sphere_to_imsphere
from lagmin.pencils import Cycle, classify_family, fit_nested, recover_crossing
from lagmin.reconstruct import FieldSurface, isotropic_image
from lagmin.surfaces import (
    BLOCK_NAMES,
    ConvolutionSurface,
    RuledPatch,
    block_field,
    building_block,
    cyclographic_preimage,
)
from lagmin.verify import (
    biharmonic_residual,
    curvatures,
    omega_integrand,
    ruling_residual,
    stationarity_check,
    tangency_check,
)

TABLE_BLOCKS = ("r1", "r2", "r3", "r4", "r5", "r6", "r7", "r8", "r9", "r10", "r11")


def certify(num, label, ok, detail):
    line = "criterion %02d %s: %s %s" % (num, label, "PASS" if ok else "FAIL", detail)
    print("\n" + line)
    assert ok, line


def random_hyperbolic(rng):
    """19 values drawn for hyperbolic(...)'s keywords a1..a3, b1, b2, c1,
    c2, alpha1..alpha4, beta1..beta4, gamma1..gamma4, parsed from their
    reprs, which read back as the same floats."""
    keys = ("a1", "a2", "a3", "b1", "b2", "c1", "c2", "alpha1", "alpha2",
            "alpha3", "alpha4", "beta1", "beta2", "beta3", "beta4",
            "gamma1", "gamma2", "gamma3", "gamma4")
    return parse_field("hyperbolic(%s)" % ",".join(
        "%s=%r" % (k, float(v))
        for k, v in zip(keys, rng.normal(size=19).round(3))))


def family_zoo(rng):
    """One random representative per closed family (coefficients O(1))."""
    return [
        ("elliptic", EllipticField(*rng.normal(size=12).round(3))),
        ("hyperbolic", random_hyperbolic(rng)),
        ("parabolic", ParabolicField(*rng.normal(size=12).round(3))),
        ("exceptional", ExceptionalField(*rng.normal(size=8).round(3))),
    ]


def test_criterion_01_biharmonicity_of_all_families():
    t0 = time.perf_counter()
    worst = 0.0
    names = []
    for name in TABLE_BLOCKS:
        rep = biharmonic_residual(block_field(name), seed=len(names))
        worst = max(worst, rep.max_residual)
        names.append(name)
        assert rep.samples == 1000
    exc = ExceptionalField(0.3, -0.2, 0.5, 0.1, A=0.7, B=1.0, C=0.4, D=-0.6)
    rep = biharmonic_residual(exc, seed=99)
    worst = max(worst, rep.max_residual)
    rem = abs(RootQuarticField().bilaplacian(1.0, 1.0))
    dt = time.perf_counter() - t0
    ok = worst < 1e-9 and rem > 1e-3 and dt < 5.0
    certify(
        1,
        "biharmonicity",
        ok,
        "(max %.2e over %d fields, counterexample %.2e, %.2fs)"
        % (worst, len(names) + 1, rem, dt),
    )


def test_criterion_02_stencil_convergence_order():
    rng = np.random.default_rng(14)
    hs = np.array([1e-2, 5e-3, 2.5e-3])
    slopes = {}
    for name, F in family_zoo(rng):
        r = rng.uniform(0.5, 2.5, 20)
        t = rng.uniform(0, 2 * math.pi, 20)
        x, y = r * np.cos(t), r * np.sin(t)
        # keep every stencil box clear of the angular branch line x = 0
        x = np.where(np.abs(x) < 0.05, x + np.sign(x + 0.5) * 0.08, x)
        errs = []
        for h in hs:
            fd = np.array([fd_bilaplacian(F, a, b, h) for a, b in zip(x, y)])
            errs.append(np.sqrt(np.mean((fd - F.bilaplacian(x, y)) ** 2)))
        if name == "parabolic":
            # polynomial family: the stencil is exact, errors sit at rounding
            assert max(errs) < 1e-8
            continue
        slopes[name] = float(np.polyfit(np.log(hs), np.log(errs), 1)[0])
    ok = all(abs(s - 2.0) <= 0.2 for s in slopes.values())
    certify(
        2,
        "stencil order",
        ok,
        "(slopes %s, parabolic exact)"
        % ", ".join("%s %.2f" % kv for kv in sorted(slopes.items())),
    )


def test_criterion_03_reconstruction_round_trip():
    rng = np.random.default_rng(21)
    worst = 0.0
    count = 0
    for name, F in family_zoo(rng):
        S = FieldSurface(F)
        r = rng.uniform(0.4, 2.0, 1000)
        t = rng.uniform(0, 2 * math.pi, 1000)
        x, y = r * np.cos(t), r * np.sin(t)
        x = np.where(np.abs(x) < 0.05, x + 0.1, x)
        img = isotropic_image(S, x, y)
        gap = np.stack([img[..., 0] - x, img[..., 1] - y, img[..., 2] - F.value(x, y)])
        if np.isnan(gap).any():
            worst = math.inf  # a NaN row: a plane with no finite image
        worst = max(worst, float(np.max(np.abs(gap))))
        count += 1
    ok = worst < 1e-8
    certify(3, "round trip", ok, "(max %.2e, %d families x 1000 points)" % (worst, count))


def test_criterion_04_sphere_coherence():
    rng = np.random.default_rng(33)
    worst_pi = 0.0
    for _ in range(100):
        sphere = OrientedSphere(rng.normal(size=3), float(rng.normal()))
        s = sphere_to_imsphere(sphere)
        for n in random_unit_vectors(rng, 10):
            if n[2] < -0.99:
                continue
            q = plane_to_ipoint(sphere_tangent_plane(sphere, n).plane)
            worst_pi = max(worst_pi, abs(q.z - s.height(q.x, q.y)))
    worst_rec = 0.0
    for _ in range(20):
        sphere = OrientedSphere(rng.normal(size=3), float(rng.normal()) + 0.5)
        s = sphere_to_imsphere(sphere)
        F = make_polynomial_field(
            {(2, 0): 0.5 * s.a, (0, 2): 0.5 * s.a, (1, 0): s.b, (0, 1): s.c, (0, 0): s.d}
        )
        pts = FieldSurface(F).point(rng.uniform(-1.5, 1.5, 200), rng.uniform(-1.5, 1.5, 200))
        dist = np.linalg.norm(pts - sphere.m, axis=-1)
        worst_rec = max(worst_rec, float(np.max(np.abs(dist - abs(sphere.r)))))
    ok = worst_pi < 1e-10 and worst_rec < 1e-10
    certify(
        4,
        "sphere coherence",
        ok,
        "(plane images %.2e, reconstruction %.2e)" % (worst_pi, worst_rec),
    )


def test_criterion_05_gauss_map_identity():
    g = np.linspace(-2, 2, 100)
    uu, vv = np.meshgrid(g, g)
    worst = 0.0
    tested = []
    for name in BLOCK_NAMES:
        if name == "r2":
            continue  # degenerate curve locus, exempt
        S = building_block(name)
        ok_mask = S.is_safe(uu, vv)
        n = S.normal(uu[ok_mask], vv[ok_mask])
        s = uu[ok_mask] ** 2 + vv[ok_mask] ** 2
        want = np.stack(
            [2 * uu[ok_mask], 2 * vv[ok_mask], 1 - s], axis=-1
        ) / (1 + s)[..., None]
        worst = max(worst, float(np.abs(n - want).max()))
        tested.append(name)
    ok = worst < 1e-8
    certify(5, "gauss map", ok, "(max %.2e over %s)" % (worst, ", ".join(tested)))


def test_criterion_06_table_correspondences():
    g = np.linspace(-2, 2, 100)
    uu, vv = np.meshgrid(g, g)
    worst = 0.0
    for name in TABLE_BLOCKS:
        blk = building_block(name)
        fs = FieldSurface(block_field(name))
        ok_mask = blk.is_safe(uu, vv) & (uu**2 + vv**2 > 1e-4)
        d = np.abs(blk.point(uu[ok_mask], vv[ok_mask]) - fs.point(uu[ok_mask], vv[ok_mask]))
        worst = max(worst, float(d.max()))
    ok = worst < 1e-8
    certify(6, "table match", ok, "(max %.2e over %d rows)" % (worst, len(TABLE_BLOCKS)))


def test_criterion_07_ruling_families():
    rng = np.random.default_rng(55)
    worst = 0.0
    tested = 0
    while tested < 20:
        a1, a2, a3 = rng.uniform(-1, 1, 3)
        if a1 * a1 + a3 * a3 <= 0.1:
            continue
        theta = rng.uniform(-1.5, 1.5)
        rep = ruling_residual(ConvolutionSurface(
            [(a1, building_block("r1")), (a2, building_block("r2")),
             (a3, building_block("r3", theta))]))
        worst = max(worst, rep.max_residual)
        tested += 1
    # the conoid patch coincides with its cone family up to a lift by 1/2
    patch = RuledPatch(0.0, 0.0, 0.0, 0.5)
    fam = cyclographic_preimage("R3")
    shift = np.array([0.0, 0.0, 0.5])
    worst_patch = 0.0
    for phi in np.linspace(-3, 3, 13):
        L = fam.line(phi)
        for lam in (-1.0, 0.3, 0.8):
            a = patch.frame(phi, lam, order=0).r
            b = (L.base + lam * L.dir)[:3] - shift
            worst_patch = max(worst_patch, float(np.abs(a - b).max()))
    ok = worst < 1e-8 and worst_patch < 1e-12
    certify(
        7,
        "rulings",
        ok,
        "(incidence %.2e over %d families, conoid patch %.2e)"
        % (worst, tested, worst_patch),
    )


def brute_force_tag(c1, c2):
    """March around the zero circle of the first generator and count sign
    changes of the second generator's function: 2 crossings mean two common
    points, none means disjoint."""
    b, c, d = c1[1] / c1[0], c1[2] / c1[0], c1[3] / c1[0]
    disc = b * b + c * c - 4 * d
    cx, cy, rad = -b / 2.0, -c / 2.0, math.sqrt(disc) / 2.0
    th = np.linspace(0, 2 * np.pi, 4096, endpoint=False)
    x = cx + rad * np.cos(th)
    y = cy + rad * np.sin(th)
    vals = c2[0] * (x * x + y * y) + c2[1] * x + c2[2] * y + c2[3]
    signs = np.sign(vals)
    changes = int(np.sum(signs != np.roll(signs, 1)))
    return {0: "hyperbolic", 2: "elliptic"}.get(changes, "parabolic")


def test_criterion_08_pencil_classifier_vs_oracle():
    t0 = time.perf_counter()
    rng = np.random.default_rng(77)
    agree = 0
    total = 100
    for _ in range(total):
        while True:
            c1 = rng.normal(size=4)
            c2 = rng.normal(size=4)
            alpha = c2[1] ** 2 + c2[2] ** 2 - 4 * c2[0] * c2[3]
            beta = c1[1] * c2[1] + c1[2] * c2[2] - 2 * (c1[0] * c2[3] + c2[0] * c1[3])
            gamma = c1[1] ** 2 + c1[2] ** 2 - 4 * c1[0] * c1[3]
            # generator 1 must be a genuine circle for the marching oracle
            if abs(c1[0]) < 0.2 or gamma / (c1[0] ** 2) <= 1e-2:
                continue
            if abs(beta * beta - alpha * gamma) > 1e-3:
                break
        cycles = [Cycle(*(c1 + lam * c2)) for lam in (0.0, 1.0, -1.0, 0.5)]
        if classify_family(cycles).tag == brute_force_tag(c1, c2):
            agree += 1
    remark = classify_family(
        [Cycle(1.0, -t, 0.0, -math.sqrt(t * t - 1.0)) for t in (1.0, 1.25, 1.5, 2.0)]
    )
    concentric = classify_family([Cycle(1, 0, 0, -r) for r in (1.0, 2.0, 3.0)])
    origin_limit = any(
        p is not None and np.allclose(p, (0.0, 0.0), atol=1e-12)
        for p in concentric.base_points
    )
    dt = time.perf_counter() - t0
    ok = (
        agree == total
        and remark.tag == "not-a-pencil"
        and concentric.tag == "hyperbolic"
        and origin_limit
        and dt < 1.0
    )
    certify(
        8,
        "pencil classifier",
        ok,
        "(%d/%d oracle agreement, remark %s, concentric %s, %.2fs)"
        % (agree, total, remark.tag, concentric.tag, dt),
    )


def test_criterion_09_recovery_round_trips():
    rng = np.random.default_rng(91)
    centers = [(0, 0), (2.5, 0.3), (0.4, 2.5), (-2.0, 1.0)]
    circles = [Cycle.from_circle(cc, 1.7) for cc in centers]
    worst = 0.0
    for _ in range(10):
        A, a, b, B = rng.normal(size=4)
        samples = []
        for cc in centers:
            th = np.linspace(0, 2 * np.pi, 50, endpoint=False)
            x = cc[0] + 1.7 * np.cos(th)
            y = cc[1] + 1.7 * np.sin(th)
            samples.append((np.column_stack([x, y]), A * ((x - a) ** 2 + (y - b) ** 2) + B))
        got = recover_crossing(circles, samples)
        worst = max(worst, float(np.max(np.abs(np.asarray(got) - (A, a, b, B)))))
    poly = make_polynomial_field(
        {(3, 0): 1.0, (1, 2): 1.0, (2, 0): 2.0, (0, 2): 2.0, (0, 1): 3.0}
    )
    worst = max(worst, float(np.max(np.abs(np.asarray(fit_nested(poly)) - (1, 0, 2, 0, 3, 0)))))
    try:
        fit_nested(HyperbolicField(gamma4=1.0))
        rejected = False
    except BadFit:
        rejected = True
    ok = worst < 1e-7 and rejected
    certify(
        9,
        "lemma recovery",
        ok,
        "(max coefficient error %.2e, log field rejected %s)" % (worst, rejected),
    )


def test_criterion_10_curvature_sanity():
    sphere_field = make_polynomial_field({(2, 0): 0.5, (0, 2): 0.5, (0, 0): 0.5})
    S = FieldSurface(sphere_field)
    rng = np.random.default_rng(10)
    r = rng.uniform(0.3, 1.8, 200)
    t = rng.uniform(0, 2 * math.pi, 200)
    H, K = curvatures(S, r * np.cos(t), r * np.sin(t))
    gap_sphere = max(float(np.max(np.abs(K - 1.0))), float(np.max(np.abs(np.abs(H) - 1.0))))
    worst_min = 0.0
    for name in ("r1", "r4"):
        blk = building_block(name)
        r = rng.uniform(0.3, 1.8, 50)
        t = rng.uniform(0, 2 * math.pi, 50)
        u, v = r * np.cos(t), r * np.sin(t)
        keep = np.abs(r - 1.0) > 0.05
        Hm, _ = curvatures(blk, u[keep], v[keep])
        worst_min = max(worst_min, float(np.max(np.abs(Hm))))
    omega = float(np.max(np.abs(omega_integrand(S, r * np.cos(t), r * np.sin(t)))))
    ok = gap_sphere < 1e-9 and worst_min < 1e-6 and omega < 1e-12
    certify(
        10,
        "curvature sanity",
        ok,
        "(sphere %.2e, minimal blocks %.2e, sphere energy %.2e)"
        % (gap_sphere, worst_min, omega),
    )


def test_criterion_11_stationarity_separation():
    t0 = time.perf_counter()
    rep = stationarity_check(block_field("r3"), seed=0)
    dt = time.perf_counter() - t0
    ok = rep.passed and rep.samples == 5 and dt < 30.0
    certify(
        11,
        "stationarity",
        ok,
        "(max variation ratio %.2e over %d bumps, %.2fs)"
        % (rep.max_residual, rep.samples, dt),
    )


def test_criterion_12_inversion_preserves_biharmonicity():
    rng = np.random.default_rng(120)
    worst = 0.0
    count = 0
    while count < 20:
        kind = count % 4
        if kind == 0:
            F = EllipticField(*rng.normal(size=12).round(3))
        elif kind == 1:
            F = random_hyperbolic(rng)
        elif kind == 2:
            F = ParabolicField(*rng.normal(size=12).round(3))
        else:
            F = ExceptionalField(*rng.normal(size=8).round(3))
        G = pushforward_inversion(F)
        rep = biharmonic_residual(G, seed=count, samples=100, tolerance=1e-6)
        worst = max(worst, rep.max_residual)
        count += 1
    ok = worst < 1e-6
    certify(12, "inversion", ok, "(max %.2e over %d pushed fields)" % (worst, count))


def test_criterion_13_cyclographic_tangency():
    t0 = time.perf_counter()
    worst = 0.0
    families = []
    for name in ("r1", "r4", "r5", "r6", "r7", "r8", "r9", "r10", "r11", "r1~", "r3~"):
        for rep in tangency_check(building_block(name)):
            worst = max(worst, rep.max_residual)
            families.append(rep.meta["family"])
            assert rep.samples == 15
    dt = time.perf_counter() - t0
    ok = worst < 1e-5 and dt < 60.0 and len(families) == 13
    certify(
        13,
        "tangency",
        ok,
        "(max %.2e over %d cone families, %.1fs)" % (worst, len(families), dt),
    )


def test_criterion_14_cli_determinism_and_gallery(tmp_path):
    argv = [
        sys.executable,
        "-m",
        "lagmin.cli",
        "generate",
        "--surface",
        "conv(1.0*r1, 0.5*r3@theta=0.4)",
        "--grid",
        "60x60",
        "--range",
        "-2,2,-2,2",
    ]
    a = tmp_path / "a.obj"
    b = tmp_path / "b.obj"
    ra = subprocess.run(argv + ["-o", str(a)], capture_output=True, text=True)
    rb = subprocess.run(argv + ["-o", str(b)], capture_output=True, text=True)
    identical = ra.returncode == 0 and rb.returncode == 0 and a.read_bytes() == b.read_bytes()
    finite = True
    for line in a.read_text().splitlines():
        if line.startswith("v "):
            finite = finite and all(math.isfinite(float(tok)) for tok in line.split()[1:])
    gallery_dir = tmp_path / "gallery"
    rg = subprocess.run(
        [sys.executable, "-m", "lagmin.cli", "gallery", "-o", str(gallery_dir)],
        capture_output=True,
        text=True,
    )
    meshes = sorted(p.name for p in gallery_dir.glob("*.obj")) if gallery_dir.exists() else []
    gallery_ok = rg.returncode == 0 and len(meshes) == 6
    ok = identical and finite and gallery_ok
    certify(
        14,
        "cli hygiene",
        ok,
        "(byte-identical %s, finite %s, gallery %d meshes)"
        % (identical, finite, len(meshes)),
    )
