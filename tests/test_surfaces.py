"""Closed-form blocks, convolutions, ruling families, and cone preimages."""
import math

import numpy as np
import pytest

from lagmin.errors import (
    DegenerateCone,
    DomainMismatch,
    NonImmersed,
    ProvenanceMismatch,
    UnknownName,
    ZeroGaussCurvature,
)
from lagmin.fields import (
    EllipticField,
    ExceptionalField,
    HyperbolicField,
    ParabolicField,
    RootQuarticField,
    make_bump_field,
    make_polynomial_field,
    pushforward_inversion,
    sum_fields,
)
from lagmin.grammar import parse_field, parse_surface
from lagmin.isotropic import IsoPoint
from lagmin.reconstruct import FieldSurface, isotropic_image
from lagmin.surfaces import (
    BLOCK_NAMES,
    BlockSurface,
    ConvolutionSurface,
    CycloLine,
    RotatedSurface,
    RuledPatch,
    block_field,
    building_block,
    cyclographic_preimage,
    kinematic_rulings,
)

POINT_TOL = 1e-12
GAUSS_TOL = 1e-8
GRID = np.meshgrid(np.linspace(-2, 2, 60), np.linspace(-2, 2, 60))


def inverse_stereo(u, v):
    s = u * u + v * v
    return np.stack([2 * u, 2 * v, 1 - s], axis=-1) / (1 + s)[..., None]


def test_block_example_points():
    r1 = building_block("r1")
    assert np.allclose(r1.point(1.0, 1.0), (0.5, -0.5, math.pi / 2), atol=POINT_TOL)
    r3 = building_block("r3")
    assert np.allclose(r3.point(1.0, 1.0), (-0.25, 0.25, 0.5), atol=POINT_TOL)
    r4 = building_block("r4")
    assert np.allclose(r4.point(1.0, 0.0), (2.0, 0.0, 0.0), atol=POINT_TOL)


def test_convolution_adds_pointwise():
    conv = ConvolutionSurface([(1.0, building_block("r1")),
                               (1.0, building_block("r3"))])
    assert np.allclose(
        conv.point(1.0, 1.0), (0.25, -0.25, math.pi / 2 + 0.5), atol=POINT_TOL
    )


@pytest.mark.parametrize("terms", [
    [(1.0, building_block("r1")), (0.5, RuledPatch(1.0, 0.5, 0.3, 0.2))],
    [(1.0, RuledPatch(0.0, 0.0, 0.0, 0.5))],
    [],
], ids=["block-and-ruled", "ruled", "empty"])
def test_convolution_terms_are_surfaces_in_gauss_coordinates(terms):
    # a ruled patch's (phi, lambda) frame is not summable with Gauss-
    # coordinate frames, and an empty sum has no frame
    with pytest.raises(DomainMismatch):
        ConvolutionSurface(terms)


def test_unknown_block_name_rejected():
    with pytest.raises(UnknownName):
        building_block("r12")


@pytest.mark.parametrize("name", [n for n in BLOCK_NAMES if n != "r2"])
def test_gauss_map_identity(name):
    s = building_block(name)
    uu, vv = GRID
    ok = s.is_safe(uu, vv)
    assert ok.sum() > 2000
    n = s.normal(uu[ok], vv[ok])
    res = np.abs(n - inverse_stereo(uu[ok], vv[ok])).max()
    assert res < GAUSS_TOL


@pytest.mark.parametrize(
    "name,theta",
    [("r1", 0.0), ("r2", 0.0), ("r3", 0.7), ("r6", 1.1), ("r7", 0.4), ("r9", 0.0)],
)
def test_closed_block_matches_reconstructed_field(name, theta):
    blk = building_block(name, theta if theta else None)
    fs = FieldSurface(block_field(name, theta))
    uu, vv = GRID
    ok = blk.is_safe(uu, vv) & (uu**2 + vv**2 > 1e-4)
    d = np.abs(blk.point(uu[ok], vv[ok]) - fs.point(uu[ok], vv[ok])).max()
    assert d < GAUSS_TOL


def test_conoid_orientation_pairing():
    """x y² expands on the block with the opposite rotation sign."""
    xy2 = make_polynomial_field({(1, 2): 1.0})
    fs = FieldSurface(xy2)
    uu, vv = GRID
    good = building_block("r9", -math.pi / 2)
    d = np.abs(good.point(uu, vv) - fs.point(uu, vv)).max()
    assert d < GAUSS_TOL
    other = building_block("r9", math.pi / 2)
    d2 = np.abs(other.point(uu, vv) - fs.point(uu, vv)).max()
    assert d2 > 1e-2


def test_helicoid_lies_on_its_lines():
    r1 = building_block("r1")
    rng = np.random.default_rng(0)
    worst = 0.0
    for _ in range(50):
        phi = rng.uniform(-1.4, 1.4)
        s = rng.uniform(0.2, 1.8)
        if abs(s - 1) < 1e-3:
            continue
        u, v = s * math.cos(phi), -s * math.sin(phi)
        lam = 1.0 / s - s
        tgt = np.array([0, 0, -2 * phi]) + lam * np.array(
            [math.sin(phi), math.cos(phi), 0]
        )
        worst = max(worst, np.abs(r1.point(u, v) - tgt).max())
    assert worst < 1e-10


def test_rulings_examples():
    # rulings are lines of point spheres: R = 0 along them
    L = kinematic_rulings(building_block("r1")).line(math.pi / 2)
    assert np.allclose(L.base, (0.0, 0.0, -math.pi, 0.0), atol=POINT_TOL)
    assert np.allclose(L.dir, (1.0, 0.0, 0.0, 0.0), atol=POINT_TOL)
    L = kinematic_rulings(building_block("r2")).line(0.0)
    assert np.allclose(L.base, (0.0, 1.0, 0.0, 0.0), atol=POINT_TOL)
    assert np.allclose(L.dir, (0.0, 1.0, 0.0, 0.0), atol=POINT_TOL)


def test_ruling_incidence_random_families():
    rng = np.random.default_rng(5)
    worst = 0.0
    tested = 0
    while tested < 8:
        a1, a2, a3 = rng.uniform(-1, 1, 3)
        if a1 * a1 + a3 * a3 <= 0.1:
            continue
        th = rng.uniform(-1.5, 1.5)
        surf = ConvolutionSurface([(a1, building_block("r1")),
                                   (a2, building_block("r2")),
                                   (a3, building_block("r3", th))])
        fam = kinematic_rulings(surf)
        for _ in range(5):
            phi = rng.uniform(-1.4, 1.4)
            s = rng.uniform(0.25, 1.7)
            if abs(s - 1) < 5e-2:
                continue
            u, v = s * math.cos(phi), -s * math.sin(phi)
            lam = (1.0 / s - s) * (
                a1 + a3 * math.sin(phi + th) * math.cos(phi + th)
            ) - a2 * math.cos(phi)
            m = fam.line(phi).sphere(lam).m
            worst = max(worst, np.abs(surf.point(u, v) - m).max())
        tested += 1
    assert worst < 1e-10


def test_ruled_patch_matches_conoid_preimage():
    rp = RuledPatch(0.0, 0.0, 0.0, 0.5)
    fam = cyclographic_preimage("R3")
    worst = 0.0
    for phi in np.linspace(-3, 3, 13):
        for lam in (-1.0, 0.3, 0.8):
            a = rp.frame(phi, lam, order=0).r
            L = fam.line(phi)
            b = (L.base + lam * L.dir)[:3] - np.array([0.0, 0.0, 0.5])
            worst = max(worst, np.abs(a - b).max())
    assert worst < 1e-12


def test_ruled_patch_rulings_lie_on_the_patch():
    rp = RuledPatch(1.0, 1.0, 0.0, 0.0)
    line = rp.rulings.line(0.3)
    # the ruling is a straight line on the patch
    for lam in (-0.5, 0.0, 0.7):
        got = rp.frame(0.3, lam, order=0).r
        assert np.allclose(got, line.sphere(lam).m, atol=1e-12)


def test_ruled_patch_rulings_are_point_spheres_of_its_points():
    rp = RuledPatch(1, 0.5, 0.3, 0.2)
    assert rp.rulings.kind == "elliptic"
    for phi in np.linspace(-3, 3, 13):
        line = rp.rulings.line(phi)
        for lam in (-1.0, 0.3, 0.8):
            sp = line.sphere(lam)
            assert sp.r == 0.0
            assert np.abs(sp.m - rp.frame(phi, lam, order=0).r).max() < 1e-12


# The direction row of each kind, and the kind of each named family.
_ROWS = {
    "elliptic": lambda p: (math.sin(p), math.cos(p), 0.0, 0.0),
    "hyperbolic": lambda p: (0.0, 0.0, math.cosh(p), math.sinh(p)),
    "parabolic": lambda p: (1.0, 0.0, -p, p),
    "parabolic-y": lambda p: (0.0, 1.0, -p, p),
}
_KINDS = {
    "elliptic": ("R1", "R2", "R3", "R7b", "R1~", "R3~"),
    "hyperbolic": ("R4", "R5", "R6"),
    "parabolic": ("R7", "R8", "R9", "R10", "R11"),
    "parabolic-y": ("R9b",),
}


@pytest.mark.parametrize("kind", sorted(_KINDS))
def test_every_family_line_runs_along_its_kind_row(kind):
    families = [cyclographic_preimage(name) for name in _KINDS[kind]]
    if kind != "parabolic-y":
        coeffs = (0.3, -1, 2, 0.5, 0, 1, 2)
        families.append(cyclographic_preimage((kind, coeffs)))
    for fam in families:
        assert fam.kind == kind
        for p in (-1.3, -0.2, 0.0, 0.45, 1.7):
            assert np.array_equal(fam.line(p).dir, _ROWS[kind](p))


def test_kinematic_rulings_refuse_a_foreign_surface():
    with pytest.raises(ProvenanceMismatch):
        kinematic_rulings(building_block("r4"))


def test_preimage_line_examples():
    L = cyclographic_preimage("R4").line(0.0)
    assert np.allclose(L.base, (0, 0, 0, -2), atol=POINT_TOL)
    assert np.allclose(L.dir, (0, 0, 1, 0), atol=POINT_TOL)
    L = cyclographic_preimage("R7").line(1.0)
    assert np.allclose(L.base, (0, 0, -0.5, 0.5), atol=POINT_TOL)
    assert np.allclose(L.dir, (1, 0, -1, 1), atol=POINT_TOL)
    ell = cyclographic_preimage(("elliptic", (0, 0, 1, 0, 0, 0, 0)))
    L = ell.line(0.7)
    assert np.allclose(L.base, (0, 0, 0.7, 0), atol=POINT_TOL)
    assert np.allclose(L.dir, (math.sin(0.7), math.cos(0.7), 0, 0), atol=POINT_TOL)


def test_zero_direction_cone_rejected():
    with pytest.raises(DegenerateCone):
        CycloLine(np.zeros(4), np.zeros(4))


def test_unknown_preimage_rejected():
    with pytest.raises(UnknownName):
        cyclographic_preimage("R99")


def test_flat_patch_has_no_curvature_radii():
    with pytest.raises(ZeroGaussCurvature):
        from lagmin.verify import omega_integrand

        omega_integrand(RuledPatch(1.0, 0.0, 0.0, 0.0), 0.3, 0.2)


def test_ruling_family_rejects_foreign_surface():
    from lagmin.verify import ruling_residual

    with pytest.raises(ProvenanceMismatch):
        ruling_residual(building_block("r4"))


@pytest.mark.parametrize("order", [2, 3])
def test_convolution_frame_is_the_weighted_sum_of_term_frames(order):
    terms = [(0.7, building_block("r1")), (-0.4, building_block("r2")),
             (1.3, building_block("r3", 0.4))]
    u = np.array([0.3, -1.1, 0.8])
    v = np.array([0.9, 0.2, -1.4])
    got = ConvolutionSurface(terms).frame(u, v, order=order)
    frames = [(w, s.frame(u, v, order=order)) for w, s in terms]
    for part in ("r", "ru", "rv", "ruu", "ruv", "rvv"):
        want = sum(w * getattr(fr, part) for w, fr in frames)
        assert np.array_equal(getattr(got, part), want)


def test_ruled_frame_table_at_order_4():
    # each entry is the central difference of the entry one order below;
    # r is linear in lambda, so columns j >= 2 vanish
    rp = RuledPatch(1.0, 0.5, 0.3, 0.2)
    phi = np.linspace(-3.0, 3.0, 7)
    lam = np.linspace(-2.0, 2.0, 7)
    h = 1e-5
    d = rp.frame(phi, lam, order=4).d

    def low(p, q):
        return rp.frame(p, q, order=3).d

    for k in range(1, 5):
        fd = (low(phi + h, lam)[k - 1, 0] - low(phi - h, lam)[k - 1, 0]) / (2 * h)
        assert np.max(np.abs(fd - d[k, 0])) < 1e-8
    for k in range(4):
        fd = (low(phi, lam + h)[k, 0] - low(phi, lam - h)[k, 0]) / (2 * h)
        assert np.max(np.abs(fd - d[k, 1])) < 1e-8
    for k in range(1, 4):
        fd = (low(phi + h, lam)[k - 1, 1] - low(phi - h, lam)[k - 1, 1]) / (2 * h)
        assert np.max(np.abs(fd - d[k, 1])) < 1e-8
    assert not d[:, 2:].any()
    # the order-2 entries are those of the order-2 frame
    d2 = rp.frame(phi, lam, order=2).d
    for i, j in ((0, 0), (1, 0), (0, 1), (2, 0), (1, 1), (0, 2)):
        assert np.array_equal(d[i, j], d2[i, j])


@pytest.mark.parametrize("name", BLOCK_NAMES)
def test_rotated_frame_matches_the_rotated_field_at_order_4(name):
    # rotating the frame of the block must give the reconstruction of the
    # turned field, entry by entry: at four fixed points (measured at most
    # 1.2e-13), and at seeded points and just either side of the turned
    # Arctan cut R(theta)·{x = 0} (measured 4.5e-11 for r5 and 1.8e-11
    # for r2, both near their singular sets, and at most 1.3e-12 else)
    bound = 1e-10 if name in ("r2", "r5") else 1e-11
    rng = np.random.default_rng(33)
    along = np.linspace(-1.8, 1.8, 10)
    for theta in (0.7, -1.1, 2.5):
        c, s = math.cos(theta), math.sin(theta)
        u = np.concatenate([[0.3, -1.1, 0.8, 1.5], rng.uniform(-2, 2, 400),
                            c * 1e-9 - s * along, -c * 1e-9 - s * along])
        v = np.concatenate([[0.9, 0.2, -1.4, 0.6], rng.uniform(-2, 2, 400),
                            s * 1e-9 + c * along, -s * 1e-9 + c * along])
        rotated = RotatedSurface(building_block(name), theta)
        field = FieldSurface(block_field(name, theta))
        ok = rotated.is_safe(u, v)
        assert np.array_equal(ok, field.is_safe(u, v))
        assert ok[:4].all() and ok.sum() > 400
        got = rotated.frame(u[ok], v[ok], order=4).d
        want = field.frame(u[ok], v[ok], order=4).d
        assert got.shape == want.shape == (5, 5, ok.sum(), 3)
        err = np.max(np.abs(got - want) / (1.0 + np.abs(want)), axis=(0, 1, 3))
        assert err[:4].max() < 1e-12 and err.max() < bound


# The hand-derived rotated fields, in (cos theta, sin theta), that the
# block table held before `RotatedField` turned every block's terms.
_K3T = 1.0 / (4.0 * math.sqrt(2.0))
_HAND_ROTATED = {
    "r3": lambda c, s: EllipticField(
        c1=0.5 * s * s, c2=c * s, c3=0.5 * c * c,
        b1=-0.5 * s * s, b2=-c * s, b3=-0.5 * c * c),
    "r6": lambda c, s: HyperbolicField(
        beta3=s, alpha3=c, beta4=s, alpha4=c, alpha1=-2.0 * c,
        beta1=-2.0 * s, folds=((0.0, 0.0, 1.0),)),
    "r7": lambda c, s: make_polynomial_field(
        {(2, 0): 0.5 * c * c, (1, 1): c * s, (0, 2): 0.5 * s * s}),
    # x^2 y composed with the rotation by -theta
    "r9": lambda c, s: make_polynomial_field({
        (3, 0): -c * c * s,
        (2, 1): c * c * c - 2.0 * c * s * s,
        (1, 2): 2.0 * c * c * s - s * s * s,
        (0, 3): c * s * s}),
    "r3~": lambda c, s: EllipticField(
        c1=s * s * _K3T, c2=2.0 * c * s * _K3T, c3=c * c * _K3T,
        b1=-2.0 * s * s * _K3T, b2=-4.0 * c * s * _K3T,
        b3=-2.0 * c * c * _K3T),
}


@pytest.mark.parametrize("name", sorted(_HAND_ROTATED))
def test_a_turned_block_field_matches_its_hand_derived_form(name):
    # r3's turned field has the hand form's bits, which the pins of
    # r3@theta=... read; measured, r3~ has them too, and r6, r7 and r9
    # agree to 2.3e-15
    rng = np.random.default_rng(9)
    u, v = rng.uniform(-2, 2, (2, 200))
    thetas = np.concatenate([np.linspace(-3, 3, 25), rng.uniform(-4, 4, 24)])
    for theta in thetas[thetas != 0.0]:
        got = block_field(name, theta)
        want = _HAND_ROTATED[name](math.cos(theta), math.sin(theta))
        ok = got.is_safe(u, v)
        assert np.array_equal(ok, want.is_safe(u, v))
        a = got.jet(u[ok], v[ok], 4).d
        b = want.jet(u[ok], v[ok], 4).d
        if name == "r3":
            assert a.tobytes() == b.tobytes(), theta
        else:
            assert np.max(np.abs(a - b) / (1.0 + np.abs(b))) < 1e-13, theta


_SAFE_OBJECTS = {
    **{name: building_block(name) for name in BLOCK_NAMES},
    "r3@theta=0.5": building_block("r3", 0.5),
    "r6~@theta=0.2": building_block("r6~", 0.2),
    "conv": ConvolutionSurface([(1.0, building_block("r1")),
                      (0.5, building_block("r3", 0.2))]),
    "ruled": RuledPatch(1.0, 0.5, 0.3, 0.2),
    "field:elliptic": EllipticField(a1=1.0, b2=0.3, d1=0.2),
    "field:hyperbolic": parse_field("hyperbolic(a2=1,c2=1,alpha1=-1)"),
    "field:parabolic": ParabolicField(alpha0=1.0, beta1=0.6),
    "field:exceptional": ExceptionalField(a=0.2, A=1.0, B=0.5, c=0.3),
    "field:poly": make_polynomial_field({(3, 0): 1.0, (0, 0): 0.5}),
    "field:remark": RootQuarticField(),
    "field:sum": sum_fields([(1.0, block_field("r1")), (0.5, block_field("r4"))]),
    "field:bump": make_bump_field((0.2, -0.1), 0.8, 1.0),
    "field:kelvin": pushforward_inversion(block_field("r6")),
}


@pytest.mark.parametrize("name", sorted(_SAFE_OBJECTS))
def test_is_safe_returns_a_fresh_mask_of_the_broadcast_shape(name):
    # callers AND masks in place, so every is_safe must hand out a new
    # boolean array of the broadcast shape, also for scalar x array input
    obj = _SAFE_OBJECTS[name]
    x = np.linspace(-1.9, 1.7, 7)
    for u, v in ((0.6, x), (x, -0.4), (x[:, None], x[None, :3])):
        ok = obj.is_safe(u, v)
        assert isinstance(ok, np.ndarray) and ok.dtype == bool
        assert ok.shape == np.broadcast(u, v).shape
        assert ok.flags.writeable
        assert not np.shares_memory(ok, obj.is_safe(u, v))


# -- block masks: the field's origin guard plus the ring band ----------

# the masks every block had when its guards were columns of the table
_ORIGIN_GUARDED = {"r1", "r2", "r3", "r4", "r5", "r6",
                   "r1~", "r3~", "r4~", "r6~"}
_RING_GUARDED = {"r5", "r6"}


def _reference_mask(name, g, u, v):
    r2 = u * u + v * v
    ok = np.ones(r2.shape, dtype=bool)
    if name in _ORIGIN_GUARDED:
        ok = ok & (r2 >= g * g)
    if name in _RING_GUARDED:
        ok = ok & (np.abs(np.sqrt(r2) - 1.0) >= g)
    return ok


def _rotated(theta, u, v):
    c, s = math.cos(theta), math.sin(theta)
    return c * u + s * v, -s * u + c * v


def _mask_grid(g):
    rng = np.random.default_rng(11)
    ang = np.linspace(0.0, 2.0 * math.pi, 12, endpoint=False)
    pts = [(0.0, 0.0), (g, 0.0), (-g, 0.0), (0.0, g), (0.0, -g),
           (1.0, 0.0), (0.0, -1.0), (1.0 + g, 0.0), (1.0 - g, 0.0),
           (0.0, 1.0 + g), (-(1.0 - g), 0.0), (0.6, 0.8)]
    pts += [(g * math.cos(a), g * math.sin(a)) for a in ang]
    pts += [(math.cos(a), math.sin(a)) for a in ang]
    pts += list(zip(*rng.uniform(-2.0, 2.0, (2, 40))))
    pts += list(zip(*rng.uniform(-1.5 * g, 1.5 * g, (2, 20))))
    u, v = np.array(pts).T
    return u, v


@pytest.mark.parametrize("g", [1e-6, 0.5])
def test_block_masks_are_the_field_guard_plus_the_ring_band(g):
    u, v = _mask_grid(g)
    for name in BLOCK_NAMES:
        got = building_block(name, guard=g).is_safe(u, v)
        assert np.array_equal(got, _reference_mask(name, g, u, v)), name
        # scalar points give the same answers
        for k in (0, 1, 5, 13, 30):
            assert bool(building_block(name, guard=g).is_safe(u[k], v[k])) \
                == bool(got[k]), (name, k)
    for name, theta in (("r3", 0.5), ("r6", -0.7)):
        got = building_block(name, theta, g).is_safe(u, v)
        want = _reference_mask(name, g, *_rotated(theta, u, v))
        assert np.array_equal(got, want), (name, theta)
    conv = ConvolutionSurface([(1.0, building_block("r1", guard=g)),
                               (0.5, building_block("r3", 0.2, g)),
                               (0.3, building_block("r5", guard=g))])
    want = (_reference_mask("r1", g, u, v) & _reference_mask("r5", g, u, v)
            & _reference_mask("r3", g, *_rotated(0.2, u, v)))
    assert np.array_equal(conv.is_safe(u, v), want)


@pytest.mark.parametrize("g", [1e-6, 0.5])
def test_a_block_masks_exactly_where_its_field_does(g):
    # the ring band is the field's fold, so the block adds no mask of its own
    u, v = _mask_grid(g)
    for name in BLOCK_NAMES:
        got = building_block(name, guard=g).is_safe(u, v)
        want = block_field(name).with_guard(g).is_safe(u, v)
        assert np.array_equal(got, want), name


def test_block_guard_lives_on_the_block_field():
    assert building_block("r5").field == block_field("r5")
    assert block_field("r5").guard == 1e-6
    T = building_block("r5", guard=0.25)
    assert T.field == block_field("r5").with_guard(0.25)
    R = building_block("r6", -0.7, 0.25)
    assert R.base.field.guard == R.field.guard == 0.25


@pytest.mark.parametrize("name, theta", [("r1~", None), ("r3~", None),
                                         ("r4~", None), ("r6~", None),
                                         ("r3~", 0.2)])
@pytest.mark.parametrize("guard", [None, 0.5])
def test_a_tilde_block_is_a_block_surface_framed_by_its_field(name, theta,
                                                              guard):
    # a tilde block is a table row without a builder: the reconstruction
    # of its field, named, to the last bit
    if guard is None:
        got, want = building_block(name, theta), FieldSurface(block_field(name))
    else:
        got = building_block(name, theta, guard)
        want = FieldSurface(block_field(name).with_guard(guard))
    block = got.base if theta is not None else got
    assert isinstance(block, BlockSurface)
    assert block.name == name and block.field == want.field
    if theta is not None:
        assert isinstance(got, RotatedSurface) and got.theta == theta
        want = RotatedSurface(want, theta)
    u = np.array([0.3, -1.1, 0.8, 1.5, 0.05])
    v = np.array([0.9, 0.2, -1.4, 0.6, -0.02])
    safe = want.is_safe(u, v)
    assert np.array_equal(got.is_safe(u, v), safe) and np.sum(safe) >= 3
    for order in range(5):
        a = got.frame(u[safe], v[safe], order=order).d
        b = want.frame(u[safe], v[safe], order=order).d
        assert a.tobytes() == b.tobytes()


# -- one point at a time, with the bits of the batch ----------------------

_ONE_POINT_SPECS = list(BLOCK_NAMES) + [
    "r3@theta=0.5", "conv(1*r1,0.5*r2,0.3*r3@theta=0.2)",
    "field:hyperbolic(a2=0.3,c1=0.4,alpha1=1,beta2=0.5,gamma1=0.2)",
    "ruled(1,0.5,0.3,0.2)"]


def _assert_same_bits(got, want):
    """Equal shape, values and signs of zero; NaNs by position only."""
    got, want = np.asarray(got), np.asarray(want)
    assert got.dtype == want.dtype and got.shape == want.shape
    nan = np.isnan(want)
    assert np.array_equal(np.isnan(got), nan)
    assert np.array_equal(got[~nan], want[~nan])
    assert np.array_equal(np.signbit(got[~nan]), np.signbit(want[~nan]))


def _safe_sample(S, n=32, seed=5):
    rng = np.random.default_rng(seed)
    u0, u1, v0, v1 = S.default_window
    u, v = rng.uniform(u0, u1, 8 * n), rng.uniform(v0, v1, 8 * n)
    keep = S.is_safe(u, v)
    assert np.count_nonzero(keep) >= n
    return u[keep][:n], v[keep][:n]


@pytest.mark.parametrize("spec", _ONE_POINT_SPECS)
def test_one_point_evaluation_has_the_bits_of_the_batch(spec):
    # an array of one point and a scalar (a point of shape ()) run the same
    # jet kernels as the batch, and must give each point's bits in it
    S = parse_surface(spec)
    u, v = _safe_sample(S)
    with np.errstate(all="ignore"):
        for order in range(0, 5):
            batch = S.frame(u, v, order).d
            for k in range(len(u)):
                _assert_same_bits(S.frame(u[k : k + 1], v[k : k + 1], order).d,
                                  batch[:, :, k : k + 1])
                _assert_same_bits(S.frame(float(u[k]), float(v[k]), order).d,
                                  batch[:, :, k])
        image = isotropic_image(S, u, v)
        if spec == "r2":
            # r2 is nowhere immersed: every row of the batch is NaN, and
            # every point raises alone
            assert np.isnan(image).all()
            for k in range(len(u)):
                with pytest.raises(NonImmersed):
                    isotropic_image(S, float(u[k]), float(v[k]))
            return
        for k in range(len(u)):
            point = isotropic_image(S, float(u[k]), float(v[k]))
            assert isinstance(point, IsoPoint) and not point.is_ideal
            _assert_same_bits(point.coords(), image[k])
            _assert_same_bits(isotropic_image(S, u[k : k + 1], v[k : k + 1]),
                              image[k : k + 1])
