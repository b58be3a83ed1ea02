"""Envelope reconstruction and its inverse point-model image."""
import math

import numpy as np
import pytest

from lagmin.errors import IdealImage, NonImmersed
from lagmin.fields import (
    EllipticField,
    make_polynomial_field,
)
from lagmin.grammar import parse_field
from lagmin.meshing import grid_mesh
from lagmin.reconstruct import (
    FieldSurface,
    ParamSurface,
    SurfaceJet,
    isotropic_image,
)
from lagmin.surfaces import block_field, building_block

ROUND_TRIP_TOL = 1e-10


def safe_points(rng, n, lo=0.3, hi=1.8):
    r = rng.uniform(lo, hi, n)
    t = rng.uniform(0, 2 * math.pi, n)
    x, y = r * np.cos(t), r * np.sin(t)
    x = np.where(np.abs(x) < 0.05, x + 0.1, x)
    return x, y


def test_paraboloid_field_reconstructs_to_unit_sphere():
    F = make_polynomial_field({(2, 0): 0.5, (0, 2): 0.5, (0, 0): 0.5})
    S = FieldSurface(F)
    rng = np.random.default_rng(6)
    x, y = safe_points(rng, 300)
    pts = S.point(x, y)
    assert np.max(np.abs(np.linalg.norm(pts, axis=-1) - 1.0)) < ROUND_TRIP_TOL


def test_point_sphere_field_reconstructs_to_point():
    # z = x encodes the point sphere at (-1, 0, 0)
    F = make_polynomial_field({(1, 0): 1.0})
    S = FieldSurface(F)
    rng = np.random.default_rng(7)
    x, y = safe_points(rng, 100)
    pts = S.point(x, y)
    assert np.max(np.abs(pts - np.array([-1.0, 0.0, 0.0]))) < ROUND_TRIP_TOL


def test_graph_identity_round_trip():
    F = EllipticField(a1=1.0, a3=-1.0)
    S = FieldSurface(F)
    rng = np.random.default_rng(12)
    x, y = safe_points(rng, 200)
    img = isotropic_image(S, x, y)
    assert np.max(np.abs(img[..., 0] - x)) < 1e-8
    assert np.max(np.abs(img[..., 1] - y)) < 1e-8
    assert np.max(np.abs(img[..., 2] - F.value(x, y))) < 1e-8


def test_scalar_round_trip_returns_iso_point():
    F = parse_field("hyperbolic(a1=0.5,gamma4=1)")
    S = FieldSurface(F)
    q = isotropic_image(S, 1.3, 0.7)
    assert abs(q.x - 1.3) < 1e-9
    assert abs(q.y - 0.7) < 1e-9
    assert abs(q.z - F.value(1.3, 0.7)) < 1e-9


def test_normal_is_inverse_stereographic_preimage():
    F = EllipticField(a1=1.0, a3=-1.0)
    S = FieldSurface(F)
    rng = np.random.default_rng(3)
    x, y = safe_points(rng, 100)
    n = S.normal(x, y)
    s = x * x + y * y
    want = np.stack([2 * x, 2 * y, 1 - s], axis=-1) / (1 + s)[..., None]
    assert np.max(np.abs(n - want)) < 1e-9


def test_frame_derivatives_match_finite_differences():
    F = EllipticField(a1=1.0, a3=-1.0)
    S = FieldSurface(F)
    u, v = 0.9, 0.5
    fr = S.frame(u, v, order=2)
    h = 1e-5
    fd_ru = (S.point(u + h, v) - S.point(u - h, v)) / (2 * h)
    fd_rv = (S.point(u, v + h) - S.point(u, v - h)) / (2 * h)
    assert np.max(np.abs(fr.ru - fd_ru)) < 1e-8
    assert np.max(np.abs(fr.rv - fd_rv)) < 1e-8
    fd_ruu = (S.point(u + h, v) - 2 * S.point(u, v) + S.point(u - h, v)) / h**2
    fd_rvv = (S.point(u, v + h) - 2 * S.point(u, v) + S.point(u, v - h)) / h**2
    fd_ruv = (
        S.point(u + h, v + h)
        - S.point(u + h, v - h)
        - S.point(u - h, v + h)
        + S.point(u - h, v - h)
    ) / (4 * h**2)
    assert np.max(np.abs(fr.ruu - fd_ruu)) < 1e-4
    assert np.max(np.abs(fr.ruv - fd_ruv)) < 1e-4
    assert np.max(np.abs(fr.rvv - fd_rvv)) < 1e-4


def test_non_immersed_parametrization_raises():
    # this field reconstructs to a curve, so the cross product vanishes
    S = FieldSurface(block_field("r2"))
    with pytest.raises(NonImmersed):
        isotropic_image(S, 0.8, 0.4)


class _DownwardPlane(ParamSurface):
    """r = (0, 0, 2) + u·(0, 1, 0) + v·(√(1−s²), 0, s), whose unit normal
    (s, 0, −√(1−s²)) is within IDEAL_TOL of (0, 0, −1) for |s| <= 4e-5."""

    def __init__(self, s):
        self.ru = np.array([0.0, 1.0, 0.0])
        self.rv = np.array([math.sqrt(1.0 - s * s), 0.0, s])

    def frame(self, u, v, order=2):
        u, v = np.broadcast_arrays(u, v)
        d = np.zeros((order + 1, order + 1) + u.shape + (3,))
        d[0, 0] = ([0.0, 0.0, 2.0] + u[..., None] * self.ru
                   + v[..., None] * self.rv)
        if order >= 1:
            d[1, 0], d[0, 1] = self.ru, self.rv
        return SurfaceJet(d, order)


@pytest.mark.parametrize("s", [0.0, 1e-5])
def test_ideal_tangent_planes_are_masked_without_a_warning(s):
    # at s = 0 the image (0, 0, 2)/0 would divide by zero, and at s = 1e-5
    # it would be a finite point near 2e5; both are ideal, so NaN
    S = _DownwardPlane(s)
    with pytest.raises(IdealImage):
        isotropic_image(S, 0.1, 0.2)
    mesh = grid_mesh((-1.0, 1.0, -1.0, 1.0), (4, 4), S.is_safe,
                     lambda u, v: isotropic_image(S, u, v))
    assert mesh.nonfinite == 16 and len(mesh.vertices) == 0


def test_field_surface_carries_its_field():
    F = EllipticField(a1=1.0, a3=-1.0)
    S = FieldSurface(F)
    assert S.field is F


def test_tilde_block_round_trip():
    S = building_block("r4~")
    rng = np.random.default_rng(9)
    x, y = safe_points(rng, 100, lo=0.3, hi=0.9)
    img = isotropic_image(S, x, y)
    assert np.max(np.abs(img[..., 0] - x)) < 1e-8
    assert np.max(np.abs(img[..., 1] - y)) < 1e-8
