import numpy as np
import pytest

from lagmin.errors import ZeroNormal
from lagmin.geom_core import (
    Line3,
    OrientedPlane,
    OrientedSphere,
    random_unit_vectors,
    sphere_tangent_plane,
)
# the plane maps are reference code, kept beside the model test they serve
from test_isotropic import (
    hesse_normalize,
    lambda_transform,
    offset_plane,
    offset_sphere,
    reflect_plane_z,
    rotate_plane_z,
    scale_plane,
    translate_plane,
)

TOL = 1e-12


def test_hesse_normalize_scales_to_unit_normal():
    p = hesse_normalize((0.0, 0.0, 2.0), 6.0)
    assert np.allclose(p.n, (0.0, 0.0, 1.0), atol=TOL)
    assert abs(p.h - 3.0) < TOL


def test_hesse_normalize_keeps_orientation_sign():
    # scaling is by the positive norm: the normal direction is never flipped
    p = hesse_normalize((0.0, 0.0, -2.0), 6.0)
    assert np.allclose(p.n, (0.0, 0.0, -1.0), atol=TOL)
    assert abs(p.h - 3.0) < TOL


def test_hesse_normalize_rejects_zero_normal():
    with pytest.raises(ZeroNormal):
        hesse_normalize((0.0, 0.0, 0.0), 1.0)


def test_tangent_plane_offset_and_contact_point():
    sphere = OrientedSphere(np.array([0.5, -0.2, 1.0]), 0.8)
    n = np.array([0.0, 0.6, 0.8])
    ce = sphere_tangent_plane(sphere, n)
    assert abs(ce.plane.h - (sphere.r - n @ sphere.m)) < TOL
    assert np.allclose(ce.point, sphere.m - sphere.r * n, atol=TOL)
    # the contact point lies on the plane
    assert abs(ce.plane.evaluate(ce.point)) < TOL


def test_tangent_planes_of_point_sphere_pass_through_center():
    sphere = OrientedSphere(np.array([1.0, 2.0, 3.0]), 0.0)
    rng = np.random.default_rng(3)
    for n in random_unit_vectors(rng, 20):
        ce = sphere_tangent_plane(sphere, n)
        assert abs(ce.plane.evaluate(sphere.m)) < TOL


def test_tangent_plane_rejects_zero_direction():
    sphere = OrientedSphere(np.zeros(3), 1.0)
    with pytest.raises(ZeroNormal):
        sphere_tangent_plane(sphere, (0.0, 0.0, 0.0))


def test_lambda_transform_moves_third_component():
    p = OrientedPlane(np.array([0.0, 0.0, 1.0]), 2.0)
    q = lambda_transform(p)
    # (3 n3 + 1)/2 = 2 before renormalizing; normal stays vertical
    assert np.allclose(q.n, (0.0, 0.0, 1.0), atol=TOL)
    assert abs(q.h - 1.0) < TOL


def test_plane_transforms_are_isometries_of_incidence():
    """Rotations and translations preserve signed point-plane distance."""
    rng = np.random.default_rng(7)
    for _ in range(25):
        n = random_unit_vectors(rng, 1)[0]
        h = rng.normal()
        plane = OrientedPlane(n, h)
        pt = rng.normal(size=3)
        theta = rng.uniform(-3, 3)
        c, s = np.cos(theta), np.sin(theta)
        rot = np.array([[c, -s, 0.0], [s, c, 0.0], [0.0, 0.0, 1.0]])
        d0 = plane.evaluate(pt)
        assert abs(rotate_plane_z(plane, theta).evaluate(rot @ pt) - d0) < 1e-10
        t = rng.normal(size=3)
        assert abs(translate_plane(plane, t).evaluate(pt + t) - d0) < 1e-10


def test_offset_plane_tracks_offset_sphere():
    rng = np.random.default_rng(11)
    sphere = OrientedSphere(rng.normal(size=3), 0.7)
    dist = 0.4
    grown = offset_sphere(sphere, dist)
    for n in random_unit_vectors(rng, 10):
        p1 = offset_plane(sphere_tangent_plane(sphere, n).plane, dist)
        p2 = sphere_tangent_plane(grown, n).plane
        assert np.allclose(p1.n, p2.n, atol=TOL)
        assert abs(p1.h - p2.h) < 1e-10


def test_scale_plane_scales_offset_only():
    plane = OrientedPlane(np.array([1.0, 0.0, 0.0]), 2.0)
    q = scale_plane(plane, 3.0)
    assert abs(q.h - 6.0) < TOL
    with pytest.raises(ValueError):
        scale_plane(plane, -1.0)


def test_reflect_plane_z_flips_normal_component():
    plane = OrientedPlane(np.array([0.6, 0.0, 0.8]), 1.0)
    q = reflect_plane_z(plane)
    assert np.allclose(q.n, (0.6, 0.0, -0.8), atol=TOL)
    assert abs(q.h - 1.0) < TOL


def test_line_through_normalizes_direction():
    L = Line3.through((1.0, 0.0, 0.0), (0.0, 0.0, 5.0))
    assert np.allclose(L.d, (0.0, 0.0, 1.0), atol=TOL)
    with pytest.raises(ZeroNormal):
        Line3.through((0.0, 0.0, 0.0), (0.0, 0.0, 0.0))


def test_random_unit_vectors_have_unit_length():
    rng = np.random.default_rng(0)
    v = random_unit_vectors(rng, 200)
    assert v.shape == (200, 3)
    assert np.allclose(np.linalg.norm(v, axis=1), 1.0, atol=TOL)
