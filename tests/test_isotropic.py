"""Model-map tests: point correspondence, sphere and line images, and the
transformation generators."""
import numpy as np
import pytest

from lagmin.errors import ZeroNormal
from lagmin.geom_core import (
    NORMAL_TOL,
    Line3,
    OrientedPlane,
    OrientedSphere,
    random_unit_vectors,
    sphere_tangent_plane,
)
from lagmin.isotropic import (
    GENERATORS,
    IDEAL_TOL,
    IMSphere,
    IMTransform,
    IsoPoint,
    imsphere_map,
    imtransform_apply,
    inverse_stereographic,
    isotropic,
    line_to_imcircle,
    plane_to_ipoint,
    sphere_to_imsphere,
    stereographic,
)

ROUND_TRIP_TOL = 1e-12
COHERENCE_TOL = 1e-10


def ipoint_to_plane(point: IsoPoint) -> OrientedPlane:
    """The inverse of `plane_to_ipoint`: the plane whose normal is the
    inverse stereographic image of the point's top view.  The package has
    no caller for it; the round trip below checks the two against each
    other."""
    if point.is_ideal:
        return OrientedPlane(np.array([0.0, 0.0, -1.0]), float(point.ideal_label))
    x, y, z = point.x, point.y, point.z
    return OrientedPlane(inverse_stereographic(x, y), 2.0 * z / (1.0 + x * x + y * y))


# -- Euclidean Laguerre maps of oriented planes -------------------------
# The reference that `test_plane_maps_induce_their_model_maps` checks the
# generator matrices against: rotations about z, translations, offsets,
# dilations from the origin, the z = 0 reflection and the sqrt2 map.  The
# package has no caller for them; tests/test_geom_core.py tests them.


def hesse_normalize(a, h0: float) -> OrientedPlane:
    """Scale coefficients (a, h0) of a . p + h0 = 0 to unit normal length,
    keeping the orientation sign."""
    a = np.asarray(a, dtype=float)
    norm = float(np.linalg.norm(a))
    if norm <= NORMAL_TOL:
        raise ZeroNormal(f"normal length {norm:.3e} below {NORMAL_TOL:.0e}")
    return OrientedPlane(a / norm, float(h0) / norm)


def lambda_transform(plane: OrientedPlane) -> OrientedPlane:
    """The Laguerre map sending n . p + h = 0 to the renormalized plane with
    third normal component (3 n3 + 1)/2.  Inputs off the unit sphere can land
    on a zero normal; that is reported, not repaired."""
    n1, n2, n3 = (float(c) for c in plane.n)
    return hesse_normalize((n1, n2, (3.0 * n3 + 1.0) / 2.0), plane.h)


def rotate_plane_z(plane: OrientedPlane, theta: float) -> OrientedPlane:
    c, s = np.cos(theta), np.sin(theta)
    n1, n2, n3 = plane.n
    return OrientedPlane(np.array([c * n1 - s * n2, s * n1 + c * n2, n3]), plane.h)


def translate_plane(plane: OrientedPlane, t) -> OrientedPlane:
    """Translate all points by t; the offset becomes h - n . t."""
    t = np.asarray(t, dtype=float)
    return OrientedPlane(plane.n.copy(), plane.h - float(np.dot(plane.n, t)))


def offset_plane(plane: OrientedPlane, dist: float) -> OrientedPlane:
    """Parallel offset compatible with `offset_sphere`: tangent planes of a
    sphere of radius r become tangent planes of the radius r + dist sphere.
    Points of the plane move by -dist along the oriented normal."""
    return OrientedPlane(plane.n.copy(), plane.h + float(dist))


def scale_plane(plane: OrientedPlane, k: float) -> OrientedPlane:
    """Central dilation p -> k p with k > 0."""
    if k <= 0:
        raise ValueError("dilation factor must be positive")
    return OrientedPlane(plane.n.copy(), plane.h * k)


def reflect_plane_z(plane: OrientedPlane) -> OrientedPlane:
    n1, n2, n3 = plane.n
    return OrientedPlane(np.array([n1, n2, -n3]), plane.h)


def offset_sphere(sphere: OrientedSphere, dist: float) -> OrientedSphere:
    return OrientedSphere(sphere.m.copy(), sphere.r + float(dist))


def test_plane_point_examples():
    q = plane_to_ipoint(OrientedPlane(np.array([0.0, 0.0, 1.0]), 5.0))
    assert not q.is_ideal
    assert np.allclose(q.coords(), (0.0, 0.0, 2.5), atol=ROUND_TRIP_TOL)
    q = plane_to_ipoint(OrientedPlane(np.array([1.0, 0.0, 0.0]), 0.0))
    assert np.allclose(q.coords(), (1.0, 0.0, 0.0), atol=ROUND_TRIP_TOL)
    q = plane_to_ipoint(OrientedPlane(np.array([0.0, 0.0, -1.0]), 7.0))
    assert q.is_ideal and q.ideal_label == 7.0


def test_ipoint_to_plane_examples():
    p = ipoint_to_plane(IsoPoint.finite(0.0, 0.0, 2.5))
    assert np.allclose(p.n, (0.0, 0.0, 1.0), atol=ROUND_TRIP_TOL)
    assert abs(p.h - 5.0) < ROUND_TRIP_TOL
    p = ipoint_to_plane(IsoPoint.ideal(7.0))
    assert np.allclose(p.n, (0.0, 0.0, -1.0), atol=ROUND_TRIP_TOL)
    assert abs(p.h - 7.0) < ROUND_TRIP_TOL


def test_plane_point_round_trip_random():
    rng = np.random.default_rng(5)
    normals = random_unit_vectors(rng, 1000)
    keep = normals[:, 2] > -0.999
    for n in normals[keep]:
        h = float(rng.normal())
        plane = OrientedPlane(n, h)
        back = ipoint_to_plane(plane_to_ipoint(plane))
        assert np.allclose(back.n, plane.n, atol=ROUND_TRIP_TOL)
        assert abs(back.h - plane.h) < ROUND_TRIP_TOL


def test_stereographic_pair_inverts():
    rng = np.random.default_rng(9)
    x = rng.normal(size=300)
    y = rng.normal(size=300)
    n = inverse_stereographic(x, y)
    assert np.allclose(np.linalg.norm(n, axis=-1), 1.0, atol=ROUND_TRIP_TOL)
    uv = stereographic(n)
    assert np.allclose(uv[..., 0], x, atol=1e-10)
    assert np.allclose(uv[..., 1], y, atol=1e-10)


def test_sphere_image_examples():
    s = sphere_to_imsphere(OrientedSphere(np.zeros(3), 1.0))
    assert np.allclose(s.coeffs(), (1.0, 0.0, 0.0, 0.5), atol=ROUND_TRIP_TOL)
    s = sphere_to_imsphere(OrientedSphere(np.array([0.0, 0.0, 1.0]), 1.0))
    assert np.allclose(s.coeffs(), (2.0, 0.0, 0.0, 0.0), atol=ROUND_TRIP_TOL)
    s = sphere_to_imsphere(OrientedSphere(np.array([-1.0, 0.0, 0.0]), 0.0))
    # point sphere at (-1,0,0): graph z = x
    assert np.allclose(s.coeffs(), (0.0, 1.0, 0.0, 0.0), atol=ROUND_TRIP_TOL)


def test_tangent_plane_images_lie_on_sphere_graph():
    """Defining coherence: images of the tangent planes of a sphere fill the
    graph of its model image."""
    rng = np.random.default_rng(17)
    worst = 0.0
    for _ in range(100):
        sphere = OrientedSphere(rng.normal(size=3), float(rng.normal()))
        s = sphere_to_imsphere(sphere)
        for n in random_unit_vectors(rng, 10):
            if n[2] < -0.999:
                continue
            q = plane_to_ipoint(sphere_tangent_plane(sphere, n).plane)
            worst = max(worst, abs(q.z - s.height(q.x, q.y)))
    assert worst < COHERENCE_TOL


def test_line_image_is_pair_of_sphere_equations():
    for p, d in [
        ((0.0, 0.0, 0.0), (0.0, 0.0, 1.0)),
        ((0.0, 0.0, 0.0), (1.0, 0.0, 0.0)),
        ((0.0, 0.0, 5.0), (1.0, 0.0, 0.0)),
        ((1.0, -2.0, 0.5), (0.3, 0.4, 0.7)),
    ]:
        s1, s2 = line_to_imcircle(Line3.through(p, d))
        # re-sample the pencil of planes through the line and verify both
        # fitted equations vanish on the images
        line = Line3.through(p, d)
        seed = np.array([1.0, 0.0, 0.0])
        if abs(seed @ line.d) > 0.9:
            seed = np.array([0.0, 1.0, 0.0])
        u = np.cross(line.d, seed)
        u = u / np.linalg.norm(u)
        v = np.cross(line.d, u)
        for t in np.linspace(0.1, 3.0, 12):
            n = np.cos(t) * u + np.sin(t) * v
            if n[2] < -0.999:
                continue
            q = plane_to_ipoint(OrientedPlane(n, -float(n @ line.p)))
            r2 = q.x * q.x + q.y * q.y
            e1 = s1.a / 2.0 * r2 + s1.b * q.x + s1.c * q.y + s1.d - q.z
            e2 = s2.a / 2.0 * r2 + s2.b * q.x + s2.c * q.y + s2.d - q.z
            # relative to the image height: near n3 = -1 the image point
            # itself carries the rounding of 1/(n3 + 1)
            scale = 1.0 + abs(q.z)
            assert abs(e1) < 1e-12 * scale and abs(e2) < 1e-12 * scale


def test_transform_examples():
    T = IMTransform().then("invert")
    q = imtransform_apply(T, IsoPoint.finite(1.0, 1.0, 4.0))
    assert np.allclose(q.coords(), (0.5, 0.5, 2.0), atol=ROUND_TRIP_TOL)
    T = IMTransform().then("parab")
    q = imtransform_apply(T, IsoPoint.finite(0.0, 0.0, 0.0))
    assert np.allclose(q.coords(), (0.0, 0.0, -1.0), atol=ROUND_TRIP_TOL)
    T = IMTransform().then("rotate", theta=np.pi / 2)
    q = imtransform_apply(T, IsoPoint.finite(1.0, 0.0, 3.0))
    assert np.allclose(q.coords(), (0.0, 1.0, 3.0), atol=ROUND_TRIP_TOL)


def test_inversion_exchanges_origin_and_ideal():
    T = IMTransform().then("invert")
    q = imtransform_apply(T, IsoPoint.finite(0.0, 0.0, 3.0))
    assert q.is_ideal
    back = imtransform_apply(T, q)
    assert not back.is_ideal


def test_sphere_map_examples():
    T = IMTransform().then("zscale", a=2.0)
    s = imsphere_map(T, IMSphere(1.0, 0.0, 0.0, 0.0))
    assert np.allclose(s.coeffs(), (2.0, 0.0, 0.0, 0.0), atol=ROUND_TRIP_TOL)
    T = IMTransform().then("invert")
    s = imsphere_map(T, IMSphere(0.0, 0.0, 0.0, 1.0))
    assert np.allclose(s.coeffs(), (2.0, 0.0, 0.0, 0.0), atol=ROUND_TRIP_TOL)
    T = IMTransform().then("rotate", theta=0.3)
    s = imsphere_map(T, IMSphere(1.0, 0.5, -0.2, 0.7))
    c, sn = np.cos(0.3), np.sin(0.3)
    assert np.allclose(
        s.coeffs(), (1.0, 0.5 * c + 0.2 * sn, 0.5 * sn - 0.2 * c, 0.7), atol=1e-12
    )


def test_sphere_map_agrees_with_point_pushes():
    rng = np.random.default_rng(23)
    words = [
        IMTransform().then("rotate", theta=0.8),
        IMTransform().then("shear", a=0.5, b=-0.3),
        IMTransform().then("parab"),
        IMTransform().then("offset", h=1.2),
        IMTransform().then("zscale", a=1.7),
        IMTransform().then("sqrt2"),
        IMTransform().then("xshift", t=1.0),
        IMTransform().then("invert"),
        IMTransform().then("rotate", theta=0.4).then("invert").then("offset", h=0.2),
    ]
    for T in words:
        for _ in range(5):
            s = IMSphere(*rng.normal(size=4))
            out = imsphere_map(T, s)
            x = rng.uniform(0.3, 1.5, 20) * np.cos(rng.uniform(0, 7, 20))
            y = rng.uniform(0.3, 1.5, 20) * np.sin(rng.uniform(0, 7, 20))
            for xi, yi in zip(x, y):
                q = imtransform_apply(T, IsoPoint.finite(xi, yi, s.height(xi, yi)))
                if q.is_ideal:
                    continue
                assert abs(out.height(q.x, q.y) - q.z) < 1e-9


def _lam_induced(x, y, z):
    r2 = x * x + y * y
    w = 2.0 / (np.sqrt(4.0 + r2 * r2) + 2.0 - r2)
    return w * x, w * y, w * z


# Euclidean Laguerre maps of planes, paired with a model generator as they
# are commonly tabulated, and the model map each one induces through the
# projection.  None: the induced map is the generator itself.
_PLANE_MAPS = {
    "rotate": ({"theta": 0.8}, lambda p: rotate_plane_z(p, 0.8), None),
    "shear": ({"a": 0.5, "b": -0.3},
              lambda p: translate_plane(p, (0.5, -0.3, 0.0)),
              lambda x, y, z: (x, y, z - 0.5 * x + 0.3 * y)),
    "parab": ({}, lambda p: translate_plane(p, (0.0, 0.0, 1.0)),
              lambda x, y, z: (x, y, z + 0.5 * (x * x + y * y - 1.0))),
    "offset": ({"h": 0.7}, lambda p: offset_plane(p, 0.7),
               lambda x, y, z: (x, y, z + 0.35 * (1.0 + x * x + y * y))),
    "zscale": ({"a": 1.6}, lambda p: scale_plane(p, 1.6), None),
    "invert": ({}, reflect_plane_z, None),
    "sqrt2": ({}, lambda_transform, _lam_induced),
}


def _audit_planes(count=160, seed=7):
    rng = np.random.default_rng(seed)
    planes = []
    while len(planes) < count:
        n = rng.normal(size=3)
        n /= np.linalg.norm(n)
        if n[2] < -0.75:  # keep clear of the ideal direction
            continue
        planes.append(hesse_normalize(n, rng.normal()))
    return planes


@pytest.mark.parametrize("name", sorted(_PLANE_MAPS))
def test_plane_maps_induce_their_model_maps(name):
    # conjugating a Euclidean plane map with the projection gives the
    # stated model map; only rotate, zscale and invert are the generator
    # their Euclidean map is tabulated with
    params, euclid, induced = _PLANE_MAPS[name]
    tf = IMTransform().then(name, **params)
    gen_dev = induced_dev = 0.0
    for plane in _audit_planes():
        q = plane_to_ipoint(plane)
        image = plane_to_ipoint(euclid(plane)).coords()
        by_gen = imtransform_apply(tf, q).coords()
        by_induced = by_gen if induced is None else np.array(induced(q.x, q.y, q.z))
        gen_dev = max(gen_dev, float(np.linalg.norm(image - by_gen)))
        induced_dev = max(induced_dev, float(np.linalg.norm(image - by_induced)))
    assert induced_dev <= 1e-9
    if induced is None:
        assert gen_dev <= 1e-9
    else:
        assert gen_dev > 1e-3


def _projection_cases():
    rng = np.random.default_rng(41)
    n = list(random_unit_vectors(rng, 200))
    for eps in (1e-3, 1e-6, 1e-8, 1e-9, 2e-9, 1e-12, 1e-16):
        t = rng.normal(size=2)
        n.append(np.array([*(np.sqrt(eps * (2.0 - eps)) * t / np.linalg.norm(t)),
                           -1.0 + eps]))
    n += [np.array([0.0, 0.0, -1.0]), np.array([0.3, -0.4, -1.0])]
    return np.array(n), rng.normal(size=len(n))


def test_projection_keeps_the_inline_arithmetic():
    # the bits of the formula isotropic_image carried inline, including
    # normals at and next to n3 = -1, where it divides by (nearly) zero
    n, h = _projection_cases()
    w = 1.0 + n[..., 2]
    with np.errstate(divide="ignore", invalid="ignore"):
        inline = np.stack([n[..., 0] / w, n[..., 1] / w, h / w], axis=-1)
        top = n[..., :2] / (1.0 + n[..., 2:3])
        assert isotropic(n, h).tobytes() == inline.tobytes()
        assert stereographic(n).tobytes() == top.tobytes()


def test_one_ideal_tolerance():
    for eps, ideal in ((0.5 * IDEAL_TOL, True), (2.0 * IDEAL_TOL, False)):
        n = np.array([np.sqrt(eps * (2.0 - eps)), 0.0, -1.0 + eps])
        assert plane_to_ipoint(OrientedPlane(n, 3.0)).is_ideal == ideal


def test_unknown_generator_rejected():
    with pytest.raises(ValueError):
        IMTransform().then("twist")


_GENERATOR_PARAMS = {"rotate": {"theta": 0.8}, "shear": {"a": 0.5, "b": -0.3},
                     "parab": {}, "offset": {"h": 1.2}, "zscale": {"a": 1.7},
                     "invert": {}, "sqrt2": {}, "xshift": {"t": 0.6}}


@pytest.mark.parametrize("name", sorted(_GENERATOR_PARAMS))
def test_ideal_labels_follow_the_sphere_map(name):
    # an ideal point labelled h lies on every model sphere with leading
    # coefficient h; its image lies on every image sphere
    assert set(_GENERATOR_PARAMS) == set(GENERATORS)
    T = IMTransform().then(name, **_GENERATOR_PARAMS[name])
    for h, b, c, d in ((0.0, 0.3, -0.2, 0.5), (1.5, -0.7, 0.4, 0.1),
                       (-2.25, 0.0, 1.0, -0.4)):
        q = imtransform_apply(T, IsoPoint.ideal(h))
        image = imsphere_map(T, IMSphere(h, b, c, d))
        if q.is_ideal:
            assert q.ideal_label == pytest.approx(image.a, abs=1e-12)
        else:
            assert q.z == pytest.approx(image.height(q.x, q.y), abs=1e-12)


def _line_cases():
    rng = np.random.default_rng(2026)
    cases = [((0.3, -1.0, 2.0), (0.0, 0.0, 1.0)),    # vertical
             ((1.5, 0.2, -0.7), (0.6, -0.8, 0.0)),   # horizontal
             ((0.0, 0.0, 0.0), (0.0, 1.0, 0.0))]
    cases += [(rng.normal(size=3) * 2.0, rng.normal(size=3)) for _ in range(20)]
    return cases


@pytest.mark.parametrize("p, d", _line_cases())
def test_line_image_lies_on_both_closed_form_spheres(p, d):
    line = Line3.through(p, d)
    s1, s2 = line_to_imcircle(line)
    assert not np.allclose(s1.coeffs(), s2.coeffs())
    seed = np.array([1.0, 0.0, 0.0]) if abs(line.d[0]) < 0.9 else np.array([0.0, 1.0, 0.0])
    e1 = np.cross(line.d, seed)
    e1 /= np.linalg.norm(e1)
    e2 = np.cross(line.d, e1)
    checked = 0
    for t in np.linspace(0.0, 2.0 * np.pi, 50, endpoint=False):
        n = np.cos(t) * e1 + np.sin(t) * e2
        q = plane_to_ipoint(OrientedPlane(n, -float(n @ line.p)))
        if q.is_ideal or n[2] < -0.999:
            continue
        scale = 1.0 + abs(q.z) + q.x * q.x + q.y * q.y
        for s in (s1, s2):
            assert abs(s.height(q.x, q.y) - q.z) <= 1e-12 * scale
        checked += 1
    assert checked >= 45


@pytest.mark.parametrize("p, d", _line_cases())
def test_line_spheres_are_the_point_sphere_images(p, d):
    # the spheres built by hand from m = p and m = p + d/|d| before
    # `sphere_to_imsphere` of the point spheres replaced them: equal values
    # (a zero may change its sign)
    line = Line3.through(p, d)
    dn = line.d / np.linalg.norm(line.d)
    for m, s in zip((line.p, line.p + dn), line_to_imcircle(line)):
        assert s.coeffs().tolist() == [m[2], -m[0], -m[1], -0.5 * m[2]]


def test_line_image_needs_a_direction():
    with pytest.raises(ZeroNormal):
        line_to_imcircle(Line3(np.zeros(3), np.zeros(3)))


# -- the per-generator formulas the 5x5 matrices replaced, kept as the
# reference they are tested against


def _reference_point(name, p, x, y, z):
    if name == "rotate":
        c, s = np.cos(p["theta"]), np.sin(p["theta"])
        return c * x - s * y, s * x + c * y, z
    if name == "shear":
        return x, y, z + p["a"] * x + p["b"] * y
    if name == "parab":
        return x, y, z + x * x + y * y - 1.0
    if name == "offset":
        return x, y, z + p["h"]
    if name == "zscale":
        return x, y, p["a"] * z
    if name == "sqrt2":
        return x / np.sqrt(2.0), y / np.sqrt(2.0), z / np.sqrt(2.0)
    if name == "xshift":
        return x + p["t"], y, z
    raise AssertionError(name)


def _reference_coeffs(name, p, s):
    a, b, c, d = s.a, s.b, s.c, s.d
    if name == "rotate":
        co, si = np.cos(p["theta"]), np.sin(p["theta"])
        return IMSphere(a, co * b - si * c, si * b + co * c, d)
    if name == "shear":
        return IMSphere(a, b + p["a"], c + p["b"], d)
    if name == "parab":
        return IMSphere(a + 2.0, b, c, d - 1.0)
    if name == "offset":
        return IMSphere(a, b, c, d + p["h"])
    if name == "zscale":
        k = p["a"]
        return IMSphere(k * a, k * b, k * c, k * d)
    if name == "invert":
        return IMSphere(2.0 * d, b, c, a / 2.0)
    if name == "sqrt2":
        return IMSphere(np.sqrt(2.0) * a, b, c, d / np.sqrt(2.0))
    if name == "xshift":
        t = p["t"]
        return IMSphere(a, b - a * t, c, d - b * t + 0.5 * a * t * t)
    raise AssertionError(name)


def _reference_apply(tf, q):
    for name, params in tf.word:
        p = dict(params)
        if name == "invert":
            if q.is_ideal:
                q = IsoPoint.finite(0.0, 0.0, q.ideal_label / 2.0)
            else:
                r2 = q.x * q.x + q.y * q.y
                if r2 == 0.0:
                    q = IsoPoint.ideal(2.0 * q.z)
                else:
                    q = IsoPoint.finite(q.x / r2, q.y / r2, q.z / r2)
        elif q.is_ideal:
            # the label moves as the leading coefficient of the spheres
            # through the ideal point
            s = IMSphere(q.ideal_label, 0.0, 0.0, 0.0)
            q = IsoPoint.ideal(_reference_coeffs(name, p, s).a)
        else:
            q = IsoPoint.finite(*_reference_point(name, p, q.x, q.y, q.z))
    return q


def _reference_sphere_map(tf, s):
    for name, params in tf.word:
        s = _reference_coeffs(name, dict(params), s)
    return s


def _seeded_words(count=600, seed=15):
    """Words of 1 to 4 generators with seeded parameters; the first eight
    are the single generators."""
    rng = np.random.default_rng(seed)
    names = sorted(GENERATORS)
    words = []
    for k in range(count):
        picks = [names[k]] if k < len(names) else \
            rng.choice(names, size=rng.integers(1, 5))
        tf = IMTransform()
        for name in picks:
            params = {key: float(rng.normal()) for key in GENERATORS[name]}
            if name == "rotate":
                params["theta"] = float(rng.uniform(-np.pi, np.pi))
            if name == "zscale":
                params["a"] = float(rng.choice([-1.0, 1.0]) * rng.uniform(0.2, 3.0))
            tf = tf.then(str(name), **params)
        words.append(tf)
    return words, rng


def _close(new, ref):
    new, ref = np.asarray(new, dtype=float), np.asarray(ref, dtype=float)
    return bool(np.all(np.abs(new - ref) <= 1e-13 * (1.0 + np.abs(ref))))


def test_generator_matrices_move_points_as_the_reference_formulas():
    words, rng = _seeded_words()
    assert {name for tf in words for name, _ in tf.word} == set(GENERATORS)
    for tf in words:
        for q in (IsoPoint.finite(*rng.normal(size=3)),
                  IsoPoint.ideal(rng.normal())):
            new, ref = imtransform_apply(tf, q), _reference_apply(tf, q)
            assert new.is_ideal == ref.is_ideal, (tf, q)
            if ref.is_ideal:
                assert _close(new.ideal_label, ref.ideal_label), (tf, q)
            else:
                assert _close(new.coords(), ref.coords()), (tf, q)


def test_generator_matrices_move_spheres_as_the_reference_formulas():
    words, rng = _seeded_words()
    for tf in words:
        s = IMSphere(*rng.normal(size=4))
        new, ref = imsphere_map(tf, s), _reference_sphere_map(tf, s)
        assert _close(new.coeffs(), ref.coeffs()), (tf, s)


def test_the_word_matrix_applies_its_generators_left_to_right():
    a = IMTransform().then("xshift", t=0.5)
    b = IMTransform().then("invert")
    ab = IMTransform(a.word + b.word)
    assert np.array_equal(IMTransform().matrix(), np.eye(5))
    assert np.array_equal(ab.matrix(), b.matrix() @ a.matrix())
    # x = -0.5 shifts onto the axis, which inverts to the ideal line
    assert imtransform_apply(ab, IsoPoint.finite(-0.5, 0.0, 1.5)).ideal_label == 3.0


@pytest.mark.parametrize("name, params", [
    ("rotate", {}),                      # missing
    ("shear", {"a": 0.5}),               # one of two missing
    ("parab", {"h": 3.0}),               # extra
    ("offset", {"h": 1.0, "t": 2.0}),    # extra beside the right one
    ("xshift", {}),                      # no default step
    ("offset", {"h": float("nan")}),
    ("rotate", {"theta": float("inf")}),
    ("shear", {"a": 0.5, "b": -float("inf")}),
    ("zscale", {"a": 0.0}),              # not invertible
    ("zscale", {"a": -0.0}),
])
def test_words_refuse_wrong_parameters(name, params):
    with pytest.raises(ValueError, match=name):
        IMTransform().then(name, **params)


def test_words_are_hashable_and_ignore_parameter_order():
    one = IMTransform().then("shear", a=0.5, b=-0.3).then("invert")
    two = IMTransform().then("shear", b=-0.3, a=0.5).then("invert")
    assert one == two and hash(one) == hash(two)
    assert len({one, two, IMTransform().then("shear", a=0.5, b=0.3)}) == 2
    assert one.word[0] == ("shear", (("a", 0.5), ("b", -0.3)))
