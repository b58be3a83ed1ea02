"""The isotropic model: oriented planes as points of a copy of R^3 completed
by an ideal line.

The projection sends the plane n . p + h = 0 to (n1, n2, h)/(n3 + 1); the
single exceptional direction n = (0, 0, -1) goes to an ideal point labelled
by h.  Oriented spheres turn into graphs of special quadratic polynomials
("model spheres" below) and lines into intersections of two of them.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from .errors import ZeroNormal
from .geom_core import (
    Line3,
    OrientedPlane,
    OrientedSphere,
    hesse_normalize,
    lambda_transform,
    offset_plane,
    reflect_plane_z,
    rotate_plane_z,
    scale_plane,
    translate_plane,
)

IDEAL_TOL = 1e-12  # how close n3 must be to -1 to count as the ideal direction
SQRT2 = float(np.sqrt(2.0))


@dataclass(frozen=True)
class IsoPoint:
    """A point of the model space: finite (x, y, z) or ideal with label h."""

    x: float = 0.0
    y: float = 0.0
    z: float = 0.0
    ideal_label: Optional[float] = None

    @classmethod
    def finite(cls, x, y, z):
        return cls(float(x), float(y), float(z))

    @classmethod
    def ideal(cls, h):
        return cls(ideal_label=float(h))

    @property
    def is_ideal(self) -> bool:
        return self.ideal_label is not None

    def coords(self) -> np.ndarray:
        if self.is_ideal:
            raise ValueError("ideal point has no finite coordinates")
        return np.array([self.x, self.y, self.z])


@dataclass(frozen=True)
class IMSphere:
    """Graph z = (a/2)(x^2 + y^2) + b x + c y + d.

    The leading coefficient `a` is the isotropic mean curvature; it is also
    the label of the ideal point the graph reaches.
    """

    a: float
    b: float
    c: float
    d: float

    def height(self, x, y):
        x = np.asarray(x, dtype=float)
        y = np.asarray(y, dtype=float)
        return 0.5 * self.a * (x * x + y * y) + self.b * x + self.c * y + self.d

    def coeffs(self) -> np.ndarray:
        return np.array([self.a, self.b, self.c, self.d])


def plane_to_ipoint(plane: OrientedPlane) -> IsoPoint:
    n1, n2, n3 = (float(c) for c in plane.n)
    if abs(n3 + 1.0) <= IDEAL_TOL:
        return IsoPoint.ideal(plane.h)
    w = 1.0 / (n3 + 1.0)
    return IsoPoint.finite(n1 * w, n2 * w, plane.h * w)


def ipoint_to_plane(point: IsoPoint) -> OrientedPlane:
    if point.is_ideal:
        return OrientedPlane(np.array([0.0, 0.0, -1.0]), float(point.ideal_label))
    x, y, z = point.x, point.y, point.z
    s = 1.0 + x * x + y * y
    n = np.array([2.0 * x, 2.0 * y, 1.0 - x * x - y * y]) / s
    return OrientedPlane(n, 2.0 * z / s)


def inverse_stereographic(x, y):
    """Unit normal whose model image has top view (x, y); vectorized."""
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    s = 1.0 + x * x + y * y
    return np.stack([2.0 * x / s, 2.0 * y / s, (1.0 - x * x - y * y) / s], axis=-1)


def stereographic(n):
    """Top view (n1, n2)/(1 + n3) of a unit vector; vectorized over (..., 3)."""
    n = np.asarray(n, dtype=float)
    return n[..., :2] / (1.0 + n[..., 2:3])


def sphere_to_imsphere(sphere: OrientedSphere) -> IMSphere:
    m1, m2, m3 = (float(c) for c in sphere.m)
    r = float(sphere.r)
    return IMSphere(a=r + m3, b=-m1, c=-m2, d=0.5 * (r - m3))


def imsphere_to_sphere(s: IMSphere) -> OrientedSphere:
    m3 = 0.5 * s.a - s.d
    r = 0.5 * s.a + s.d
    return OrientedSphere(np.array([-s.b, -s.c, m3]), r)


# -- lines --------------------------------------------------------------


def line_to_imcircle(line: Line3):
    """Image of the plane pencil through a line, returned as two model
    spheres of the special shape z = m3 (x^2+y^2-1) - m1 x - m2 y whose
    intersection carries the image curve.

    A plane n . x + h = 0 through the line (p, d) has h = -n . p.  For a
    unit n, x^2 + y^2 - 1 = -2 n3/(n3 + 1) at its image (n1, n2, h)/(n3 + 1),
    so the image lies on the sphere exactly when h = -n . (m1, m2, 2 m3),
    that is when n . (p - (m1, m2, 2 m3)) = 0.  That holds for every
    n perpendicular to d iff (m1, m2, 2 m3) = p + t d; the members t = 0
    and t = 1 (with d of unit length) are returned.
    """
    p = np.asarray(line.p, dtype=float)
    d = np.asarray(line.d, dtype=float)
    nd = np.linalg.norm(d)
    if nd < 1e-12:
        raise ZeroNormal("line direction has zero length")

    def member(m):
        return IMSphere(a=m[2], b=-m[0], c=-m[1], d=-0.5 * m[2])

    return member(p), member(p + d / nd)


# -- model transformations ---------------------------------------------

GENERATORS = ("rotate", "shear", "parab", "offset", "zscale", "invert", "sqrt2", "xshift")


@dataclass(frozen=True)
class IMTransform:
    """Composition word over the generator set; applied left to right."""

    word: tuple = ()

    def then(self, name: str, **params) -> "IMTransform":
        if name not in GENERATORS:
            raise ValueError(f"unknown generator {name!r}")
        return IMTransform(self.word + ((name, params),))


def _apply_gen_finite(name, params, x, y, z):
    if name == "rotate":
        t = params["theta"]
        c, s = np.cos(t), np.sin(t)
        return c * x - s * y, s * x + c * y, z
    if name == "shear":
        return x, y, z + params["a"] * x + params["b"] * y
    if name == "parab":
        return x, y, z + x * x + y * y - 1.0
    if name == "offset":
        return x, y, z + params["h"]
    if name == "zscale":
        return x, y, params["a"] * z
    if name == "sqrt2":
        return x / SQRT2, y / SQRT2, z / SQRT2
    if name == "xshift":
        return x + params.get("t", 1.0), y, z
    raise AssertionError(name)


def imtransform_apply(tf: IMTransform, q: IsoPoint) -> IsoPoint:
    for name, params in tf.word:
        if name == "invert":
            if q.is_ideal:
                # the sphere with leading coefficient h passes through the
                # label-h ideal point; its inverse passes through (0, 0, h/2)
                q = IsoPoint.finite(0.0, 0.0, q.ideal_label / 2.0)
            else:
                r2 = q.x * q.x + q.y * q.y
                if r2 == 0.0:
                    q = IsoPoint.ideal(2.0 * q.z)
                else:
                    q = IsoPoint.finite(q.x / r2, q.y / r2, q.z / r2)
        elif q.is_ideal:
            # the label is the leading coefficient of every model sphere
            # through the ideal point, so it moves as that coefficient does
            s = IMSphere(q.ideal_label, 0.0, 0.0, 0.0)
            q = IsoPoint.ideal(_map_coeffs(name, params, s).a)
        else:
            q = IsoPoint.finite(*_apply_gen_finite(name, params, q.x, q.y, q.z))
    return q


def _map_coeffs(name, params, s: IMSphere) -> IMSphere:
    a, b, c, d = s.a, s.b, s.c, s.d
    if name == "rotate":
        t = params["theta"]
        co, si = np.cos(t), np.sin(t)
        return IMSphere(a, co * b - si * c, si * b + co * c, d)
    if name == "shear":
        return IMSphere(a, b + params["a"], c + params["b"], d)
    if name == "parab":
        return IMSphere(a + 2.0, b, c, d - 1.0)
    if name == "offset":
        return IMSphere(a, b, c, d + params["h"])
    if name == "zscale":
        k = params["a"]
        return IMSphere(k * a, k * b, k * c, k * d)
    if name == "invert":
        return IMSphere(2.0 * d, b, c, a / 2.0)
    if name == "sqrt2":
        return IMSphere(SQRT2 * a, b, c, d / SQRT2)
    if name == "xshift":
        t = params.get("t", 1.0)
        return IMSphere(a, b - a * t, c, d - b * t + 0.5 * a * t * t)
    raise AssertionError(name)


_CHECK_XY = np.array([(0.7, 0.2), (-0.4, 1.1), (1.3, -0.5), (0.6, 0.9), (-1.2, -0.8), (2.1, 0.4)])


def imsphere_map(tf: IMTransform, s: IMSphere) -> IMSphere:
    """Push a model sphere through a transformation word.  Closed-form per
    generator, then validated by pushing six graph points through the point
    map."""
    out = s
    for name, params in tf.word:
        out = _map_coeffs(name, params, out)
    for x0, y0 in _CHECK_XY:
        q = imtransform_apply(tf, IsoPoint.finite(x0, y0, s.height(x0, y0)))
        if q.is_ideal:
            continue
        expected = out.height(q.x, q.y)
        scale = 1.0 + abs(expected)
        if abs(expected - q.z) > 1e-9 * scale:
            raise AssertionError(
                f"coefficient map disagrees with point map under {name!r}: "
                f"{q.z!r} vs {expected!r}"
            )
    return out


# -- correspondence audit ----------------------------------------------


def _lam_induced(x, y, z):
    r2 = x * x + y * y
    w = 2.0 / (np.sqrt(4.0 + r2 * r2) + 2.0 - r2)
    return w * x, w * y, w * z


# Claimed pairings between model-space generators and Euclidean Laguerre
# maps, as commonly tabulated.  Each row is audited numerically against the
# projection convention used here; rows that do not commute are reported
# with the measured deviation and the derived induced map rather than
# silently adjusted.
_AUDIT_ROWS = (
    (
        "rotate", {"theta": 0.8},
        "rotation about z by theta",
        lambda p: rotate_plane_z(p, 0.8),
        "(x, y) -> (x cos t - y sin t, x sin t + y cos t), z fixed",
        lambda x, y, z: _apply_gen_finite("rotate", {"theta": 0.8}, x, y, z),
    ),
    (
        "shear", {"a": 0.5, "b": -0.3},
        "translation by (a, b, 0)",
        lambda p: translate_plane(p, (0.5, -0.3, 0.0)),
        "z -> z - a x - b y",
        lambda x, y, z: (x, y, z - 0.5 * x + 0.3 * y),
    ),
    (
        "parab", {},
        "translation by (0, 0, 1)",
        lambda p: translate_plane(p, (0.0, 0.0, 1.0)),
        "z -> z + (x^2 + y^2 - 1)/2",
        lambda x, y, z: (x, y, z + 0.5 * (x * x + y * y - 1.0)),
    ),
    (
        "offset", {"h": 0.7},
        "offset: all tangent sphere radii shift by h",
        lambda p: offset_plane(p, 0.7),
        "z -> z + h (1 + x^2 + y^2)/2",
        lambda x, y, z: (x, y, z + 0.35 * (1.0 + x * x + y * y)),
    ),
    (
        "zscale", {"a": 1.6},
        "central dilation by a",
        lambda p: scale_plane(p, 1.6),
        "z -> a z",
        lambda x, y, z: (x, y, 1.6 * z),
    ),
    (
        "invert", {},
        "reflection in the plane z = 0",
        lambda p: reflect_plane_z(p),
        "(x, y, z) -> (x, y, z)/(x^2 + y^2)",
        lambda x, y, z: (x / (x * x + y * y), y / (x * x + y * y), z / (x * x + y * y)),
    ),
    (
        "sqrt2", {},
        "normal remap n3 -> (3 n3 + 1)/2, renormalized",
        lambda_transform,
        "(x, y, z) -> 2 (x, y, z)/(sqrt(4 + (x^2+y^2)^2) + 2 - x^2 - y^2)",
        _lam_induced,
    ),
)


def generator_correspondence_report(samples: int = 160, seed: int = 7) -> list:
    """Audit the claimed generator pairings row by row.

    For each row the Euclidean plane map is conjugated with the projection
    and compared against the model generator on a sample of planes.  The
    closed-form map the conjugation actually induces is recorded alongside
    and cross-checked on the same samples.  Returns a machine-readable list
    of dicts; rows are never forced to agree.
    """
    rng = np.random.default_rng(seed)
    report = []
    for gen_name, params, l_name, l_map, formula, induced in _AUDIT_ROWS:
        tf = IMTransform().then(gen_name, **params)
        devs = []
        form_devs = []
        used = 0
        while used < samples:
            n = rng.normal(size=3)
            n /= np.linalg.norm(n)
            if n[2] < -0.75:  # keep both source and image clear of the ideal direction
                continue
            plane = hesse_normalize(n, rng.normal())
            q = plane_to_ipoint(plane)
            via_euclid = plane_to_ipoint(l_map(plane))
            via_model = imtransform_apply(tf, q)
            if via_euclid.is_ideal or via_model.is_ideal:
                continue
            devs.append(np.linalg.norm(via_euclid.coords() - via_model.coords()))
            form_devs.append(
                np.linalg.norm(via_euclid.coords() - np.array(induced(q.x, q.y, q.z)))
            )
            used += 1
        max_dev = float(np.max(devs))
        form_dev = float(np.max(form_devs))
        if form_dev > 1e-9:
            raise AssertionError(
                f"derived induced map for {gen_name!r} fails its own audit ({form_dev:.2e})"
            )
        report.append(
            {
                "generator": gen_name,
                "parameters": dict(params),
                "euclidean_map": l_name,
                "samples": used,
                "max_deviation": max_dev,
                "matches": bool(max_dev < 1e-10),
                "induced_map": formula,
                "induced_map_deviation": form_dev,
            }
        )
    return report
