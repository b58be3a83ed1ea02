"""The isotropic model: oriented planes as points of a copy of R^3 completed
by an ideal line.

`isotropic` is the one projection: it sends the plane n . p + h = 0 to
(n1, n2, h)/(1 + n3), and `stereographic` is its top view.  The single
exceptional direction n = (0, 0, -1), to IDEAL_TOL, goes to an ideal point
labelled by h.  The one inverse is `inverse_stereographic`, the unit normal
over a top view (x, y).  Oriented spheres turn into graphs of special
quadratic polynomials ("model spheres" below) and lines into intersections
of two of them: the images of two point spheres on the line.

The model's Laguerre maps act linearly on homogeneous model points.  A
finite point is P = (1, x, y, z, (x^2 + y^2)/2) up to scale, and the ideal
point labelled h is (0, 0, 0, h, 1).  The model sphere
z = (a/2)(x^2 + y^2) + b x + c y + d is the covector S = (d, b, c, -1, a):
S . P = 0 exactly for its points, ideal ones included.  Each generator of
`IMTransform` is stated once, as a 5x5 matrix M on P.  A sphere then moves
by M^-T, because (M^-T S) . (M P) = S . P: the image points of a sphere lie
on the image sphere.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .errors import ZeroNormal
from .geom_core import Line3, OrientedPlane, OrientedSphere

IDEAL_TOL = 1e-9  # how close n3 must be to -1 to count as the ideal direction
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


def isotropic(n, h):
    """Model point (n1, n2, h)/(1 + n3) of the plane n . p + h = 0, for
    unit normals n (..., 3) and offsets h (...); an (..., 3) array.
    Callers send a normal within IDEAL_TOL of (0, 0, -1) to the ideal line
    instead."""
    n = np.asarray(n, dtype=float)
    w = 1.0 + n[..., 2]
    return np.stack([n[..., 0] / w, n[..., 1] / w, h / w], axis=-1)


def stereographic(n):
    """Top view (n1, n2)/(1 + n3) of a unit vector; vectorized over (..., 3)."""
    return isotropic(n, 0.0)[..., :2]


def inverse_stereographic(x, y):
    """Unit normal whose model image has top view (x, y); vectorized."""
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    s = 1.0 + x * x + y * y
    return np.stack([2.0 * x / s, 2.0 * y / s, (1.0 - x * x - y * y) / s], axis=-1)


def plane_to_ipoint(plane: OrientedPlane) -> IsoPoint:
    if abs(1.0 + float(plane.n[2])) <= IDEAL_TOL:
        return IsoPoint.ideal(plane.h)
    return IsoPoint.finite(*isotropic(plane.n, float(plane.h)))


def sphere_to_imsphere(sphere: OrientedSphere) -> IMSphere:
    m1, m2, m3 = (float(c) for c in sphere.m)
    r = float(sphere.r)
    return IMSphere(a=r + m3, b=-m1, c=-m2, d=0.5 * (r - m3))


# -- lines --------------------------------------------------------------


def line_to_imcircle(line: Line3):
    """Image of the plane pencil through a line, returned as two model
    spheres of the special shape z = m3 (x^2+y^2-1) - m1 x - m2 y whose
    intersection carries the image curve.

    A plane n . x + h = 0 through the line (p, d) has h = -n . p.  For a
    unit n, x^2 + y^2 - 1 = -2 n3/(n3 + 1) at its image (n1, n2, h)/(n3 + 1),
    so the image lies on the sphere exactly when h = -n . (m1, m2, 2 m3),
    that is when n . (p - (m1, m2, 2 m3)) = 0.  That holds for every
    n perpendicular to d iff (m1, m2, 2 m3) = p + t d: the sphere is the
    image of the point sphere at p + t d.  Those at p and p + d/|d| are
    returned.
    """
    p = np.asarray(line.p, dtype=float)
    d = np.asarray(line.d, dtype=float)
    nd = np.linalg.norm(d)
    if nd < 1e-12:
        raise ZeroNormal("line direction has zero length")
    return (sphere_to_imsphere(OrientedSphere(p, 0.0)),
            sphere_to_imsphere(OrientedSphere(p + d / nd, 0.0)))


# -- model transformations ---------------------------------------------

# each generator's parameters, by name
GENERATORS = {"rotate": ("theta",), "shear": ("a", "b"), "parab": (),
              "offset": ("h",), "zscale": ("a",), "invert": (), "sqrt2": (),
              "xshift": ("t",)}


@dataclass(frozen=True)
class IMTransform:
    """Composition word over the generator set; applied left to right.
    Each entry is (name, ((param, value), ...)) with the params sorted."""

    word: tuple = ()

    def then(self, name: str, **params) -> "IMTransform":
        if name not in GENERATORS:
            raise ValueError(f"unknown generator {name!r}")
        values = tuple((k, float(params[k])) for k in sorted(params))
        if set(params) != set(GENERATORS[name]) or not all(
                math.isfinite(v) for _, v in values):
            raise ValueError(f"{name} takes finite parameters "
                             f"{GENERATORS[name]}, got {dict(values)}")
        if name == "zscale" and values[0][1] == 0.0:
            raise ValueError("zscale by a = 0 is not invertible")
        return IMTransform(self.word + ((name, values),))

    def matrix(self) -> np.ndarray:
        """The word's 5x5 matrix on homogeneous model points."""
        m = np.eye(5)
        for name, values in self.word:
            m = _generator_matrix(name, **dict(values)) @ m
        return m


def _generator_matrix(name, **p) -> np.ndarray:
    """The generator's matrix on P = (P0, x, y, z, P4); each comment is the
    row it changes."""
    m = np.eye(5)
    if name == "rotate":  # (x, y) turn by theta
        c, s = np.cos(p["theta"]), np.sin(p["theta"])
        m[1:3, 1:3] = ((c, -s), (s, c))
    elif name == "shear":  # z += a x + b y
        m[3, 1:3] = p["a"], p["b"]
    elif name == "parab":  # z += 2 P4 - P0
        m[3, 0], m[3, 4] = -1.0, 2.0
    elif name == "offset":  # z += h P0
        m[3, 0] = p["h"]
    elif name == "zscale":  # z *= a
        m[3, 3] = p["a"]
    elif name == "sqrt2":  # x, y, z /= sqrt 2 and P4 /= 2
        m[1, 1] = m[2, 2] = m[3, 3] = 1.0 / SQRT2
        m[4, 4] = 0.5
    elif name == "xshift":  # x += t P0 and P4 += t x + t^2/2 P0
        t = p["t"]
        m[1, 0] = t
        m[4, 0:2] = 0.5 * t * t, t
    else:  # invert: P0 <- 2 P4 and P4 <- P0/2
        m[0, 0], m[0, 4], m[4, 4], m[4, 0] = 0.0, 2.0, 0.0, 0.5
    return m


def imtransform_apply(tf: IMTransform, q: IsoPoint) -> IsoPoint:
    if q.is_ideal:
        p = (0.0, 0.0, 0.0, q.ideal_label, 1.0)
    else:
        p = (1.0, q.x, q.y, q.z, 0.5 * (q.x * q.x + q.y * q.y))
    p = tf.matrix() @ p
    if p[0] == 0.0:
        return IsoPoint.ideal(p[3] / p[4])
    return IsoPoint.finite(*(p[1:4] / p[0]))


def imsphere_map(tf: IMTransform, s: IMSphere) -> IMSphere:
    """Push a model sphere through a transformation word: its covector
    moves by the inverse transpose of the word's matrix."""
    cov = np.linalg.solve(tf.matrix().T, [s.d, s.b, s.c, -1.0, s.a])
    d, b, c, _, a = cov / -cov[3]
    return IMSphere(float(a), float(b), float(c), float(d))
