"""Oriented planes, oriented spheres and contact elements in Euclidean space.

A plane is stored in Hesse normal form n . p + h = 0 with |n| = 1; the sign
of (n, h) carries the orientation, so (n, h) and (-n, -h) describe the two
sides of the same carrier plane.  A sphere carries a signed radius with the
same role.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ZeroNormal

NORMAL_TOL = 1e-12  # a normal or direction must be longer than this


@dataclass(frozen=True)
class OrientedPlane:
    n: np.ndarray  # unit normal, shape (3,)
    h: float

    def evaluate(self, p) -> float:
        """Signed incidence n . p + h."""
        return float(np.dot(self.n, np.asarray(p, dtype=float)) + self.h)


@dataclass(frozen=True)
class OrientedSphere:
    m: np.ndarray  # center, shape (3,)
    r: float  # signed radius; r = 0 is a point sphere


@dataclass(frozen=True)
class ContactElement:
    point: np.ndarray
    plane: OrientedPlane


@dataclass(frozen=True)
class Line3:
    p: np.ndarray  # base point
    d: np.ndarray  # unit direction

    @classmethod
    def through(cls, p, d) -> "Line3":
        d = np.asarray(d, dtype=float)
        n = np.linalg.norm(d)
        if n <= NORMAL_TOL:
            raise ZeroNormal("line direction has zero length")
        return cls(np.asarray(p, dtype=float), d / n)


def sphere_tangent_plane(sphere: OrientedSphere, n) -> ContactElement:
    """Contact element of the oriented tangent plane of `sphere` with unit
    normal `n`.  The plane offset h = r - n . m makes n . p + h vanish at the
    contact point p = m - r n."""
    n = np.asarray(n, dtype=float)
    norm = float(np.linalg.norm(n))
    if abs(norm - 1.0) > 1e-9:
        if norm <= NORMAL_TOL:
            raise ZeroNormal("tangent direction has zero length")
        n = n / norm
    h = sphere.r - float(np.dot(n, sphere.m))
    point = sphere.m - sphere.r * n
    return ContactElement(point, OrientedPlane(n, h))


def random_unit_vectors(rng, count: int) -> np.ndarray:
    """Uniform points on the unit sphere, shape (count, 3)."""
    v = rng.normal(size=(count, 3))
    return v / np.linalg.norm(v, axis=1, keepdims=True)
