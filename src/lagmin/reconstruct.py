"""From scalar fields to surfaces and back.

`FieldSurface` turns a field F into the enveloping surface whose
Gauss map, read through stereographic projection, is the identity on the
field coordinates: the surface point over (x, y) is

    r = ((x²−y²−1)F_x + 2xy F_y − 2x F,
         (y²−x²−1)F_y + 2xy F_x − 2y F,
         2x F_x + 2y F_y − 2F) / (x²+y²+1).

`isotropic_image` goes the other way: take the oriented tangent plane of a
parametrized surface and project it to the point model.  It is the one
implementation of that map: a grid gets NaN rows where a plane has no
finite image, and a single point raises there.  The round trip
over a field graph is the identity (x, y, F(x, y)), which is what fixes the
orientation convention used here.  `unit_normal` is the one place where
that orientation is applied and where a vanishing r_u × r_v is detected;
every normal, tangent plane and curvature in the package goes through it.

Surface derivative jets come from analytic differentiation (field jets one
order higher), never from finite differences, so curvature formulas
downstream see exact derivatives.  A `SurfaceJet` of order n is one table
d[i, j] = ∂uⁱ∂vʲ r of shape (n+1, n+1, ..., 3), the layout of a scalar
`Jet` with a trailing axis for the three coordinates, so frames of any
order are built, summed and transformed as whole tables.
"""
from __future__ import annotations

import numpy as np

from .errors import IdealImage, NonImmersed
from .fields import ScalarField
from .isotropic import IDEAL_TOL, IsoPoint, inverse_stereographic, isotropic
from .jets import jet_xy

IMMERSION_TOL = 1e-10


class SurfaceJet:
    """Position and partial derivatives of a parametrization, stored the
    way a `Jet` stores a scalar: one table `d` of shape
    (order+1, order+1, ..., 3) with d[i, j] = ∂uⁱ∂vʲ r for i + j <= order
    (entries with i + j > order are zero).  `r`, `ru`, `rv`, `ruu`, `ruv`
    and `rvv` are read-only views of the first six entries."""

    __slots__ = ("d", "order")

    def __init__(self, d, order):
        self.d = d
        self.order = order

    @classmethod
    def from_components(cls, X, Y, Z, order) -> "SurfaceJet":
        """Frame of order `order` from the jets X, Y, Z of the three
        coordinate functions."""
        return cls(np.stack((X.d, Y.d, Z.d), axis=-1), order)

    r = property(lambda self: self.d[0, 0])
    ru = property(lambda self: self.d[1, 0])
    rv = property(lambda self: self.d[0, 1])
    ruu = property(lambda self: self.d[2, 0])
    ruv = property(lambda self: self.d[1, 1])
    rvv = property(lambda self: self.d[0, 2])


def unit_normal(S, ru, rv, u, v, what):
    """Oriented unit normal of S at (u, v) from the first derivatives
    there, and the length |r_u × r_v|.

    Where that length is at most IMMERSION_TOL the normal is undefined:
    NonImmersed("<what> undefined at N point(s)") is raised, or, when
    `what` is None, those rows of the normal come back as NaN.
    """
    cr, ln = cross_and_norm(ru, rv)
    bad = ln <= IMMERSION_TOL
    nbad = 0 if what is None else np.count_nonzero(bad)
    if nbad:
        raise NonImmersed("%s undefined at %d point(s)" % (what, nbad))
    return S._orient(cr / np.where(bad, np.nan, ln)[..., None], u, v), ln


def cross_and_norm(ru, rv):
    """r_u × r_v by components, the same bits as numpy's cross product at
    under half its per-call cost, and its length as np.linalg.norm sums
    it: (x² + y²) + z²."""
    a0, a1, a2 = ru[..., 0], ru[..., 1], ru[..., 2]
    b0, b1, b2 = rv[..., 0], rv[..., 1], rv[..., 2]
    cr = np.stack([a1 * b2 - a2 * b1, a2 * b0 - a0 * b2, a0 * b1 - a1 * b0],
                  axis=-1)
    return cr, np.linalg.norm(cr, axis=-1)


class ParamSurface:
    """Map (u, v) -> R³ with derivative jets."""

    name = None                 # the name of a named, unrotated block
    default_window = (-2.0, 2.0, -2.0, 2.0)

    def is_safe(self, u, v):
        u = np.asarray(u)
        v = np.asarray(v)
        return np.ones(np.broadcast(u, v).shape, dtype=bool)

    def frame(self, u, v, order=2) -> SurfaceJet:
        raise NotImplementedError

    def point(self, u, v):
        return self.frame(u, v, order=0).r

    def normal(self, u, v):
        fr = self.frame(u, v, order=1)
        return unit_normal(self, fr.ru, fr.rv, u, v, "normal")[0]

    def _orient(self, n, u, v):
        return n


class GaussMappedSurface(ParamSurface):
    """Surfaces in Gauss coordinates: (u, v) is the stereographic top view
    of the unit normal, and the normal sign is chosen per point to agree
    with that preimage (the only orientation making the round trip hold).
    Each one is the envelope of the planes encoded in a scalar field,
    its `.field` (biharmonic for a Laguerre-minimal surface)."""

    def _orient(self, n, u, v):
        ref = inverse_stereographic(np.asarray(u, dtype=float), np.asarray(v, dtype=float))
        sign = np.where(np.sum(n * ref, axis=-1) >= 0.0, 1.0, -1.0)
        return n * sign[..., None]


class FieldSurface(GaussMappedSurface):
    """Envelope reconstructed from a scalar field, safe where it is."""

    def __init__(self, field: ScalarField):
        self.field = field

    def is_safe(self, u, v):
        return self.field.is_safe(u, v)

    def frame(self, u, v, order=2) -> SurfaceJet:
        fj = self.field.jet(u, v, order + 1)
        fx = fj.shift(1, 0)
        fy = fj.shift(0, 1)
        f0 = fj.truncate(order)
        jx, jy = jet_xy(np.asarray(u), np.asarray(v), order)
        inv = (jx * jx + jy * jy + 1.0).reciprocal()
        X = ((jx * jx - jy * jy - 1.0) * fx + (jx * jy) * fy * 2.0 - jx * f0 * 2.0) * inv
        Y = ((jy * jy - jx * jx - 1.0) * fy + (jx * jy) * fx * 2.0 - jy * f0 * 2.0) * inv
        Z = (jx * fx * 2.0 + jy * fy * 2.0 - f0 * 2.0) * inv
        return SurfaceJet.from_components(X, Y, Z, order)


def isotropic_image(S: ParamSurface, u, v):
    """Point-model image of the oriented tangent plane of S at (u, v).

    Array input gives an (..., 3) array of image coordinates, NaN in each
    row where the tangent plane is undefined (r_u × r_v vanishes) or maps
    to the ideal line (the unit normal points straight down, n₃ = −1).
    Scalar (u, v) gives an IsoPoint, and raises NonImmersed or IdealImage
    there instead.
    """
    u = np.asarray(u, dtype=float)
    v = np.asarray(v, dtype=float)
    scalar = u.ndim == 0 and v.ndim == 0
    fr = S.frame(u, v, order=1)
    n, _ = unit_normal(S, fr.ru, fr.rv, u, v,
                       "tangent plane" if scalar else None)
    ideal = np.abs(1.0 + n[..., 2]) <= IDEAL_TOL
    if scalar and ideal:
        raise IdealImage("tangent plane maps to an ideal point (n3 = -1)")
    # a NaN normal projects to a NaN row without a division by zero
    n = np.where(ideal[..., None], np.nan, n)
    img = isotropic(n, -np.sum(n * fr.r, axis=-1))
    return IsoPoint.finite(*img) if scalar else img
