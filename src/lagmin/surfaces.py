"""The concrete surface zoo and its families of lines.

Closed-form building blocks r1..r11 in Gauss coordinates (the stereographic
top view of the unit normal is the parameter point), their rotated copies,
reconstruction-defined tilde variants, convolution surfaces and the ruled
patches R(phi, lambda) = (A phi, B phi, C phi + D cos 2 phi) + lambda
(sin phi, cos phi, 0).

Each named block is one row of `_BLOCKS`: its closed-form builder (none
for a tilde block, the reconstruction of its field) and its field; r5's
and r6's fields state their fold circle |p| = 1.  Every surface in Gauss
coordinates carries its field as `.field`: the block's field (whose safe
domain a block shares), that field turned by `fields.RotatedField` for a
block turned by theta, whichever the block, or the weighted sum of a
convolution's.  The guard is set once, where a block
is built (`building_block` guards its field); no surface changes it
afterwards.

Block derivatives come from the same exact-jet arithmetic the fields use,
so frames are closed-form everywhere they are defined.

A one-parameter family of lines has one type, `LineFamily`: p -> a
`CycloLine`, a line in the space of oriented spheres (center, signed
radius) in R^4, that is, a cone of revolution.  Its direction is its
kind's row of `_DIRECTIONS`, so a family states only its base point.  A
ruling is the degenerate cone, a line of point spheres with R = 0 along
it.  The paper's named cone families and the three coefficient kinds
(`cyclographic_preimage`), the rulings of a ruled patch
(`RuledPatch.rulings`) and the rulings of a kinematic convolution
a1 r1 + a2 r2 + a3 r3@theta (`kinematic_rulings`, which reads the weights
off the surface) are all such families.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

from .errors import (
    DegenerateCone,
    DomainMismatch,
    ProvenanceMismatch,
    UnknownName,
)
from .fields import (
    GUARD_EPS,
    EllipticField,
    HyperbolicField,
    RotatedField,
    ScalarField,
    StatedField,
    make_polynomial_field,
    sum_fields,
)
from .jets import (asfloat, jet_arctan_ratio, jet_log_rsq, jet_polynomial,
                   jet_xy)
from .geom_core import OrientedSphere
from .isotropic import SQRT2
from .reconstruct import (
    FieldSurface,
    GaussMappedSurface,
    ParamSurface,
    SurfaceJet,
)


# -- closed-form component builders (u, v are Gauss coordinates) ------


def _b_r1(u, v, order):
    ju, jv = jet_xy(u, v, order)
    ir2 = (ju * ju + jv * jv).reciprocal()
    atn = jet_arctan_ratio(u, v, order)
    return jv - jv * ir2, ju * ir2 - ju, atn * 2.0


def _b_r2(u, v, order):
    ju, jv = jet_xy(u, v, order)
    ir2 = (ju * ju + jv * jv).reciprocal()
    atn = jet_arctan_ratio(u, v, order)
    return ju * jv * ir2 - atn, jv * jv * ir2, jet_polynomial(u, v, {}, order)


def _b_r3(u, v, order):
    ju, jv = jet_xy(u, v, order)
    ir2 = (ju * ju + jv * jv).reciprocal()
    pref = ju * jv * ir2
    # the z-component u^2/(u^2+v^2) is the (u/v)-form with the v=0
    # singularity cancelled
    return (jv * ir2 - jv) * pref, (ju - ju * ir2) * pref, ju * ju * ir2


def _b_r4(u, v, order):
    ju, jv = jet_xy(u, v, order)
    ir2 = (ju * ju + jv * jv).reciprocal()
    return ju + ju * ir2, jv + jv * ir2, jet_log_rsq(u, v, order)


def _b_r5(u, v, order):
    ju, jv = jet_xy(u, v, order)
    g = 1.0 - (ju * ju + jv * jv).reciprocal()
    X = (ju * ju - jv * jv) * g - jet_log_rsq(u, v, order)
    return X, ju * jv * g * 2.0, ju * 4.0


def _b_r6(u, v, order):
    ju, jv = jet_xy(u, v, order)
    g = 1.0 - (ju * ju + jv * jv).reciprocal()
    g2 = g * g
    return (ju * ju - jv * jv) * g2, ju * jv * g2 * 2.0, ju * g * 4.0


def _rational(numx, numy, numz):
    def build(u, v, order):
        ju, jv = jet_xy(u, v, order)
        w = (ju * ju + jv * jv + 1.0).reciprocal()
        return (
            jet_polynomial(u, v, numx, order) * w,
            jet_polynomial(u, v, numy, order) * w,
            jet_polynomial(u, v, numz, order) * w,
        )

    return build


_b_r7 = _rational({(1, 0): -1.0, (1, 2): -1.0}, {(2, 1): 1.0}, {(2, 0): 1.0})
_b_r8 = _rational(
    {(4, 0): 1.0, (2, 2): -3.0, (2, 0): -3.0}, {(3, 1): 4.0}, {(3, 0): 4.0}
)
_b_r9 = _rational(
    {(3, 1): 2.0, (1, 3): -2.0, (1, 1): -2.0},
    {(2, 2): 3.0, (4, 0): -1.0, (2, 0): -1.0},
    {(2, 1): 4.0},
)
_b_r10 = _rational(
    {(5, 0): 1.0, (3, 0): -2.0, (3, 2): -8.0, (1, 2): 3.0, (1, 4): 3.0},
    {(2, 1): 3.0, (4, 1): 6.0, (2, 3): -6.0},
    {(4, 0): 3.0, (2, 2): -9.0},
)
_b_r11 = _rational(
    {(6, 0): 3.0, (4, 0): -5.0, (4, 2): -30.0, (2, 2): 15.0, (2, 4): 15.0},
    {(3, 1): 10.0, (5, 1): 18.0, (3, 3): -30.0},
    {(5, 0): 8.0, (3, 2): -40.0},
)


# -- the block table ---------------------------------------------------


class _Block(NamedTuple):
    builder: object          # (u, v, order) -> X, Y, Z jets; None: tilde block
    field: StatedField       # the field whose reconstruction is the block


_K3T = 1.0 / (4.0 * SQRT2)
_LN2 = math.log(2.0)

_BLOCKS = {
    "r1": _Block(_b_r1, EllipticField(a1=1.0, a3=-1.0)),
    # x*Arctan(y/x) - y; traces the cycloid point locus
    "r2": _Block(_b_r2, EllipticField(a2=1.0, d2=-1.0)),
    "r3": _Block(_b_r3, EllipticField(c3=0.5, b3=-0.5)),
    "r4": _Block(_b_r4, HyperbolicField(
        gamma1=-1.0, gamma2=-1.0, gamma3=-1.0, gamma4=1.0)),
    "r5": _Block(_b_r5, HyperbolicField(
        alpha2=2.0, alpha4=1.0, alpha1=-1.0, folds=((0.0, 0.0, 1.0),))),
    "r6": _Block(_b_r6, HyperbolicField(
        alpha3=1.0, alpha4=1.0, alpha1=-2.0, folds=((0.0, 0.0, 1.0),))),
    "r7": _Block(_b_r7, make_polynomial_field({(2, 0): 0.5})),
    "r8": _Block(_b_r8, make_polynomial_field({(3, 0): 1.0})),
    "r9": _Block(_b_r9, make_polynomial_field({(2, 1): 1.0})),
    "r10": _Block(_b_r10, make_polynomial_field({(4, 0): 0.5, (2, 2): -1.5})),
    "r11": _Block(_b_r11, make_polynomial_field({(5, 0): 1.0, (3, 2): -5.0})),
    "r1~": _Block(None, EllipticField(
        a1=1.0 / (2.0 * SQRT2), a3=-1.0 / SQRT2)),
    "r3~": _Block(None, EllipticField(c3=_K3T, b3=-2.0 * _K3T)),
    "r4~": _Block(None, HyperbolicField(
        gamma1=(_LN2 - 2.0) / (2.0 * SQRT2),
        gamma2=-(2.0 + _LN2) / (4.0 * SQRT2),
        gamma3=-1.0 / SQRT2,
        gamma4=1.0 / (2.0 * SQRT2),
    )),
    "r6~": _Block(None, HyperbolicField(alpha3=1.0, alpha4=0.25, alpha1=-1.0)),
}

BLOCK_NAMES = tuple(_BLOCKS)


def block_field(name: str, theta: float = 0.0) -> StatedField:
    """The scalar field whose reconstruction is the named block turned by
    theta about the z axis: its `_BLOCKS` field, turned by `RotatedField`
    unless theta is 0."""
    if name not in _BLOCKS:
        raise UnknownName("no field for building block %r" % (name,))
    F = _BLOCKS[name].field
    return RotatedField(F, theta) if theta != 0.0 else F


class BlockSurface(FieldSurface):
    """A named building block: its `_BLOCKS` row's closed form evaluated
    through exact jets, or, for a tilde block (no builder), the
    reconstruction of its field."""

    def __init__(self, name, guard):
        super().__init__(block_field(name).with_guard(guard))
        self.name = name
        self._block = _BLOCKS[name]

    def frame(self, u, v, order=2) -> SurfaceJet:
        if self._block.builder is None:
            return super().frame(u, v, order)
        u = asfloat(u)
        v = asfloat(v)
        return SurfaceJet.from_components(*self._block.builder(u, v, order),
                                          order)


class RotatedSurface(GaussMappedSurface):
    """theta-rotated copy: r(u,v) = R_theta base(R_{-theta}(u,v)), where
    R_theta is the counterclockwise rotation about the z axis."""

    def __init__(self, base: ParamSurface, theta: float):
        self.base = base
        self.theta = float(theta)

    def _params(self, u, v):
        c, s = math.cos(self.theta), math.sin(self.theta)
        u = asfloat(u)
        v = asfloat(v)
        return c * u + s * v, -s * u + c * v, c, s

    @property
    def field(self) -> StatedField:
        """The base field turned by theta, with its guard."""
        return RotatedField(self.base.field, self.theta)

    def is_safe(self, u, v):
        s0, t0, _, _ = self._params(u, v)
        return self.base.is_safe(s0, t0)

    def frame(self, u, v, order=2) -> SurfaceJet:
        s0, t0, c, s = self._params(u, v)
        base = self.base.frame(s0, t0, order).d
        # ∂u = c∂s − s∂t and ∂v = s∂s + c∂t, so d[i, j] pairs the
        # coefficients of (c x − s y)ⁱ (s x + c y)ʲ, highest power of x
        # first, with the base entries of order i + j; every sum starts
        # from its first term, so the sign of a zero entry survives
        d = np.zeros_like(base)
        for i in range(order + 1):
            for j in range(order + 1 - i):
                coef = [1.0]
                for a, b in [(c, -s)] * i + [(s, c)] * j:
                    coef = ([coef[0] * a]
                            + [p * b + q * a for p, q in zip(coef, coef[1:])]
                            + [coef[-1] * b])
                k = i + j
                terms = [w * base[k - m, m] for m, w in enumerate(coef)]
                d[i, j] = sum(terms[1:], terms[0])
        x, y = d[..., 0], d[..., 1]
        return SurfaceJet(np.stack([c * x - s * y, s * x + c * y, d[..., 2]],
                                   axis=-1), order)


class ConvolutionSurface(GaussMappedSurface):
    """Pointwise weighted sum of one or more surfaces in Gauss coordinates,
    safe where every term is; DomainMismatch for any other term, such as a
    ruled patch in (phi, lambda)."""

    def __init__(self, terms):
        self.terms = tuple((float(w), s) for w, s in terms)
        if not self.terms or not all(isinstance(s, GaussMappedSurface)
                                     for _, s in self.terms):
            raise DomainMismatch(
                "a convolution sums surfaces in Gauss coordinates")

    @property
    def field(self) -> ScalarField:
        return sum_fields([(w, s.field) for w, s in self.terms])

    def is_safe(self, u, v):
        u = np.asarray(u)
        v = np.asarray(v)
        ok = np.ones(np.broadcast(u, v).shape, dtype=bool)
        for _, s in self.terms:
            ok = ok & s.is_safe(u, v)
        return ok

    def frame(self, u, v, order=2) -> SurfaceJet:
        total = None
        for w, s in self.terms:
            part = w * s.frame(u, v, order).d
            total = part if total is None else total + part
        return SurfaceJet(total, order)


class RuledPatch(ParamSurface):
    """(A phi, B phi, C phi + D cos 2 phi) + lambda (sin phi, cos phi, 0).

    Parameters are (phi, lambda).  C = D = 0 is allowed; those patches
    fall outside the minimal ruled family.  `rulings` is the elliptic cone
    family (A, B, C, D, 0, 0, 0): its line at phi holds the point spheres
    of the patch points (phi, lambda).
    """

    def __init__(self, A, B, C, D):
        self.A = float(A)
        self.B = float(B)
        self.C = float(C)
        self.D = float(D)
        self.default_window = (-math.pi, math.pi, -2.0, 2.0)
        self.rulings = cyclographic_preimage(
            ("elliptic", (self.A, self.B, self.C, self.D, 0.0, 0.0, 0.0)))

    def frame(self, phi, lam, order=2) -> SurfaceJet:
        phi = np.asarray(phi, dtype=float)
        lam = np.asarray(lam, dtype=float)
        phi, lam = np.broadcast_arrays(phi, lam)
        sn, cs = np.sin(phi), np.cos(phi)
        s2, c2 = np.sin(2 * phi), np.cos(2 * phi)
        # ∂φᵏ sin φ = trig[k % 4], ∂φᵏ cos φ = trig[(k + 1) % 4] and
        # ∂φᵏ cos 2φ = 2ᵏ trig2[k % 4]; r is linear in λ, so d[k, j >= 2] = 0
        trig = (sn, cs, -sn, -cs)
        trig2 = (c2, -s2, -c2, s2)
        linear = ((self.A * phi, self.B * phi, self.C * phi),
                  (self.A, self.B, self.C))
        d = np.zeros((order + 1, order + 1) + phi.shape + (3,))
        for k in range(order + 1):
            sk, ck = trig[k % 4], trig[(k + 1) % 4]
            wave = (lam * sk, lam * ck, self.D * 2.0 ** k * trig2[k % 4])
            if k < 2:
                wave = [p + w for p, w in zip(linear[k], wave)]
            d[k, 0] = np.stack(wave, axis=-1)
            if k < order:
                d[k, 1, ..., :2] = np.stack([sk, ck], axis=-1)
        return SurfaceJet(d, order)


# -- building blocks by name -----------------------------------------


def building_block(name: str, theta: float = None,
                   guard: float = GUARD_EPS) -> ParamSurface:
    """Closed-form block by name, its field guarded by `guard`; tilde
    variants are reconstructions of their fields (they have no standalone
    closed form)."""
    if name not in _BLOCKS:
        raise UnknownName("unknown building block %r" % (name,))
    surf = BlockSurface(name, guard)
    if theta is not None and theta != 0.0:
        surf = RotatedSurface(surf, theta)
    return surf


# -- families of cone lines --------------------------------------------


@dataclass(frozen=True, eq=False)
class CycloLine:
    """A cone of revolution as a line lam -> (m, R) + lam*dir in the space
    of oriented spheres (center, signed radius)."""

    base: np.ndarray
    dir: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "base", np.asarray(self.base, dtype=float))
        object.__setattr__(self, "dir", np.asarray(self.dir, dtype=float))
        if self.base.shape != (4,) or self.dir.shape != (4,):
            raise ValueError("cone lines live in R^4")
        if float(np.linalg.norm(self.dir)) == 0.0:
            raise DegenerateCone("cone line needs a nonzero direction")

    def sphere(self, lam: float) -> OrientedSphere:
        p = self.base + float(lam) * self.dir
        return OrientedSphere(m=p[:3], r=float(p[3]))


# The direction of a family's line at p, one row per direction in use.
# Each row's Gauss circles form the pencil it is named after; R9b's lines
# move along y where the other parabolic ones move along x.
_DIRECTIONS = {
    "elliptic": lambda p: (math.sin(p), math.cos(p), 0.0, 0.0),
    "hyperbolic": lambda p: (0.0, 0.0, math.cosh(p), math.sinh(p)),
    "parabolic": lambda p: (1.0, 0.0, -p, p),
    "parabolic-y": lambda p: (0.0, 1.0, -p, p),
}


@dataclass(frozen=True, eq=False)
class LineFamily:
    """p -> the cone line through base(p) along the `kind` row of
    `_DIRECTIONS`: a family is its kind and its base point."""

    kind: str
    base: object = field(repr=False)

    def line(self, p) -> CycloLine:
        p = float(p)
        return CycloLine(self.base(p), _DIRECTIONS[self.kind](p))


# Base points of the coefficient kinds, from the seven coefficients A..G.
# The elliptic kind holds a ruled patch's rulings, so it takes numpy's cos
# and sin: where 2p overflows they give NaN, a non-finite polyline, where
# math's would raise.

def _elliptic_base(A, B, C, D, E, F, G):
    return lambda p: np.array([A * p, B * p, C * p + D * np.cos(2 * p),
                               E * p + F * np.cos(2 * p)
                               + G * np.sin(2 * p)])


def _hyperbolic_base(A, B, C, D, E, F, G):
    return lambda p: np.array([A * p + B * math.cosh(2 * p),
                               C * p + D * math.cosh(2 * p)
                               + E * math.sinh(2 * p), F * p, G * p])


def _parabolic_base(A, B, C, D, E, F, G):
    def base(p):
        even = F * (3 * p**2 + 4 * p**4) + G * (5 * p**3 + 6 * p**5)
        odd = F * (3 * p**2 - 4 * p**4) + G * (5 * p**3 - 6 * p**5)
        return np.array([0.0, A * p + B * p**2,
                         C * p + D * p**2 + E * p**3 + even,
                         C * p - D * p**2 - E * p**3 + odd])

    return base


_BASES = {
    "elliptic": _elliptic_base,
    "hyperbolic": _hyperbolic_base,
    "parabolic": _parabolic_base,
}

# The named families: each one's direction row and base point.
_NAMED = {
    "R1": ("elliptic", lambda p: np.array([0.0, 0.0, -2.0 * p, 0.0])),
    "R2": ("elliptic", lambda p: np.array([p, 1.0, 0.0, 0.0])),
    "R3": ("elliptic",
           lambda p: np.array([0.0, 0.0, 0.5 * (math.cos(2 * p) + 1.0), 0.0])),
    "R4": ("hyperbolic", lambda p: np.array([0.0, 0.0, -2.0 * p, -2.0])),
    "R5": ("hyperbolic", lambda p: np.array(
        [1.0 - math.exp(-2.0 * p) + 2.0 * p, 0.0, 0.0, 0.0])),
    "R6": ("hyperbolic", lambda p: np.array(
        [2.0 - 2.0 * math.cosh(2.0 * p), 0.0, 0.0, 0.0])),
    "R7": ("parabolic",
           lambda p: np.array([0.0, 0.0, -0.5 * p * p, 0.5 * p * p])),
    "R7b": ("elliptic", lambda p: np.array(
        [0.0, 0.0, 0.5 * math.cos(p) ** 2, 0.5 * math.cos(p) ** 2])),
    "R8": ("parabolic", lambda p: np.array([0.0, 0.0, -p**3, p**3])),
    "R9": ("parabolic", lambda p: np.array([0.0, -p * p, 0.0, 0.0])),
    "R9b": ("parabolic-y",
            lambda p: np.array([0.0, 0.0, p + p**3, p - p**3])),
    "R10": ("parabolic", lambda p: np.array(
        [0.0, 0.0, 0.5 * (-3 * p**2 - 4 * p**4), 0.5 * (-3 * p**2 + 4 * p**4)])),
    "R11": ("parabolic", lambda p: np.array(
        [0.0, 0.0, -5 * p**3 - 6 * p**5, -5 * p**3 + 6 * p**5])),
    "R1~": ("elliptic",
            lambda p: np.array([0.0, 0.0, -3.0 * p, p]) / (2.0 * SQRT2)),
    "R3~": ("elliptic", lambda p: np.array(
        [0.0, 0.0, 3.0 * math.cos(p) ** 2, -math.cos(p) ** 2]) / (4.0 * SQRT2)),
}


def cyclographic_preimage(spec) -> LineFamily:
    """The cone family of a spec: a named example ("R1".."R11", "R7b",
    "R9b", "R1~", "R3~") or a (kind, coefficients) pair with kind in
    {elliptic, hyperbolic, parabolic} and seven coefficients A..G.  The
    elliptic kind's base point at p is (A p, B p, C p + D cos 2p,
    E p + F cos 2p + G sin 2p), so (A, B, C, D, 0, 0, 0) holds the rulings
    of `RuledPatch(A, B, C, D)`."""
    if isinstance(spec, str):
        if spec not in _NAMED:
            raise UnknownName("unknown cyclographic preimage %r" % (spec,))
        return LineFamily(*_NAMED[spec])
    kind, coeffs = spec
    if kind not in _BASES:
        raise UnknownName("unknown cone-family kind %r" % (kind,))
    coeffs = tuple(float(c) for c in coeffs)
    if len(coeffs) != 7:
        raise ValueError("cone families take seven coefficients A..G")
    return LineFamily(kind, _BASES[kind](*coeffs))


# -- rulings of the kinematic convolutions ----------------------------


def kinematic_weights(S):
    """(a1, a2, a3, theta) of S = a1*r1 + a2*r2 + a3*r3@theta, a kinematic
    block or a convolution of them; ProvenanceMismatch for any other
    surface, a turned r1 or r2 among them."""
    key = {"r1": 0, "r2": 1, "r3": 2}
    weights = [0.0, 0.0, 0.0]
    theta = None
    terms = S.terms if isinstance(S, ConvolutionSurface) else ((1.0, S),)
    for w, surf in terms:
        th = 0.0
        if isinstance(surf, RotatedSurface):
            th, surf = surf.theta, surf.base
        spec = ((surf.name or type(surf).__name__)
                + ("@theta=%r" % th if th else ""))
        if surf.name not in key or (th and surf.name != "r3"):
            raise ProvenanceMismatch(f"surface {spec!r} is not a term of the"
                                     " family a1*r1 + a2*r2 + a3*r3@theta")
        idx = key[surf.name]
        weights[idx] += w
        if idx == 2 and w != 0.0:
            if theta is not None and abs(theta - th) > 1e-12:
                raise ProvenanceMismatch("mixed conoid rotations")
            theta = th
    return weights[0], weights[1], weights[2], (theta or 0.0)


def kinematic_rulings(S) -> LineFamily:
    """The rulings of S = a1*r1 + a2*r2 + a3*r3@theta, with the weights read
    off S (`kinematic_weights`): the three generators share the direction
    (sin p, cos p, 0) once the rotated conoid term is sampled at p + theta,
    and the base point is the weighted sum of theirs."""
    a1, a2, a3, theta = kinematic_weights(S)

    def base(p):
        z = -2.0 * a1 * p + 0.5 * a3 * (np.cos(2.0 * (p + theta)) + 1.0)
        return np.array([a2 * p, a2, z, 0.0])

    return LineFamily("elliptic", base)
