"""Scalar fields F(x, y) with exact derivative jets, one class per family.

Graphs z = F(x, y) of biharmonic functions are the isotropic-model shadows
of L-minimal surfaces, so everything downstream (reconstruction, rulings,
verification) consumes these field objects.  Each family stores its
coefficient vector and hands out exact partial-derivative tables of any
order through `jet` (order 4 by default); the bilaplacian comes from the
order-4 jet in closed form, with a 13-point finite-difference stencil as an
independent cross-check.  Fields are frozen dataclasses: evaluation is pure
and safe to run over whole grids at once.

The elliptic, hyperbolic, parabolic, exceptional and polynomial families
are `StatedField`s: each states its terms once, as a polynomial P0 plus
one (Pk, gk) pair per singular part, gk singular at the family's centre.
The centre is singular exactly when some Pk has a nonzero coefficient;
the field is the polynomial P0 otherwise; the jet sums P0 and each
nonzero Pk·gk in the stated order.

Multi-valued terms: only the Arctan(y/x) of `EllipticField` carries a
branch integer (value plus branch*pi); the logarithm of x^2 + y^2 is
single-valued off the origin.  A field's `excluded()` loci (cx, cy, rho)
are its singular points (rho = 0) and fold circles; its domain leaves out
a band of half-width `guard` about each, and `jet` raises SingularPoint
there.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from functools import partial

import numpy as np

from .errors import SingularPoint
from .jets import (
    Jet,
    compose,
    jet_arctan_ratio,
    jet_log_rsq,
    jet_polynomial,
    jet_rsq,
    jet_xy,
)

# Default exclusion radius around singular loci.  Fourth derivatives of
# 1/(x^2+y^2) terms grow like r^-6, so anything much smaller than this
# produces garbage jets long before it produces infinities.
GUARD_EPS = 1e-6

# 13-point biharmonic stencil: (offset_x, offset_y, weight), center first.
_STENCIL = (
    (0, 0, 20),
    (1, 0, -8),
    (-1, 0, -8),
    (0, 1, -8),
    (0, -1, -8),
    (1, 1, 2),
    (1, -1, 2),
    (-1, 1, 2),
    (-1, -1, 2),
    (2, 0, 1),
    (-2, 0, 1),
    (0, 2, 1),
    (0, -2, 1),
)


def _nonzero(*vals) -> bool:
    return any(v != 0.0 for v in vals)


def clear_of(loci, x, y, g):
    """True where (x, y) is at least g from each locus (cx, cy, rho): the
    point when rho = 0, else the circle of radius rho about it."""
    ok = np.ones(np.broadcast(x, y).shape, dtype=bool)
    for cx, cy, rho in loci:
        d2 = (x - cx) ** 2 + (y - cy) ** 2
        if rho == 0.0:
            ok &= d2 >= g * g
        else:
            ok &= np.abs(np.sqrt(d2) - rho) >= g
    return ok


@dataclass(frozen=True)
class ScalarField:
    """Base class: guarded evaluation plus jet-derived differential helpers."""

    guard: float = field(default=GUARD_EPS, kw_only=True)

    family = "custom"

    def excluded(self):
        """Loci (cx, cy, rho), left out with a band of half-width `guard`:
        singular points (rho = 0) and fold circles."""
        return ()

    def monomials(self):
        """{(p, q): c} with F = sum c·x^p·y^q for fields that are
        polynomials; None for every other field."""
        return None

    def is_safe(self, x, y):
        return clear_of(self.excluded(), np.asarray(x), np.asarray(y),
                        self.guard)

    def jet(self, x, y, order=4):
        x = np.asarray(x)
        y = np.asarray(y)
        ok = self.is_safe(x, y)
        if not np.all(ok):
            bad = int(np.sum(~np.atleast_1d(ok)))
            raise SingularPoint(
                "%d evaluation point(s) inside the %g singular guard of a %s field"
                % (bad, self.guard, self.family)
            )
        return self._jet(x, y, order)

    def _jet(self, x, y, order):
        raise NotImplementedError

    def value(self, x, y):
        return self.jet(x, y, 0).value[()]

    def gradient(self, x, y):
        j = self.jet(x, y, 1)
        return np.stack([j.entry(1, 0), j.entry(0, 1)], axis=-1)

    def bilaplacian(self, x, y):
        j = self.jet(x, y, 4)
        return (j.entry(4, 0) + 2.0 * j.entry(2, 2) + j.entry(0, 4))[()]

    def with_guard(self, eps: float) -> "ScalarField":
        return replace(self, guard=float(eps))


def _jet_inv_rsq(x, y, order):
    return jet_rsq(x, y, order).reciprocal()


@dataclass(frozen=True)
class StatedField(ScalarField):
    """A family P0(x, y) + Σ Pk(u, v)·gk(u, v), stated once by `_terms`:
    each P is a polynomial {(p, q): c} and each gk, singular at the centre
    (cx, cy) = `_center()`, is Arctan(v/u), ln(u²+v²) or 1/(u²+v²) of
    (u, v) = (x − cx, y − cy), as a jet builder (u, v, order).
    The singular centre, the monomials and the jet follow from the terms,
    and only the singular parts with a nonzero coefficient take part.
    The block table states the fold circles, which the terms cannot show."""

    folds: tuple = field(default=(), kw_only=True)

    def _terms(self):
        """(P0, ((P1, g1), (P2, g2), ...)), in evaluation order."""
        raise NotImplementedError

    def _center(self):
        return 0.0, 0.0

    def _parts(self):
        P0, parts = self._terms()
        return P0, [(P, g) for P, g in parts if _nonzero(*P.values())]

    def excluded(self):
        centre = ((*self._center(), 0.0),) if self._parts()[1] else ()
        return centre + self.folds

    def monomials(self):
        P0, parts = self._parts()
        return None if parts else P0

    def _jet(self, x, y, order):
        P0, parts = self._parts()
        out = jet_polynomial(x, y, P0, order)
        cx, cy = self._center()
        if parts and _nonzero(cx, cy):
            # only off the origin: a shifted copy of a grid costs memory
            x, y = x - cx, y - cy
        for P, g in parts:
            out = out + jet_polynomial(x, y, P, order) * g(x, y, order)
        return out


@dataclass(frozen=True)
class EllipticField(StatedField):
    """(a1(x²+y²)+a2x+a3+a4y)·Arctan(y/x) + (b1y²+b2xy+b3x²)/(x²+y²)
    + c1y² + c2xy + c3x² + d1x + d2y.

    Restricted to any punctured line through the origin this is quadratic in
    the arclength parameter, which is the property that pins the family.
    `branch` k adds k*pi to the Arctan.
    """

    a1: float = 0.0
    a2: float = 0.0
    a3: float = 0.0
    a4: float = 0.0
    b1: float = 0.0
    b2: float = 0.0
    b3: float = 0.0
    c1: float = 0.0
    c2: float = 0.0
    c3: float = 0.0
    d1: float = 0.0
    d2: float = 0.0
    branch: int = field(default=0, kw_only=True)

    family = "elliptic"

    def _terms(self):
        return (
            {(0, 2): self.c1, (1, 1): self.c2, (2, 0): self.c3,
             (1, 0): self.d1, (0, 1): self.d2},
            (({(2, 0): self.a1, (0, 2): self.a1, (1, 0): self.a2,
               (0, 0): self.a3, (0, 1): self.a4},
              partial(jet_arctan_ratio, branch=self.branch)),
             ({(0, 2): self.b1, (1, 1): self.b2, (2, 0): self.b3},
              _jet_inv_rsq)),
        )


@dataclass(frozen=True)
class HyperbolicField(StatedField):
    """Fields linear on every circle centered at the origin:
    a(r)·cos φ + b(r)·sin φ + c(r) in polar coordinates, with the radial
    solution bases a(r) = α1·r + α2·r·ln(r) + α3/r + α4·r³ (the same for
    b with β) and c(r) = γ1 + γ2·r² + γ3·ln(r) + γ4·r²·ln(r), one
    coefficient per basis function.

    The spec grammar also reads the Cartesian names of the reduced form
    (a1(x²+y²)+a2x+a3)·ln(x²+y²) + (b1y+b2x)/(x²+y²) + (c1y+c2x)(x²+y²)
    as multiples of basis coefficients: a1, a2 and a3 are γ4/2, α2/2 and
    γ3/2; b1, b2, c1 and c2 are β3, α3, β4 and α4.
    """

    alpha1: float = 0.0
    alpha2: float = 0.0
    alpha3: float = 0.0
    alpha4: float = 0.0
    beta1: float = 0.0
    beta2: float = 0.0
    beta3: float = 0.0
    beta4: float = 0.0
    gamma1: float = 0.0
    gamma2: float = 0.0
    gamma3: float = 0.0
    gamma4: float = 0.0

    family = "hyperbolic"

    def _terms(self):
        # In Cartesian form with rho^2 = x^2 + y^2 the whole family is
        # P0 + P1*ln(rho^2) + P2/rho^2 for three fixed polynomials.
        return (
            {(3, 0): self.alpha4, (1, 2): self.alpha4,
             (2, 1): self.beta4, (0, 3): self.beta4,
             (1, 0): self.alpha1, (0, 1): self.beta1, (0, 0): self.gamma1,
             (2, 0): self.gamma2, (0, 2): self.gamma2},
            (({(2, 0): 0.5 * self.gamma4, (0, 2): 0.5 * self.gamma4,
               (1, 0): 0.5 * self.alpha2, (0, 1): 0.5 * self.beta2,
               (0, 0): 0.5 * self.gamma3}, jet_log_rsq),
             ({(1, 0): self.alpha3, (0, 1): self.beta3}, _jet_inv_rsq)),
        )


@dataclass(frozen=True)
class ParabolicField(StatedField):
    """a(x)·y² + b(x)·y + c(x) with cubic a, b and the quintic correction
    c(x) = γ0+γ1x+γ2x²+γ3x³ − α2x⁴/3 − α3x⁵/5 that kills the bilaplacian.

    Entire: restriction to any vertical line is exactly quadratic in y.
    """

    alpha0: float = 0.0
    alpha1: float = 0.0
    alpha2: float = 0.0
    alpha3: float = 0.0
    beta0: float = 0.0
    beta1: float = 0.0
    beta2: float = 0.0
    beta3: float = 0.0
    gamma0: float = 0.0
    gamma1: float = 0.0
    gamma2: float = 0.0
    gamma3: float = 0.0

    family = "parabolic"

    def _terms(self):
        return (
            {(0, 2): self.alpha0, (1, 2): self.alpha1, (2, 2): self.alpha2,
             (3, 2): self.alpha3, (0, 1): self.beta0, (1, 1): self.beta1,
             (2, 1): self.beta2, (3, 1): self.beta3, (0, 0): self.gamma0,
             (1, 0): self.gamma1, (2, 0): self.gamma2, (3, 0): self.gamma3,
             (4, 0): -self.alpha2 / 3.0, (5, 0): -self.alpha3 / 5.0},
            (),
        )


@dataclass(frozen=True)
class ExceptionalField(StatedField):
    """A((x−a)²+(y−b)²) + (B(x−c)²+C(x−c)(y−d)+D(y−d)²)/((x−c)²+(y−d)²).

    Linear on every circle through (c, d); the one biharmonic shape that is
    linear on a two-parameter circle family rather than a pencil.
    """

    a: float = 0.0
    b: float = 0.0
    c: float = 0.0
    d: float = 0.0
    A: float = 0.0
    B: float = 0.0
    C: float = 0.0
    D: float = 0.0

    family = "exceptional"

    def _center(self):
        return self.c, self.d

    def _terms(self):
        return (
            {(2, 0): self.A, (0, 2): self.A, (1, 0): -2.0 * self.A * self.a,
             (0, 1): -2.0 * self.A * self.b,
             (0, 0): self.A * (self.a * self.a + self.b * self.b)},
            (({(2, 0): self.B, (1, 1): self.C, (0, 2): self.D},
              _jet_inv_rsq),),
        )


@dataclass(frozen=True)
class RootQuarticField(ScalarField):
    """sqrt((x²+y²)² − x² + 1): entire, linear on the circles
    x²+y²−tx−sqrt(t²−1) = 0 for t ≥ 1, and NOT biharmonic.

    Negative control showing that linearity on a mere one-parameter circle
    family (no three pairwise-independent members) proves nothing.
    """

    family = "remark-counterexample"

    def _jet(self, x, y, order):
        r2 = jet_rsq(x, y, order)
        jx, _ = jet_xy(x, y, order)
        return (r2 * r2 - jx * jx + 1.0).sqrt()


@dataclass(frozen=True)
class PolynomialField(StatedField):
    """Plain polynomial sum coeffs[(i, j)]·x^i·y^j; entire."""

    coeffs: tuple = ()

    family = "polynomial"

    def _terms(self):
        return dict(self.coeffs), ()


@dataclass(frozen=True)
class SumField(ScalarField):
    """Weighted sum of other fields.  Its mask is the AND of its terms',
    its excluded set the union of theirs, and its `guard`, which the
    singular-guard message and `fd_bilaplacian`'s reach read, is the
    largest guard of a term that excludes a locus."""

    terms: tuple = ()

    family = "custom-sum"

    def __post_init__(self):
        guards = [f.guard for _, f in self.terms if f.excluded()]
        if guards:
            object.__setattr__(self, "guard", max(guards))

    def excluded(self):
        return tuple(locus for _, f in self.terms for locus in f.excluded())

    def is_safe(self, x, y):
        x = np.asarray(x)
        y = np.asarray(y)
        ok = np.ones(np.broadcast(x, y).shape, dtype=bool)
        for _, f in self.terms:
            ok = ok & f.is_safe(x, y)
        return ok

    def monomials(self):
        """The weighted sum of the terms' monomials, or None unless every
        term states its own."""
        out = {}
        for w, f in self.terms:
            mono = f.monomials()
            if mono is None:
                return None
            for key, c in mono.items():
                out[key] = out.get(key, 0.0) + float(w) * c
        return out

    def _jet(self, x, y, order):
        out = None
        for w, f in self.terms:
            j = f.jet(x, y, order) * float(w)
            out = j if out is None else out + j
        if out is None:
            shape = np.broadcast(np.asarray(x), np.asarray(y)).shape
            out = Jet.constant(np.zeros(shape), order)
        return out

    def with_guard(self, eps: float) -> "SumField":
        terms = tuple((w, f.with_guard(eps)) for w, f in self.terms)
        return replace(self, guard=float(eps), terms=terms)


@dataclass(frozen=True)
class BumpField(ScalarField):
    """amplitude·(1 − ρ̂²)⁴ inside the disk of given radius, 0 outside,
    where ρ̂ is the distance to the center over the radius.  Compactly
    supported with continuous derivatives through order 3; entire enough
    for variation tests whose quadrature stays inside the support."""

    cx: float = 0.0
    cy: float = 0.0
    radius: float = 1.0
    amplitude: float = 1.0

    family = "custom"

    def _jet(self, x, y, order):
        jx, jy = jet_xy(x, y, order)
        du = jx - self.cx
        dv = jy - self.cy
        s = (du * du + dv * dv) * (1.0 / (self.radius * self.radius))
        q = 1.0 - s
        q2 = q * q
        out = q2 * q2 * self.amplitude
        inside = s.value < 1.0
        return Jet(out.d * inside, order)


@dataclass(frozen=True)
class KelvinField(ScalarField):
    """(x²+y²)·F(x/(x²+y²), y/(x²+y²)): the pushforward of F under
    inversion in the unit circle.  Exact jets by truncated-Taylor
    composition; involutive (applying twice restores F's values)."""

    inner: ScalarField = None

    family = "custom"

    def excluded(self):
        return ((0.0, 0.0, 0.0),)

    def is_safe(self, x, y):
        # the origin's disc, and F's mask pulled back through the inversion
        ok = super().is_safe(x, y)
        r2 = np.where(ok, np.asarray(x) ** 2 + np.asarray(y) ** 2, 1.0)
        return ok & self.inner.is_safe(x / r2, y / r2)

    def _jet(self, x, y, order):
        jx, jy = jet_xy(x, y, order)
        r2 = jx * jx + jy * jy
        inv = r2.reciprocal()
        ju = jx * inv
        jv = jy * inv
        fjet = self.inner.jet(ju.value, jv.value, order)
        return r2 * compose(fjet, ju, jv)


# -- constructors -----------------------------------------------------


def make_polynomial_field(coeffs) -> PolynomialField:
    items = []
    for (p, q), cval in sorted(dict(coeffs).items()):
        p = int(p)
        q = int(q)
        if p < 0 or q < 0:
            raise ValueError("polynomial exponents must be non-negative")
        if cval != 0.0:
            items.append(((p, q), float(cval)))
    return PolynomialField(tuple(items))


def sum_fields(terms) -> SumField:
    return SumField(tuple((float(w), f) for w, f in terms))


def make_bump_field(center, radius, amplitude) -> BumpField:
    radius = float(radius)
    if radius <= 0.0:
        raise ValueError("bump radius must be positive")
    return BumpField(float(center[0]), float(center[1]), radius,
                     float(amplitude))


def pushforward_inversion(F: ScalarField) -> KelvinField:
    return KelvinField(inner=F, guard=F.guard)


# -- module-level evaluation helpers ----------------------------------


def _power_increment(x, a, n):
    """(x + a)^n − x^n, formed as a·Σₘ (x + a)^m·x^(n−1−m) so that no two
    O(x^n) numbers are subtracted."""
    xa = x + a
    acc = 0.0
    for m in range(n):
        acc = acc + xa**m * x ** (n - 1 - m)
    return a * acc


def _polynomial_increments(monomials, x, y, ax, ay):
    """F(x + ax, y + ay) − F(x, y) for F = Σ c·x^p·y^q, monomial by
    monomial: x^p·y^q steps by Δ(x^p)·(y + ay)^q + x^p·Δ(y^q)."""
    out = np.zeros(np.broadcast(x, ax).shape, dtype=x.dtype)
    for (p, q), c in monomials.items():
        dxp = _power_increment(x, ax, p)
        dyq = _power_increment(y, ay, q)
        out = out + c * (dxp * (y + ay) ** q + x**p * dyq)
    return out


def fd_bilaplacian(F: ScalarField, x, y, h):
    """13-point stencil estimate of the bilaplacian.

    Internally evaluates in extended precision: the stencil divides by h^4,
    so double-precision value noise alone would swamp the estimate for
    small h.  The stencil weights multiply the increments F(node) − F(x, y)
    rather than the node values.  For fields that state their monomials
    (see `ScalarField.monomials`) each increment is formed monomial
    by monomial from the exact offsets k·h, so no two O(|F|) numbers are
    subtracted; for every other field it is the difference of the values
    at the node and the center.  Either way the estimate uses only the
    field's values at the 13 nodes, never its jet.  Agrees with the exact
    bilaplacian to O(h^2) wherever F is smooth and single-valued across
    the whole stencil box; for Arctan-carrying fields keep the box clear
    of the value jump along x = 0.  On fields of polynomial degree five or
    less the stencil is exact and the residual is pure rounding.
    """
    x, y = np.broadcast_arrays(
        np.asarray(x, dtype=np.longdouble), np.asarray(y, dtype=np.longdouble)
    )
    h = np.longdouble(h)
    if not np.all(np.isfinite(x)) or not np.all(np.isfinite(y)) or h <= 0:
        raise ValueError("fd_bilaplacian needs finite points and h > 0")
    reach = 2.0 * math.sqrt(2.0) * float(h) + F.guard
    if not np.all(clear_of(F.excluded(), x, y, reach)):
        raise SingularPoint("stencil box overlaps a singular locus")
    dx, dy, w = np.array(_STENCIL, dtype=np.longdouble).T.reshape(
        (3, len(_STENCIL)) + (1,) * x.ndim
    )
    ax = dx * h
    ay = dy * h
    monomials = F.monomials()
    if monomials is None:
        vals = F.jet(x + ax, y + ay, 0).value
        diff = vals - vals[0]
    else:
        diff = _polynomial_increments(monomials, x, y, ax, ay)
    est = np.sum(w * diff, axis=0) / h**4
    return np.asarray(est, dtype=float)[()]


def reduce_elliptic_field(F: EllipticField):
    """Normalize an elliptic field to the five-coefficient reduced shape.

    Returns (reduced, psi, removed) with the exact identity
    F(R(-psi)·p) = reduced(p) + removed["rsq"]·(x²+y²)
    + removed["x"]·x + removed["y"]·y + removed["const"].
    The rotation angle psi kills the a4 coefficient; the removed pieces are
    exactly the ones a motion of the ambient model can absorb.  When
    a2 = a4 = 0 any psi works and 0 is chosen (the normal form is not
    canonical there).
    """
    psi = -math.atan2(F.a4, F.a2) if _nonzero(F.a2, F.a4) else 0.0
    cs, sn = math.cos(psi), math.sin(psi)
    rot = np.array([[cs, -sn], [sn, cs]])
    a2r = F.a2 * cs - F.a4 * sn
    qb = np.array([[F.b3, 0.5 * F.b2], [0.5 * F.b2, F.b1]])
    qc = np.array([[F.c3, 0.5 * F.c2], [0.5 * F.c2, F.c1]])
    qb = rot @ qb @ rot.T
    qc = rot @ qc @ rot.T
    dvec = rot @ np.array([F.d1, F.d2])
    b1r, b2r, b3r = qb[1, 1], 2.0 * qb[0, 1], qb[0, 0]
    c1r, c2r, c3r = qc[1, 1], 2.0 * qc[0, 1], qc[0, 0]
    # Rotating the Arctan shifts its value by -psi, which spills the
    # multiplier polynomial into removable pieces.
    reduced = EllipticField(
        a1=F.a1,
        a2=a2r,
        a3=F.a3,
        b1=b1r - b3r,
        b2=b2r,
        c1=c1r - c3r,
        c2=c2r,
        guard=F.guard,
        branch=F.branch,
    )
    removed = {
        "rsq": c3r - psi * F.a1,
        "x": dvec[0] - psi * a2r,
        "y": dvec[1],
        "const": b3r - psi * F.a3,
    }
    return reduced, psi, removed
