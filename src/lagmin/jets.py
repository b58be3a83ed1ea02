"""Exact partial-derivative tables (jets) for scalar functions of two variables.

A ``Jet`` stores every partial derivative d[i, j] = d^(i+j) f / dx^i dy^j with
i + j <= order, for any order.  Arithmetic combines tables exactly: one
Leibniz sum (`_leibniz`) serves products, reciprocals and square roots, and
composition substitutes truncated Taylor series, so a field assembled from
the primitives below carries closed-form derivatives with no symbolic or
automatic-differentiation machinery behind it.  Entries may be scalars or
numpy arrays of a common broadcast shape, which makes whole-grid evaluation a
handful of vectorized operations.
"""
from __future__ import annotations

import math

import numpy as np


def _asfloat(x):
    """Coerce to a float ndarray without demoting extended precision."""
    x = np.asarray(x)
    if not np.issubdtype(x.dtype, np.floating):
        x = x.astype(float)
    return x


def _leibniz(p, q, i, j, skip=()):
    """Sum over a <= i, b <= j of C(i,a)·C(j,b)·p[a,b]·q[i−a,j−b], leaving
    out the (a, b) terms listed in `skip`; the (i, j) entry of the product
    of the tables p and q."""
    acc = 0.0
    for a in range(i + 1):
        for b in range(j + 1):
            if (a, b) in skip:
                continue
            c = math.comb(i, a) * math.comb(j, b)
            acc = acc + c * p[a, b] * q[i - a, j - b]
    return acc


class Jet:
    __slots__ = ("d", "order")

    def __init__(self, d, order):
        self.d = d
        self.order = order

    # -- constructors -------------------------------------------------

    @classmethod
    def constant(cls, value, order, shape=()):
        value = _asfloat(value)
        shape = np.broadcast(np.empty(tuple(shape)), value).shape
        d = np.zeros((order + 1, order + 1) + shape, dtype=value.dtype)
        d[0, 0] = value
        return cls(d, order)

    @classmethod
    def coordinate(cls, value, axis, order):
        """Jet of the coordinate function x (axis=0) or y (axis=1)."""
        value = _asfloat(value)
        d = np.zeros((order + 1, order + 1) + value.shape, dtype=value.dtype)
        d[0, 0] = value
        if order >= 1:
            d[(1, 0) if axis == 0 else (0, 1)] = 1.0
        return cls(d, order)

    @classmethod
    def from_gradient(cls, value, jx, jy):
        """Assemble a jet from its value and the jets of its two first
        derivatives (each of one lower order)."""
        order = jx.order + 1
        value = _asfloat(value)
        shape = np.broadcast(value, jx.d[0, 0], jy.d[0, 0]).shape
        d = np.zeros(
            (order + 1, order + 1) + shape,
            dtype=np.result_type(value, jx.d, jy.d),
        )
        d[0, 0] = value
        for i in range(1, order + 1):
            for j in range(order + 1 - i):
                d[i, j] = jx.d[i - 1, j]
        for j in range(1, order + 1):
            d[0, j] = jy.d[0, j - 1]
        return cls(d, order)

    # -- helpers ------------------------------------------------------

    @property
    def value(self):
        return self.d[0, 0]

    def entry(self, i, j):
        return self.d[i, j]

    def truncate(self, order):
        if order > self.order:
            raise ValueError("cannot raise jet order by truncation")
        return Jet(self.d[: order + 1, : order + 1], order)

    def shift(self, dx, dy):
        """Jet of the derivative d^(dx+dy) f / dx^dx dy^dy (order drops)."""
        k = dx + dy
        if k > self.order:
            raise ValueError("not enough derivatives stored")
        order = self.order - k
        d = np.zeros((order + 1, order + 1) + np.shape(self.d[0, 0]), dtype=self.d.dtype)
        for i in range(order + 1):
            for j in range(order + 1 - i):
                d[i, j] = self.d[i + dx, j + dy]
        return Jet(d, order)

    def _coerce(self, other):
        if isinstance(other, Jet):
            if other.order != self.order:
                raise ValueError("jet order mismatch")
            return other
        return Jet.constant(other, self.order, np.shape(self.d[0, 0]))

    # -- arithmetic ----------------------------------------------------

    def __add__(self, other):
        other = self._coerce(other)
        return Jet(self.d + other.d, self.order)

    __radd__ = __add__

    def __sub__(self, other):
        other = self._coerce(other)
        return Jet(self.d - other.d, self.order)

    def __rsub__(self, other):
        return self._coerce(other) - self

    def __neg__(self):
        return Jet(-self.d, self.order)

    def __mul__(self, other):
        if not isinstance(other, Jet):
            return Jet(self.d * other, self.order)
        if other.order != self.order:
            raise ValueError("jet order mismatch")
        n = self.order
        shape = np.broadcast(self.d[0, 0], other.d[0, 0]).shape
        out = np.zeros((n + 1, n + 1) + shape, dtype=np.result_type(self.d, other.d))
        for i in range(n + 1):
            for j in range(n + 1 - i):
                out[i, j] = _leibniz(self.d, other.d, i, j)
        return Jet(out, n)

    __rmul__ = __mul__

    def __truediv__(self, other):
        if isinstance(other, Jet):
            return self * other.reciprocal()
        return Jet(self.d / other, self.order)

    def __rtruediv__(self, other):
        return self.reciprocal() * other

    def reciprocal(self):
        n = self.order
        out = np.zeros_like(self.d)
        g0 = self.d[0, 0]
        inv = 1.0 / g0
        out[0, 0] = inv
        for t in range(1, n + 1):
            for i in range(t + 1):
                j = t - i
                out[i, j] = -inv * _leibniz(self.d, out, i, j, ((0, 0),))
        return Jet(out, n)

    def sqrt(self):
        """Jet of sqrt(f); requires f > 0."""
        n = self.order
        out = np.zeros_like(self.d)
        s0 = np.sqrt(self.d[0, 0])
        out[0, 0] = s0
        half = 0.5 / s0
        for t in range(1, n + 1):
            for i in range(t + 1):
                j = t - i
                acc = _leibniz(out, out, i, j, ((0, 0), (i, j)))
                out[i, j] = (self.d[i, j] - acc) * half
        return Jet(out, n)

    def power(self, k):
        """Integer power via repeated multiplication."""
        if k < 0:
            return self.reciprocal().power(-k)
        result = Jet.constant(1.0, self.order, np.shape(self.d[0, 0]))
        base = self
        while k:
            if k & 1:
                result = result * base
            base = base * base if k > 1 else base
            k >>= 1
        return result


def compose(fjet: Jet, ujet: Jet, vjet: Jet) -> Jet:
    """Jet of f(u(x,y), v(x,y)) from the jet of f at (u0, v0) and the jets of
    the inner coordinates.  Standard truncated-Taylor substitution: powers of
    the zero-constant increments beyond the stored order cannot contribute."""
    n = ujet.order
    if vjet.order != n or fjet.order != n:
        raise ValueError("jet order mismatch in composition")
    du = Jet(ujet.d.copy(), n)
    du.d[0, 0] = np.zeros_like(du.d[0, 0])
    dv = Jet(vjet.d.copy(), n)
    dv.d[0, 0] = np.zeros_like(dv.d[0, 0])
    shape = np.broadcast(ujet.d[0, 0], vjet.d[0, 0]).shape
    one = Jet.constant(1.0, n, shape)
    pu = [one]
    pv = [one]
    for _ in range(n):
        pu.append(pu[-1] * du)
        pv.append(pv[-1] * dv)
    out = Jet.constant(0.0, n, shape)
    for a in range(n + 1):
        for b in range(n + 1 - a):
            coeff = fjet.d[a, b] / (math.factorial(a) * math.factorial(b))
            out = out + pu[a] * pv[b] * coeff
    return out


# -- primitive function jets ------------------------------------------


def jet_xy(x, y, order):
    return Jet.coordinate(x, 0, order), Jet.coordinate(y, 1, order)


def jet_rsq(x, y, order):
    jx, jy = jet_xy(x, y, order)
    return jx * jx + jy * jy


def principal_angle(x, y):
    """Angle with tangent y/x folded into (-pi/2, pi/2]; the multivalued
    Arctan's principal branch.  Constant along punctured lines through the
    origin."""
    a = np.arctan2(y, x)
    return a - np.pi * np.round(a / np.pi)


def _gradient_jet(val, x, y, order, gradient):
    """Jet of order `order` with value `val` whose first derivatives are
    gradient(jx, jy, 1/(x²+y²)), built over coordinate jets one order
    lower."""
    if order == 0:
        return Jet.constant(val, 0)
    jx, jy = jet_xy(x, y, order - 1)
    inv_r2 = (jx * jx + jy * jy).reciprocal()
    return Jet.from_gradient(val, *gradient(jx, jy, inv_r2))


def jet_arctan_ratio(x, y, order, branch=0):
    """Jet of Arctan(y/x) + branch*pi.  Defined away from the origin; the
    value (not the derivatives) jumps across x = 0."""
    x = _asfloat(x)
    y = _asfloat(y)
    val = principal_angle(x, y) + branch * np.pi
    return _gradient_jet(val, x, y, order,
                         lambda jx, jy, inv_r2: (-jy * inv_r2, jx * inv_r2))


def jet_log_rsq(x, y, order):
    """Jet of ln(x^2 + y^2) away from the origin."""
    x = _asfloat(x)
    y = _asfloat(y)
    val = np.log(x * x + y * y)
    return _gradient_jet(val, x, y, order, lambda jx, jy, inv_r2: (
        2.0 * jx * inv_r2, 2.0 * jy * inv_r2))


def jet_polynomial(x, y, coeffs, order):
    """Jet of sum coeffs[(i, j)] * x^i * y^j with exact derivatives."""
    x = _asfloat(x)
    y = _asfloat(y)
    shape = np.broadcast(x, y).shape
    d = np.zeros((order + 1, order + 1) + shape, dtype=np.result_type(x, y))
    for (p, q), c in coeffs.items():
        if c == 0:
            continue
        for i in range(order + 1):
            for j in range(order + 1 - i):
                if i > p or j > q:
                    continue
                fall = (math.perm(p, i) * math.perm(q, j))
                d[i, j] += c * fall * x ** (p - i) * y ** (q - j)
    return Jet(d, order)
