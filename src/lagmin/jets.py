"""Exact partial-derivative tables (jets) for scalar functions of two variables.

A ``Jet`` stores every partial derivative d[i, j] = d^(i+j) f / dx^i dy^j with
i + j <= order, for any order.  Arithmetic combines tables exactly: Leibniz
sums serve products, reciprocals and square roots, and composition
substitutes truncated Taylor series, so a field assembled from the
primitives below carries closed-form derivatives with no symbolic or
automatic-differentiation machinery behind it.  Entries may be scalars or
numpy arrays of a common broadcast shape, which makes whole-grid evaluation a
handful of vectorized operations.

Every Leibniz sum follows one term plan per (order, operation), built once
(`_Plan`).  It lists each entry's terms (a, b, i−a, j−b, C(i,a)·C(j,b)) in
the order of a double loop over a <= i, then b <= j, and every entry is
summed as 0.0 + t0 + t1 + ... with each term formed as (c·p)·q.  Two
kernels carry out the plan and give the same bits (a NaN's sign aside,
which IEEE 754 leaves open and numpy's loops do not keep), in the tables'
own precision, long double included:

- rounds, for small tables: gather every term's factors at once, scale,
  multiply, then add the r-th term of every entry that has one in one
  slice add per round (entries sorted by falling term count, so each
  round is a prefix) and take the table from the sums at the end: about
  6 + R numpy calls a product, R <= 9 at order 4;
- in place, for large tables: add term by term into each entry with
  ``out=``, so no term allocates a temporary.

A table of one point, of point shape () or (1,), runs these kernels as
any other table does, so a point alone has the bits it has in a batch.

The rounds kernel holds (buffer rows + the largest stage's terms) elements
per point at once.  Measured on 2 vCPUs (Intel Xeon, numpy 2.4.6), it was
1.5–8× faster than a per-entry Python loop at orders 1–4 from 1 to 256
points; beyond about 2^14 held elements (1820 points for an order-1
product, 190 at order 4) its cost jumped several-fold, while in-place
accumulation stayed 1.1–2× faster than the loop up to 1.6e5 points.  So
the switch (`ROUNDS_MAX_ELEMENTS`) weighs the operands' point count
against that bound.
"""
from __future__ import annotations

import functools
import math

import numpy as np


def asfloat(x):
    """Coerce to a float ndarray without demoting extended precision."""
    x = np.asarray(x)
    if x.dtype.kind != "f":
        x = x.astype(float)
    return x


# -- Leibniz term plans --------------------------------------------------

# The rounds kernel holds a buffer row per entry and every term of a stage
# at every point at once; it runs while that is at most this many elements,
# and larger tables accumulate in place (see the module docstring).
ROUNDS_MAX_ELEMENTS = 2**14


def _frozen(values, dtype=np.intp):
    arr = np.array(values, dtype=dtype)
    arr.setflags(write=False)
    return arr


class _Stage:
    """The Leibniz terms of a group of table entries that can be summed
    together.  `entries` lists each entry's cell (i, j) and its terms
    (a, b, i−a, j−b, C(i,a)·C(j,b)) in the order the sum adds them: a
    double loop over a <= i, then b <= j.  Entries are sorted by falling
    term count and own buffer rows lo, lo+1, ...  The flat term arrays run
    round by round: round r holds the r-th term of the first k entries,
    from flat index `start`, for each (start, k) in `rounds`.  `pi` and
    `qi` are the rows of each term's factors in the flattened operands
    (table cells a·(order+1)+b, or buffer rows for factors the operation
    itself computes); `coef` is None when every coefficient is 1."""

    __slots__ = ("entries", "lo", "hi", "cells", "pi", "qi", "coef", "rounds")

    def __init__(self, cells, skip, lo, cell, p_row, q_row):
        entries = []
        for i, j in cells:
            terms = [(a, b, i - a, j - b, math.comb(i, a) * math.comb(j, b))
                     for a in range(i + 1) for b in range(j + 1)
                     if (a, b) not in skip(i, j)]
            entries.append(((i, j), tuple(terms)))
        entries.sort(key=lambda e: -len(e[1]))
        self.entries = tuple(entries)
        self.lo, self.hi = lo, lo + len(entries)
        flat, rounds = [], []
        for r in range(len(entries[0][1])):
            k = sum(len(terms) > r for _, terms in entries)
            rounds.append((len(flat), k))
            flat += [terms[r] for _, terms in entries[:k]]
        self.rounds = tuple(rounds)
        self.cells = _frozen([cell(i, j) for (i, j), _ in entries])
        self.pi = _frozen([p_row(a, b) for a, b, _, _, _ in flat])
        self.qi = _frozen([q_row(a, b) for _, _, a, b, _ in flat])
        coef = [c for *_, c in flat]
        self.coef = (None if all(c == 1 for c in coef)
                     else _frozen(coef, float).reshape(-1, 1))

    def add_sums(self, P, Q, buf):
        """Add every entry's Leibniz sum into its rows of `buf` (zero
        there): P and Q are the flattened factor tables, one row per cell
        or buffer row, one column per point."""
        if not self.rounds:
            return
        terms = P.take(self.pi, 0)
        if self.coef is not None:
            terms *= self.coef
        if terms.dtype != buf.dtype:
            terms = terms.astype(buf.dtype)
        terms *= Q.take(self.qi, 0)
        for start, k in self.rounds:
            acc = buf[self.lo : self.lo + k]
            acc += terms[start : start + k]

    def accumulate(self, p, q, out, tmp):
        """Add every entry's Leibniz sum into its cell of the table `out`
        (zero there), one term at a time through the buffer `tmp`."""
        for (i, j), terms in self.entries:
            acc = out[i, j]
            for a, b, qa, qb, c in terms:
                if c == 1:
                    np.multiply(p[a, b], q[qa, qb], out=tmp)
                else:
                    np.multiply(p[a, b], c, out=tmp)
                    tmp *= q[qa, qb]
                acc += tmp


class _Plan:
    """Every Leibniz sum behind one jet operation, as stages.  A product
    ("mul") sums every entry in one stage.  A reciprocal or a square root
    finds its entries by total degree, each from entries of lower degree,
    so it has one stage per degree, and leaves out the terms that hold the
    unknown entry: (0, 0) for "reciprocal", (0, 0) and (i, j) for "sqrt".
    The rounds kernel sums into a buffer with one row per computed entry
    (row 0 holds the (0, 0) entry of a reciprocal or square root) and a
    last row of zeros; `perm` takes the table, cell by cell, from it."""

    __slots__ = ("stages", "perm", "rows", "max_points")

    def __init__(self, order, kind):
        n1 = order + 1
        row = {}
        if kind == "mul":
            groups = [[(i, j) for i in range(n1) for j in range(n1 - i)]]
            skip = lambda i, j: ()
        else:
            row[0, 0] = 0
            groups = [[(i, t - i) for i in range(t + 1)] for t in range(1, n1)]
            skip = {"reciprocal": lambda i, j: ((0, 0),),
                    "sqrt": lambda i, j: ((0, 0), (i, j))}[kind]
        cell = lambda a, b: a * n1 + b
        buffered = lambda a, b: row[a, b]
        p_row = buffered if kind == "sqrt" else cell
        q_row = cell if kind == "mul" else buffered
        stages = []
        for cells in groups:
            stage = _Stage(cells, skip, len(row), cell, p_row, q_row)
            for k, ((i, j), _) in enumerate(stage.entries):
                row[i, j] = stage.lo + k
            stages.append(stage)
        self.stages = tuple(stages)
        self.rows = len(row) + 1
        held = self.rows + max(len(stage.pi) for stage in stages)
        self.max_points = ROUNDS_MAX_ELEMENTS // held
        self.perm = _frozen([row.get((i, j), len(row))
                             for i in range(n1) for j in range(n1)])


_plan = functools.lru_cache(maxsize=None)(_Plan)


def _broadcast_tables(*tables):
    """Views of jet tables broadcast against each other over their point
    axes (every axis after the first two)."""
    shape = np.broadcast_shapes(*(d.shape[2:] for d in tables))
    padded = (d.reshape(d.shape[:2] + (1,) * (len(shape) + 2 - d.ndim)
                        + d.shape[2:]) for d in tables)
    return [np.broadcast_to(d, d.shape[:2] + shape) for d in padded]


def _product(p, q, n):
    """Table of the product of the order-n jets with tables p and q: the
    rounds kernel while it holds at most ROUNDS_MAX_ELEMENTS elements, in
    place beyond."""
    if n == 0:
        out = p * q
        out += 0.0
        return out
    plan = _plan(n, "mul")
    cells = (n + 1) ** 2
    if p.shape != q.shape:
        p, q = _broadcast_tables(p, q)
    dtype = np.result_type(p, q)
    (stage,) = plan.stages
    if p.size <= plan.max_points * cells:
        P = p.reshape(cells, -1)
        buf = np.zeros((plan.rows, P.shape[1]), dtype)
        stage.add_sums(P, q.reshape(cells, -1), buf)
        return buf.take(plan.perm, 0).reshape(p.shape)
    out = np.zeros(p.shape, dtype)
    stage.accumulate(p, q, out, np.empty(p.shape[2:], dtype))
    return out


class Jet:
    __slots__ = ("d", "order")

    def __init__(self, d, order):
        self.d = d
        self.order = order

    # -- constructors -------------------------------------------------

    @classmethod
    def constant(cls, value, order, shape=()):
        value = asfloat(value)
        shape = tuple(shape)
        if value.shape and value.shape != shape:
            shape = np.broadcast_shapes(shape, value.shape)
        d = np.zeros((order + 1, order + 1) + shape, dtype=value.dtype)
        d[0, 0] = value
        return cls(d, order)

    @classmethod
    def coordinate(cls, value, axis, order):
        """Jet of the coordinate function x (axis=0) or y (axis=1)."""
        value = asfloat(value)
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
        value = asfloat(value)
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

    def _tables(self, other):
        """The tables of self and of `other`, a jet or a constant, with
        their point axes broadcast against each other."""
        if isinstance(other, Jet):
            if other.order != self.order:
                raise ValueError("jet order mismatch")
        else:
            other = Jet.constant(other, self.order, np.shape(self.d[0, 0]))
        p, q = self.d, other.d
        if p.ndim != q.ndim:
            p, q = _broadcast_tables(p, q)
        return p, q

    # -- arithmetic ----------------------------------------------------

    def __add__(self, other):
        p, q = self._tables(other)
        return Jet(p + q, self.order)

    __radd__ = __add__

    def __sub__(self, other):
        p, q = self._tables(other)
        return Jet(p - q, self.order)

    def __rsub__(self, other):
        q, p = self._tables(other)
        return Jet(p - q, self.order)

    def __neg__(self):
        return Jet(-self.d, self.order)

    def __mul__(self, other):
        if not isinstance(other, Jet):
            return Jet(self.d * other, self.order)
        if other.order != self.order:
            raise ValueError("jet order mismatch")
        return Jet(_product(self.d, other.d, self.order), self.order)

    __rmul__ = __mul__

    def reciprocal(self):
        return self._solve("reciprocal")

    def sqrt(self):
        """Jet of sqrt(f); requires f > 0."""
        return self._solve("sqrt")

    def _solve(self, kind):
        """Jet of 1/f ("reciprocal") or sqrt(f) ("sqrt"), entry by entry
        in order of total degree.  With g the table of f and h the one
        sought, the Leibniz sum S over the terms that do not hold the
        unknown entry gives h[i, j] = −(1/g[0, 0])·S for 1/f (terms
        g[a, b]·h[i−a, j−b]) and h[i, j] = (g[i, j] − S)·(0.5/h[0, 0])
        for sqrt(f) (terms h[a, b]·h[i−a, j−b])."""
        g, n = self.d, self.order
        recip = kind == "reciprocal"
        if n == 0:
            return Jet(1.0 / g if recip else np.sqrt(g), 0)
        plan = _plan(n, kind)
        cells = (n + 1) ** 2
        rounds = g.size <= plan.max_points * cells
        if rounds:
            G = g.reshape(cells, -1)
            h = np.zeros((plan.rows, G.shape[1]), g.dtype)
            h00, g00 = h[0], G[0]
        else:
            h = np.zeros_like(g)
            h00, g00 = h[0, 0], g[0, 0]
            tmp = np.empty_like(h00)
        if recip:
            np.divide(1.0, g00, out=h00)
            scale = -h00
        else:
            np.sqrt(g00, out=h00)
            scale = 0.5 / h00
        for stage in plan.stages:
            if rounds:
                stage.add_sums(G if recip else h, h, h)
                blocks = [(h[stage.lo : stage.hi],
                           None if recip else G.take(stage.cells, 0))]
            else:
                stage.accumulate(g if recip else h, h, h, tmp)
                blocks = [(h[i, j], g[i, j]) for (i, j), _ in stage.entries]
            for acc, gij in blocks:
                if recip:
                    np.multiply(scale, acc, out=acc)
                else:
                    np.subtract(gij, acc, out=acc)
                    acc *= scale
        if rounds:
            h = h.take(plan.perm, 0).reshape(g.shape)
        return Jet(h, n)


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
    return a - np.pi * np.rint(a / np.pi)


def _gradient_jet(val, x, y, order, gradient):
    """Jet of order `order` with value `val` whose first derivatives are
    gradient(jx, jy, 1/(x²+y²)), built over coordinate jets one order
    lower."""
    if order == 0:
        return Jet.constant(val, 0, np.broadcast(x, y).shape)
    jx, jy = jet_xy(x, y, order - 1)
    inv_r2 = (jx * jx + jy * jy).reciprocal()
    return Jet.from_gradient(val, *gradient(jx, jy, inv_r2))


def jet_arctan_ratio(x, y, order, branch=0):
    """Jet of Arctan(y/x) + branch*pi.  Defined away from the origin; the
    value (not the derivatives) jumps across x = 0."""
    x = asfloat(x)
    y = asfloat(y)
    val = principal_angle(x, y) + branch * np.pi
    return _gradient_jet(val, x, y, order,
                         lambda jx, jy, inv_r2: (-jy * inv_r2, jx * inv_r2))


def jet_log_rsq(x, y, order):
    """Jet of ln(x^2 + y^2) away from the origin."""
    x = asfloat(x)
    y = asfloat(y)
    val = np.log(x * x + y * y)
    return _gradient_jet(val, x, y, order, lambda jx, jy, inv_r2: (
        2.0 * jx * inv_r2, 2.0 * jy * inv_r2))


def jet_polynomial(x, y, coeffs, order):
    """Jet of sum coeffs[(i, j)] * x^i * y^j with exact derivatives."""
    x = asfloat(x)
    y = asfloat(y)
    shape = np.broadcast(x, y).shape
    d = np.zeros((order + 1, order + 1) + shape, dtype=np.result_type(x, y))
    terms = [(p, q, c, i, j) for (p, q), c in coeffs.items() if c != 0
             for i in range(min(p, order) + 1)
             for j in range(min(q, order - i) + 1)]
    xpow = _Powers(x, [p - i for p, _, _, i, _ in terms])
    ypow = _Powers(y, [q - j for _, q, _, _, j in terms])
    for t, (p, q, c, i, j) in enumerate(terms):
        fall = (math.perm(p, i) * math.perm(q, j))
        d[i, j] += c * fall * xpow.take(t, p - i) * ypow.take(t, q - j)
    return Jet(d, order)


class _Powers:
    """base ** k for the exponents of a call's terms, each computed once
    and dropped after the last term that uses it: holding every power of
    a 400² float64 grid for the whole call measured slower than computing
    some of them twice."""

    def __init__(self, base, exponents):
        self.base = base
        self.last = {k: t for t, k in enumerate(exponents)}
        self.kept = {}

    def take(self, t, k):
        """base ** k for term t."""
        value = self.kept.get(k)
        if value is None:
            value = self.base ** k
        if self.last[k] == t:
            self.kept.pop(k, None)
        else:
            self.kept[k] = value
        return value
