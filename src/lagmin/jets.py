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
summed as 0.0 + t0 + t1 + ... with each term formed as (c·p)·q.  Three
runners carry out the plan and give the same bits (a NaN's sign aside,
which IEEE 754 leaves open and numpy's loops do not keep):

- one point, for a float64 table of a single point (point shape () or
  (1,)).  Such a table is a `_PointJet`, a list of Python floats from the
  constructor on: `Jet.coordinate`, `Jet.constant`, `Jet.from_gradient`
  and `jet_polynomial` return one for one-point float64 input, and sums,
  differences, products, reciprocals and square roots keep it one, so a
  frame builds one array, at the end (`stack_tables`).  Each plan's sums
  run as straight-line Python, compiled on first use (`_one_point`).  At
  one point numpy's cost per call, not the arithmetic, is the time, and
  single-point fallbacks pay it thousands of times; a Python float
  multiply, add or subtract is the same IEEE 754 double operation as
  numpy's.  It runs on every such table and on no other, so it has no
  threshold: a second point is already a table the rounds kernel serves.
  Everything else stays numpy, on one-element arrays or numpy scalars:
  arctan2, rint, log and powers, whose vector kernels differ from libm in
  the last bit, and the (0, 0) entry of a reciprocal or square root,
  which gives inf and NaN where Python float division and math.sqrt
  raise;
- rounds, for other small tables: gather every term's factors at once,
  scale, multiply, then add the r-th term of every entry that has one in
  one slice add per round (entries sorted by falling term count, so each
  round is a prefix) and take the table from the sums at the end: about
  6 + R numpy calls a product, R <= 9 at order 4;
- in place, for large tables: add term by term into each entry with
  ``out=``, so no term allocates a temporary.

The rounds and in-place kernels work in the tables' own precision, long
double included.

The rounds kernel holds (buffer rows + the largest stage's terms) elements
per point at once.  Measured on 2 vCPUs (Intel Xeon, numpy 2.4.6), it was
1.5–8× faster than a per-entry Python loop at orders 1–4 from 1 to 256
points; beyond about 2^14 held elements (1820 points for an order-1
product, 190 at order 4) its cost jumped several-fold, while in-place
accumulation stayed 1.1–2× faster than the loop up to 1.6e5 points.  So
the switch (`ROUNDS_MAX_ELEMENTS`) weighs the operands' point count
against that bound.  On the same host, keeping one-point tables as lists
from constructor to frame took r2's single-point `isotropic_image` from
90 to 55 µs and an order-1 product from 4.9 to 1.9 µs (medians of 15
interleaved rounds, `BENCH_19.json`); compiled straight-line sums run an
order-1 product's plan in 0.4 µs, a loop over its terms in 1.2 µs.
"""
from __future__ import annotations

import functools
import math
import operator

import numpy as np


def _asfloat(x):
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

    __slots__ = ("stages", "perm", "rows", "max_points", "terms")

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
        # the one-point runner's copy: per entry in stage order, its cell
        # and its terms (factor cells a·(order+1)+b, coefficient)
        self.terms = tuple(
            (cell(i, j), tuple((cell(a, b), cell(qa, qb), float(c))
                               for a, b, qa, qb, c in terms))
            for stage in stages for (i, j), terms in stage.entries)


_plan = functools.lru_cache(maxsize=None)(_Plan)

_FLOAT64 = np.dtype(np.float64)
_ONE = np.float64(1.0)


@functools.lru_cache(maxsize=None)
def _one_point(order, kind):
    """The one-point runner of `_plan(order, kind)`, compiled on first use:
    straight-line Python that writes each entry's sum 0.0 + t0 + t1 + ...,
    with t = (c·p)·q, to its cell of `out`, as is for a product, as
    scale·sum for a reciprocal and as (G[cell] − sum)·scale for a square
    root.  P, Q, out and G are Python float lists, one item per table
    cell; `out` may be P or Q, since a reciprocal or a square root reads
    the entries it has computed.  A Python float multiply or add is the
    same IEEE 754 double operation as numpy's, and 1.0·p is p, so a
    coefficient of 1 gives the bits of the kernels' p·q."""
    finish = {"mul": "{s}", "reciprocal": "scale * ({s})",
              "sqrt": "(G[{ij}] - ({s})) * scale"}[kind]
    lines = ["def run(P, Q, out, G, scale):"]
    for ij, terms in _plan(order, kind).terms:
        s = "0.0" + "".join(" + %r * P[%d] * Q[%d]" % (c, a, b)
                            for a, b, c in terms)
        lines.append("    out[%d] = %s" % (ij, finish.format(s=s, ij=ij)))
    lines.append("    return out")
    scope = {}
    exec("\n".join(lines), scope)
    return scope["run"]


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


# The point shapes of a point jet; two of them broadcast to `a or b`.
_POINT_SHAPES = ((), (1,))


def _is_point(value):
    """Whether the float array `value` is one float64 point."""
    return value.shape in _POINT_SHAPES and value.dtype == _FLOAT64


class Jet:
    __slots__ = ("d", "order")

    def __init__(self, d, order):
        self.d = d
        self.order = order

    # -- constructors -------------------------------------------------

    @classmethod
    def constant(cls, value, order, shape=()):
        value = _asfloat(value)
        shape = tuple(shape)
        if value.shape and value.shape != shape:
            shape = np.broadcast_shapes(shape, value.shape)
        if value.dtype == _FLOAT64 and shape in _POINT_SHAPES:
            return _PointJet.at(value, order, shape)
        d = np.zeros((order + 1, order + 1) + shape, dtype=value.dtype)
        d[0, 0] = value
        return cls(d, order)

    @classmethod
    def coordinate(cls, value, axis, order):
        """Jet of the coordinate function x (axis=0) or y (axis=1)."""
        value = _asfloat(value)
        if _is_point(value):
            out = _PointJet.at(value, order, value.shape)
            if order >= 1:
                out.t[order + 1 if axis == 0 else 1] = 1.0
            return out
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
        if (_is_point(value) and isinstance(jx, _PointJet)
                and isinstance(jy, _PointJet)):
            out = _PointJet.at(value, order, value.shape or jx.shape or jy.shape)
            n1 = order + 1
            for i in range(1, n1):
                for j in range(n1 - i):
                    out.t[i * n1 + j] = jx.t[(i - 1) * order + j]
            for j in range(1, n1):
                out.t[j] = jy.t[j - 1]
            return out
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

    def __truediv__(self, other):
        if isinstance(other, Jet):
            return self * other.reciprocal()
        return Jet(self.d / other, self.order)

    def __rtruediv__(self, other):
        return self.reciprocal() * other

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


class _PointJet(Jet):
    """A jet at one float64 point, of point shape () or (1,): its table is
    `t`, a list of Python floats in cell order i·(order+1) + j, and it
    stays one from operation to operation.  `d` builds the array table.
    Sums, differences, negation and products by a float run on the list;
    products, reciprocals and square roots through `_one_point`.  With an
    operand that is neither a float nor a jet at one float64 point, an
    operation runs on the array tables, with the same bits."""

    __slots__ = ("t", "shape")

    def __init__(self, t, order, shape):
        self.t = t
        self.order = order
        self.shape = shape

    @classmethod
    def at(cls, value, order, shape):
        """The table with `value`, a float64 array of one element, at (0, 0)
        and zeros elsewhere."""
        t = [0.0] * (order + 1) ** 2
        t[0] = value.item()
        return cls(t, order, shape)

    @property
    def d(self):
        n1 = self.order + 1
        return np.array(self.t).reshape((n1, n1) + self.shape)

    def _operand(self, other):
        """`other` as a point jet: a float is the constant jet, as the array
        `Jet` coerces it; None for any other operand that is not a jet at
        one float64 point."""
        if isinstance(other, Jet):
            if other.order != self.order:
                raise ValueError("jet order mismatch")
            return other if other.__class__ is _PointJet else _as_point(other)
        if isinstance(other, float):
            t = [0.0] * len(self.t)
            t[0] = float(other)
            return _PointJet(t, self.order, ())
        return None

    def _zip(self, other, op):
        """op on each cell of self and other, or None (`_operand`)."""
        q = self._operand(other)
        if q is None:
            return None
        return _PointJet(list(map(op, self.t, q.t)), self.order,
                         self.shape or q.shape)

    def __add__(self, other):
        out = self._zip(other, operator.add)
        return Jet(self.d, self.order) + other if out is None else out

    __radd__ = __add__

    def __sub__(self, other):
        out = self._zip(other, operator.sub)
        return Jet(self.d, self.order) - other if out is None else out

    def __rsub__(self, other):
        out = self._zip(other, _rsub)
        return other - Jet(self.d, self.order) if out is None else out

    def __neg__(self):
        return _PointJet([-a for a in self.t], self.order, self.shape)

    def __mul__(self, other):
        return self._times(other, False)

    def __rmul__(self, other):
        return self._times(other, True)

    def _times(self, other, reflected):
        """self·other, or other·self if `reflected`: a product keeps the
        order of its factors, as the Leibniz plan sums (c·p)·q."""
        n = self.order
        if other.__class__ is _PointJet and other.order == n:
            q = other
        elif isinstance(other, float):
            c = float(other)
            return _PointJet([a * c for a in self.t], n, self.shape)
        else:
            q = self._operand(other)
            if q is None:
                if not isinstance(other, Jet):
                    return Jet(self.d * other, n)
                p, q = (other.d, self.d) if reflected else (self.d, other.d)
                return Jet(_product(p, q, n), n)
        P, Q = (q.t, self.t) if reflected else (self.t, q.t)
        out = (_one_point(n, "mul")(P, Q, [0.0] * len(P), None, None) if n
               else [P[0] * Q[0] + 0.0])
        return _PointJet(out, n, self.shape or q.shape)

    def _solve(self, kind):
        g, n = self.t, self.order
        recip = kind == "reciprocal"
        # (0, 0) in numpy, which gives inf and NaN where Python floats
        # would raise
        h00 = _ONE / g[0] if recip else np.sqrt(g[0])
        h = [0.0] * len(g)
        h[0] = float(h00)
        if n:
            scale = float(-h00 if recip else 0.5 / h00)
            _one_point(n, kind)(g if recip else h, h, h, g, scale)
        return _PointJet(h, n, self.shape)


def _rsub(a, b):
    return b - a


def _as_point(jet):
    """The array `Jet` `jet` as a point jet if its table is one float64
    point, else None."""
    d = jet.d
    if d.dtype == _FLOAT64 and d.shape[2:] in _POINT_SHAPES:
        return _PointJet(d.ravel().tolist(), jet.order, d.shape[2:])
    return None


def stack_tables(jets):
    """The tables of `jets` on a new last axis: one array of shape
    (order+1, order+1, ..., len(jets))."""
    first, k = jets[0], len(jets)
    if all(j.__class__ is _PointJet and j.order == first.order
           and j.shape == first.shape for j in jets):
        flat = [0.0] * (len(first.t) * k)
        for m, j in enumerate(jets):
            flat[m::k] = j.t
        n1 = first.order + 1
        return np.array(flat).reshape((n1, n1) + first.shape + (k,))
    return np.concatenate([j.d[..., None] for j in jets], axis=-1)


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
    x = _asfloat(x)
    y = _asfloat(y)
    if _is_point(x) and _is_point(y):
        # on numpy scalars: the same ufunc loops and IEEE 754 operations,
        # without an array at each step
        val = principal_angle(x.item(), y.item())
    else:
        val = principal_angle(x, y)
    val = val + branch * np.pi
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
    terms = [(p, q, c, i, j) for (p, q), c in coeffs.items() if c != 0
             for i in range(min(p, order) + 1)
             for j in range(min(q, order - i) + 1)]
    point = _is_point(x) and _is_point(y)
    if point:
        out = _PointJet([0.0] * (order + 1) ** 2, order, x.shape or y.shape)
    else:
        shape = np.broadcast(x, y).shape
        out = Jet(np.zeros((order + 1, order + 1) + shape,
                           dtype=np.result_type(x, y)), order)
    if not terms:
        return out
    xpow = _Powers(x, [p - i for p, _, _, i, _ in terms])
    ypow = _Powers(y, [q - j for _, q, _, _, j in terms])
    for t, (p, q, c, i, j) in enumerate(terms):
        fall = (math.perm(p, i) * math.perm(q, j))
        if point:
            # the powers stay numpy calls; their products and sums floats
            cell = i * (order + 1) + j
            out.t[cell] = out.t[cell] + (c * fall * xpow.take(t, p - i).item()
                                         * ypow.take(t, q - j).item())
        else:
            out.d[i, j] += c * fall * xpow.take(t, p - i) * ypow.take(t, q - j)
    return out


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
