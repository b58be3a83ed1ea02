"""Derivative-table arithmetic checked against hand values and central
finite differences of the value channel."""
import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from lagmin.jets import (
    Jet,
    _rounds,
    compose,
    jet_arctan_ratio,
    jet_log_rsq,
    jet_polynomial,
    jet_rsq,
    jet_xy,
    principal_angle,
)

EXACT_TOL = 1e-12
FD_TOL = 5e-7


def fd_entry(make_jet, x, y, i, j, h=1e-4):
    """Central difference of the (0,0) entry for derivative order (i, j)."""
    acc = 0.0
    for a in range(i + 1):
        for b in range(j + 1):
            w = ((-1) ** (a + b)) * math.comb(i, a) * math.comb(j, b)
            px = x + (i / 2 - a) * h
            py = y + (j / 2 - b) * h
            acc += w * float(make_jet(px, py).value)
    return acc / h ** (i + j)


def test_polynomial_jet_is_exact():
    coeffs = {(2, 1): 1.0, (0, 3): -0.5, (1, 0): 2.0}
    x, y = 1.3, -0.7
    jet = jet_polynomial(x, y, coeffs, 4)
    assert abs(jet.value - (x * x * y - 0.5 * y**3 + 2 * x)) < EXACT_TOL
    assert abs(jet.entry(1, 0) - (2 * x * y + 2)) < EXACT_TOL
    assert abs(jet.entry(2, 1) - 2.0) < EXACT_TOL
    assert abs(jet.entry(0, 3) - (-3.0)) < EXACT_TOL
    assert abs(jet.entry(0, 2) - (-3.0 * y)) < EXACT_TOL
    assert abs(jet.entry(4, 0)) < EXACT_TOL


def test_arctan_jet_hand_values():
    jet = jet_arctan_ratio(1.0, 0.0, 2)
    assert abs(jet.value) < EXACT_TOL
    assert abs(jet.entry(1, 0)) < EXACT_TOL
    assert abs(jet.entry(0, 1) - 1.0) < EXACT_TOL
    assert abs(jet.entry(2, 0)) < EXACT_TOL
    assert abs(jet.entry(1, 1) + 1.0) < EXACT_TOL
    assert abs(jet.entry(0, 2)) < EXACT_TOL


def test_log_jet_hand_values():
    jet = jet_log_rsq(1.0, 0.0, 2)
    assert abs(jet.value) < EXACT_TOL
    assert abs(jet.entry(1, 0) - 2.0) < EXACT_TOL
    assert abs(jet.entry(0, 1)) < EXACT_TOL
    assert abs(jet.entry(2, 0) + 2.0) < EXACT_TOL
    assert abs(jet.entry(0, 2) - 2.0) < EXACT_TOL


@pytest.mark.parametrize(
    "make_jet",
    [
        lambda x, y: jet_arctan_ratio(x, y, 2),
        lambda x, y: jet_log_rsq(x, y, 2),
        lambda x, y: jet_rsq(x, y, 2).reciprocal(),
        lambda x, y: (jet_rsq(x, y, 2) * jet_rsq(x, y, 2) + 1.0).sqrt(),
    ],
)
def test_transcendental_jets_match_finite_differences(make_jet):
    rng = np.random.default_rng(31)
    for _ in range(5):
        r = rng.uniform(0.6, 2.0)
        t = rng.uniform(0.2, 1.3)
        x, y = r * math.cos(t), r * math.sin(t)
        jet = make_jet(x, y)
        for i in range(3):
            for j in range(3 - i):
                want = fd_entry(make_jet, x, y, i, j)
                got = float(jet.entry(i, j))
                assert abs(got - want) < FD_TOL * max(1.0, abs(want))


def test_product_rule_against_expanded_polynomial():
    x, y = 0.8, -1.1
    ja = jet_polynomial(x, y, {(1, 0): 1.0, (0, 1): 2.0}, 4)
    jb = jet_polynomial(x, y, {(2, 0): 1.0, (0, 2): -1.0}, 4)
    prod = ja * jb
    expanded = jet_polynomial(
        x, y, {(3, 0): 1.0, (1, 2): -1.0, (2, 1): 2.0, (0, 3): -2.0}, 4
    )
    assert np.allclose(prod.d, expanded.d, atol=EXACT_TOL)


def test_reciprocal_inverts_product():
    x, y = 1.4, 0.9
    jet = jet_rsq(x, y, 4) + 0.5
    one = jet * jet.reciprocal()
    want = Jet.constant(1.0, 4)
    assert np.allclose(one.d, want.d, atol=1e-12)


def test_sqrt_squares_back():
    x, y = 0.7, -0.4
    jet = jet_rsq(x, y, 4) + 2.0
    root = jet.sqrt()
    assert np.allclose((root * root).d, jet.d, atol=1e-12)


def test_compose_pushforward_matches_direct_jet():
    """G(x, y) = ln(u^2 + v^2) with (u, v) = (x, y)/(x^2 + y^2) equals
    -ln(x^2 + y^2); composition must reproduce the direct jet."""
    x, y = 1.2, -0.5
    r2 = jet_rsq(x, y, 4)
    jx, jy = jet_xy(x, y, 4)
    inv = r2.reciprocal()
    u, v = jx * inv, jy * inv
    q = x / (x * x + y * y), y / (x * x + y * y)
    inner = jet_log_rsq(q[0], q[1], 4)
    pushed = compose(inner, u, v)
    direct = -1.0 * jet_log_rsq(x, y, 4)
    assert np.allclose(pushed.d, direct.d, atol=1e-11)


def test_shift_extracts_derivative_jet():
    x, y = 0.9, 1.6
    jet = jet_polynomial(x, y, {(3, 1): 2.0}, 4)
    dx = jet.shift(1, 0)
    want = jet_polynomial(x, y, {(2, 1): 6.0}, 3)
    assert np.allclose(dx.d, want.d, atol=EXACT_TOL)


def test_principal_angle_folds_to_half_pi_band():
    rng = np.random.default_rng(4)
    x = rng.normal(size=200)
    y = rng.normal(size=200)
    a = principal_angle(x, y)
    assert np.all(a <= np.pi / 2 + 1e-12)
    assert np.all(a > -np.pi / 2 - 1e-12)
    # constant along punctured lines through the origin
    assert np.allclose(principal_angle(-x, -y), a, atol=1e-12)


def test_arctan_branch_offsets_value_only():
    j0 = jet_arctan_ratio(1.0, 1.0, 3, branch=0)
    j2 = jet_arctan_ratio(1.0, 1.0, 3, branch=2)
    assert abs(j2.value - j0.value - 2 * math.pi) < EXACT_TOL
    diff = j2.d - j0.d
    diff[0, 0] = 0.0
    assert np.max(np.abs(diff)) < EXACT_TOL


def test_batched_jets_match_per_point():
    # a batch large enough for the in-place product, points one at a time
    # through the rounds product: the same bits
    n = max(_rounds(order).max_points for order in range(1, 5)) + 1
    rng = np.random.default_rng(12)
    r, t = rng.uniform(0.3, 2.0, n), rng.uniform(-np.pi, np.pi, n)
    xs = np.concatenate([[0.5, 1.1, -0.8], r * np.cos(t)])
    ys = np.concatenate([[0.9, -0.4, 1.7], r * np.sin(t)])
    batch = jet_arctan_ratio(xs, ys, 4)
    for k in [0, 1, 2] + list(rng.choice(n + 3, 20, replace=False)):
        single = jet_arctan_ratio(xs[k], ys[k], 4)
        assert np.array_equal(batch.d[..., k], single.d)


# -- orders above four: one Leibniz sum, binomials and factorials from math

HIGH = 6


def _entries(order):
    return [(i, j) for i in range(order + 1) for j in range(order + 1 - i)]


def test_product_at_order_six_matches_expanded_polynomial():
    x, y = 0.8, -1.1
    ja = jet_polynomial(x, y, {(3, 0): 1.0, (1, 2): -2.0, (0, 1): 0.5}, HIGH)
    jb = jet_polynomial(x, y, {(2, 2): 1.0, (0, 3): 3.0, (0, 0): -1.0}, HIGH)
    # (x^3 - 2xy^2 + y/2)(x^2y^2 + 3y^3 - 1)
    expanded = jet_polynomial(x, y, {
        (5, 2): 1.0, (3, 3): 3.0, (3, 0): -1.0, (3, 4): -2.0, (1, 5): -6.0,
        (1, 2): 2.0, (2, 3): 0.5, (0, 4): 1.5, (0, 1): -0.5}, HIGH)
    assert np.allclose((ja * jb).d, expanded.d, rtol=1e-13, atol=1e-11)


def _closed_form_power(x, y, p, order):
    """Table of (1 + x + y)^p: every (i, j) derivative is the falling
    factorial p(p-1)...(p-n+1)·(1 + x + y)^(p-n) with n = i + j."""
    s = 1.0 + x + y
    d = np.zeros((order + 1, order + 1))
    for i, j in _entries(order):
        n = i + j
        d[i, j] = math.prod(p - k for k in range(n)) * s ** (p - n)
    return d


def test_reciprocal_and_sqrt_at_order_six_match_closed_forms():
    x, y = 0.4, 0.3
    f = jet_polynomial(x, y, {(0, 0): 1.0, (1, 0): 1.0, (0, 1): 1.0}, HIGH)
    assert np.allclose(f.reciprocal().d, _closed_form_power(x, y, -1, HIGH),
                       rtol=1e-12, atol=0)
    assert np.allclose(f.sqrt().d, _closed_form_power(x, y, 0.5, HIGH),
                       rtol=1e-12, atol=0)


def test_log_and_arctan_jets_at_order_six_match_complex_derivatives():
    # ln(x^2 + y^2) = 2 Re log z and Arctan(y/x) = Im log z (z = x + iy)
    # off the branch cut, and d^n/dz^n log z = (-1)^(n-1) (n-1)! / z^n
    x, y = 0.9, -0.6
    z = complex(x, y)
    log_jet = jet_log_rsq(x, y, HIGH)
    atan_jet = jet_arctan_ratio(x, y, HIGH)
    for i, j in _entries(HIGH):
        n = i + j
        if n == 0:
            continue
        dz = 1j ** j * (-1) ** (n - 1) * math.factorial(n - 1) / z ** n
        assert abs(log_jet.entry(i, j) - 2.0 * dz.real) < 1e-11 * math.factorial(n)
        assert abs(atan_jet.entry(i, j) - dz.imag) < 1e-11 * math.factorial(n)


def test_compose_at_order_six_matches_expanded_polynomial():
    x, y = 0.7, -0.5
    ju = jet_polynomial(x, y, {(1, 0): 1.0, (0, 2): 1.0}, HIGH)     # x + y^2
    jv = jet_polynomial(x, y, {(1, 1): 1.0}, HIGH)                  # xy
    # P(u, v) = u^2 v + v^3
    fjet = jet_polynomial(ju.value, jv.value, {(2, 1): 1.0, (0, 3): 1.0}, HIGH)
    direct = jet_polynomial(
        x, y, {(3, 1): 1.0, (2, 3): 2.0, (1, 5): 1.0, (3, 3): 1.0}, HIGH)
    assert np.allclose(compose(fjet, ju, jv).d, direct.d, rtol=1e-13, atol=1e-12)


# -- bit identity with the per-entry Leibniz loop ------------------------


def _leibniz(p, q, i, j, skip=()):
    """Sum over a <= i, b <= j of C(i,a)·C(j,b)·p[a,b]·q[i−a,j−b], leaving
    out the (a, b) terms listed in `skip`, one term at a time."""
    acc = 0.0
    for a in range(i + 1):
        for b in range(j + 1):
            if (a, b) in skip:
                continue
            c = math.comb(i, a) * math.comb(j, b)
            acc = acc + c * p[a, b] * q[i - a, j - b]
    return acc


def _product_reference(p, q, n):
    shape = np.broadcast(p[0, 0], q[0, 0]).shape
    out = np.zeros((n + 1, n + 1) + shape, dtype=np.result_type(p, q))
    for i, j in _entries(n):
        out[i, j] = _leibniz(p, q, i, j)
    return out


def _reciprocal_reference(g, n):
    out = np.zeros_like(g)
    inv = 1.0 / g[0, 0]
    out[0, 0] = inv
    for t in range(1, n + 1):
        for i in range(t + 1):
            out[i, t - i] = -inv * _leibniz(g, out, i, t - i, ((0, 0),))
    return out


def _sqrt_reference(g, n):
    out = np.zeros_like(g)
    s0 = np.sqrt(g[0, 0])
    out[0, 0] = s0
    half = 0.5 / s0
    for t in range(1, n + 1):
        for i in range(t + 1):
            j = t - i
            acc = _leibniz(out, out, i, j, ((0, 0), (i, j)))
            out[i, j] = (g[i, j] - acc) * half
    return out


def assert_same_bits(got, want):
    """Equal dtype, shape, values and signs of zero.  NaNs compare by
    position only: IEEE 754 leaves the sign of a NaN result open, and
    numpy's scalar and array loops return different operands' NaNs."""
    assert got.dtype == want.dtype and got.shape == want.shape
    nan = np.isnan(want)
    assert np.array_equal(np.isnan(got), nan)
    assert np.array_equal(got[~nan], want[~nan])
    assert np.array_equal(np.signbit(got[~nan]), np.signbit(want[~nan]))


_SPECIAL = np.array([0.0, -0.0, np.inf, -np.inf, np.nan])
_BIG = max(_rounds(order).max_points for order in range(1, 7)) + 1
# point shapes of the two factors, broadcasting included; (64,) is below
# every order's product kernel switch and (_BIG,) past it
_SHAPES = [((), ()), ((1,), (1,)), ((), (1,)), ((1,), ()), ((3, 4), (3, 4)),
           ((), (3, 4)), ((3, 4), ()), ((4,), (3, 4)), ((64,), (64,)),
           ((_BIG,), (_BIG,)), ((), (_BIG,))]


def _table(rng, order, shape, dtype, special):
    d = rng.normal(size=(order + 1, order + 1) + shape)
    d *= 10.0 ** rng.integers(-3, 4, size=d.shape)
    hit = rng.random(d.shape) < special
    d[hit] = rng.choice(_SPECIAL, size=int(hit.sum()))
    return d.astype(dtype)


def _one_point_examples(test):
    """`test` with one float64 point against one, special values included,
    at every order and in every pairing of the point shapes () and (1,)."""
    for order in range(1, 7):
        for shapes in _SHAPES[:4]:
            test = example(order=order, shapes=shapes,
                           dtypes=(np.float64, np.float64), special=0.3,
                           seed=order)(test)
    return test


@settings(max_examples=60, deadline=None, derandomize=True)
@_one_point_examples
@given(order=st.integers(0, 6), shapes=st.sampled_from(_SHAPES),
       dtypes=st.sampled_from([(np.float64, np.float64),
                               (np.longdouble, np.longdouble),
                               (np.float64, np.longdouble),
                               (np.longdouble, np.float64)]),
       special=st.sampled_from([0.0, 0.05, 0.3]),
       seed=st.integers(0, 2**32 - 1))
def test_jet_arithmetic_has_the_bits_of_the_leibniz_loop(order, shapes, dtypes,
                                                          special, seed):
    rng = np.random.default_rng(seed)
    p = _table(rng, order, shapes[0], dtypes[0], special)
    q = _table(rng, order, shapes[1], dtypes[1], special)
    with np.errstate(all="ignore"):
        assert_same_bits((Jet(p, order) * Jet(q, order)).d,
                         _product_reference(p, q, order))
        for g in (p, q):
            assert_same_bits(Jet(g, order).reciprocal().d,
                             _reciprocal_reference(g, order))
            assert_same_bits(Jet(g, order).sqrt().d, _sqrt_reference(g, order))


def _constructed(x, y, order):
    """A jet from each constructor, at the points (x, y)."""
    lower = max(order - 1, 0)
    coeffs = {(0, 0): 1.5, (2, 1): -0.5, (3, 0): 2.0, (1, 2): 1.0}
    return [Jet.coordinate(x, 0, order), Jet.coordinate(y, 1, order),
            Jet.constant(x, order), jet_polynomial(x, y, coeffs, order),
            jet_arctan_ratio(x, y, order, branch=-1), jet_log_rsq(x, y, order),
            Jet.from_gradient(x, Jet.constant(y, lower),
                              Jet.coordinate(x, 1, lower))]


@pytest.mark.parametrize("order", range(0, 4))
def test_one_point_constructors_have_the_bits_of_the_batch(order):
    # a point of shape () or (1,) against the first of two batch points
    values = [0.0, -0.0, math.inf, -math.inf, math.nan, 1.3, -2.7]
    with np.errstate(all="ignore"):
        for x in values:
            for y in values:
                xs, ys = np.array([x, 0.7]), np.array([y, -0.4])
                batch = _constructed(xs, ys, order)
                for k in (slice(0, 1), 0):
                    for got, want in zip(_constructed(xs[k], ys[k], order),
                                         batch):
                        assert_same_bits(got.d, want.d[..., k])


def test_kernel_switch_falls_inside_the_tested_sizes():
    for order in range(1, 7):
        assert 64 <= _rounds(order).max_points < _BIG


def test_polynomial_jet_has_the_bits_of_the_monomial_loop():
    rng = np.random.default_rng(3)
    x = rng.normal(size=300)
    y = rng.normal(size=300).astype(np.longdouble)
    coeffs = {(p, q): float(rng.normal()) for p in range(5) for q in range(4)}
    for order in range(5):
        want = np.zeros((order + 1, order + 1, 300), dtype=np.longdouble)
        for (p, q), c in coeffs.items():
            for i, j in _entries(order):
                if i <= p and j <= q:
                    fall = math.perm(p, i) * math.perm(q, j)
                    want[i, j] += c * fall * x ** (p - i) * y ** (q - j)
        assert_same_bits(jet_polynomial(x, y, coeffs, order).d, want)
