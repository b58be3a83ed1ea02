"""The classification theorem as linear algebra, on polynomial fields.

Fix a one-parameter family of top-view cycles.  "F carries an isotropic
circle over each" is linear in F, so over a basis of fields the ones that
do form a null space.  The basis here is the 30 biharmonic polynomials of
degree at most 8: Re zᵏ and Im zᵏ (k ≤ 8), and ρ = x² + y² times those of
degree k ≤ 6.  The rows are the exact identity of
`pencils.isotropic_circle_residual` (g‴ = 0 over a line, g‴ + g′ = 0 over
a circle) at 25 points of each of 9 cycles: more than twice the top
harmonic, so no sin 8θ vanishes at every sample.  A pencil leaves more
fields than the ones that carry every cycle of the family's kind.
"""
import math

import numpy as np
import pytest

from lagmin.fields import HyperbolicField, ParabolicField
from lagmin.jets import jet_polynomial
from lagmin.pencils import Cycle

SAMPLES = 25
NULL_TOL = 1e-10     # relative singular value read as 0
GAP_MIN = 1e-3       # the next singular value, measured at 0.011 or more


def _z_power(k):
    """Re zᵏ and Im zᵏ as monomial dicts {(p, q): c}."""
    parts = ({}, {})
    for j in range(k + 1):
        sign = -1 if j % 4 >= 2 else 1
        parts[j % 2][(k - j, j)] = float(sign * math.comb(k, j))
    return parts


def _times_rho(P):
    out = {}
    for (p, q), c in P.items():
        for key in ((p + 2, q), (p, q + 2)):
            out[key] = out.get(key, 0.0) + c
    return out


BASIS = [P for k in range(9) for P in _z_power(k) if P]
BASIS += [_times_rho(P) for k in range(7) for P in _z_power(k) if P]


def _identity(P, cycle):
    """The identity of the polynomial P at 25 points of `cycle`, and the
    sum of its terms' magnitudes there."""
    a, b, c, d = cycle.vec()
    if a == 0.0:
        nrm = math.hypot(b, c)
        u, v = c / nrm, -b / nrm
        foot = -d / nrm**2 * np.array([b, c])
        x, y = (foot + np.outer(np.linspace(-2.0, 2.0, SAMPLES), (u, v))).T
        px = py = 0.0
    else:
        (cx, cy), r = cycle.center(), cycle.radius()
        t = 2.0 * math.pi * (np.arange(SAMPLES) + 0.5) / SAMPLES
        x, y = cx + r * np.cos(t), cy + r * np.sin(t)
        px, py = cx - x, cy - y
        u, v = py, -px
    jet = jet_polynomial(x, y, P, 3)
    terms = [bk * jet.entry(3 - k, k) * u ** (3 - k) * v**k
             for k, bk in enumerate((1, 3, 3, 1))]
    terms += [3.0 * jet.entry(2, 0) * u * px,
              3.0 * jet.entry(1, 1) * (u * py + v * px),
              3.0 * jet.entry(0, 2) * v * py]
    return sum(terms), sum(np.abs(t) for t in terms)


def _carried(P, cycles):
    """The largest identity of P over the cycles, over its largest scale."""
    rows = [_identity(P, c) for c in cycles]
    scale = max(float(np.max(m)) for _, m in rows)
    worst = max(float(np.max(np.abs(g))) for g, _ in rows)
    return worst / scale if scale else 0.0


def _singular_values(cycles):
    """Singular values of the rows over the basis, each column scaled by
    its terms' magnitudes (1 where it has none), largest first, over the
    largest."""
    cols = [[_identity(P, c) for c in cycles] for P in BASIS]
    A = np.column_stack([np.concatenate([g for g, _ in col]) for col in cols])
    scale = np.array([np.linalg.norm(np.concatenate([m for _, m in col]))
                      for col in cols])
    s = np.linalg.svd(A / np.where(scale > 0.0, scale, 1.0),
                      compute_uv=False)
    return s / s[0]


T = np.linspace(-1.0, 1.0, 9)
FAMILIES = {
    "circles-about-0": ([Cycle.from_circle((0.0, 0.0), r)
                         for r in np.linspace(0.5, 2.1, 9)], 6),
    "lines-x-equal-c": ([Cycle(0.0, 1.0, 0.0, -t) for t in T], 12),
    "lines-through-0": ([Cycle(0.0, math.cos(a), math.sin(a), 0.0)
                         for a in np.linspace(0.1, 3.0, 9)], 6),
    "unit-circles-on-a-parabola": ([Cycle.from_circle((t, t * t), 1.0)
                                    for t in T], 4),
}


def test_the_basis_is_the_30_biharmonic_polynomials_of_degree_8():
    assert len(BASIS) == 30
    assert len({tuple(sorted(P.items())) for P in BASIS}) == 30
    for P in BASIS:
        assert max(p + q for p, q in P) <= 8
        # Δ² of each monomial, summed: every coefficient cancels exactly
        lap2 = {}
        for (p, q), c in P.items():
            for dp, dq, w in ((4, 0, 1), (2, 2, 2), (0, 4, 1)):
                if p >= dp and q >= dq:
                    key = (p - dp, q - dq)
                    fall = math.perm(p, dp) * math.perm(q, dq)
                    lap2[key] = lap2.get(key, 0.0) + w * fall * c
        assert all(v == 0.0 for v in lap2.values())


@pytest.mark.parametrize("name", sorted(FAMILIES))
def test_a_cycle_family_leaves_its_stated_null_space(name):
    cycles, count = FAMILIES[name]
    s = _singular_values(cycles)
    assert np.sum(s <= NULL_TOL) == count
    assert s[len(s) - count - 1] >= GAP_MIN


def test_circles_about_0_leave_the_polynomial_hyperbolic_fields():
    # 1, x, y, ρ, xρ and yρ: the hyperbolic family's γ1, α1, β1, γ2, α4
    # and β4, its only unit fields with no singular term, span the 6
    cycles, count = FAMILIES["circles-about-0"]
    names = [f"{g}{k}" for g in ("alpha", "beta", "gamma") for k in (1, 2, 3, 4)]
    units = {n: HyperbolicField(**{n: 1.0}).monomials() for n in names}
    polys = {n: P for n, P in units.items() if P is not None}
    assert sorted(polys) == ["alpha1", "alpha4", "beta1", "beta4", "gamma1",
                             "gamma2"]
    assert len(polys) == count
    nonzero = {n: {k: c for k, c in P.items() if c != 0.0}
               for n, P in polys.items()}
    assert nonzero == {
        "gamma1": {(0, 0): 1.0}, "alpha1": {(1, 0): 1.0},
        "beta1": {(0, 1): 1.0}, "gamma2": {(2, 0): 1.0, (0, 2): 1.0},
        "alpha4": {(3, 0): 1.0, (1, 2): 1.0},
        "beta4": {(2, 1): 1.0, (0, 3): 1.0}}
    for P in polys.values():
        assert _carried(P, cycles) <= 1e-15


def test_lines_x_equal_c_leave_the_parabolic_family():
    # the 12 unit fields of ParabolicField carry every line x = c, and
    # they have full rank (tests/test_fields.py), so the null space of
    # that count is their span
    cycles, count = FAMILIES["lines-x-equal-c"]
    names = [f"{g}{k}" for g in ("alpha", "beta", "gamma") for k in range(4)]
    assert len(names) == count
    for n in names:
        assert _carried(ParabolicField(**{n: 1.0}).monomials(), cycles) <= 1e-15


def test_a_field_off_the_family_is_not_carried():
    # Re z⁴ carries none of the four families; x²y carries lines x = c
    re_z4 = _z_power(4)[0]
    x2y = {(2, 1): 1.0}
    for name, (cycles, _) in FAMILIES.items():
        assert _carried(re_z4, cycles) > 0.05, name
    assert _carried(x2y, FAMILIES["lines-x-equal-c"][0]) <= 1e-15
    assert _carried(x2y, FAMILIES["circles-about-0"][0]) > 0.05
