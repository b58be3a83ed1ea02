"""Circles as cycles, pencil classification, the exact test that a field
carries an isotropic circle over a cycle, and the lemma fits that rebuild
a field from its restrictions to circles.

A cycle is the coefficient vector (a, b, c, d) of
a(x^2+y^2) + bx + cy + d = 0, so lines (a = 0) live in the same
4-dimensional space as circles.  The inversive quadratic form
Q = b^2 + c^2 - 4ad separates genuine circles (Q > 0) from
point-circles (Q = 0) and imaginary ones (Q < 0), and a family of
cycles is a pencil exactly when its coefficient matrix has rank 2.
"""

from __future__ import annotations

import itertools
import json
from dataclasses import dataclass

import numpy as np

from .errors import (
    BadFit,
    DegenerateCone,
    DependentCircles,
    EmptyIntersection,
    NotLinearOnCircle,
    TooFew,
)

RANK_TOL = 1e-9          # singular value ratio declaring rank deficiency
DISC_TOL = 1e-9          # relative discriminant size treated as a double root
LINEAR_TOL = 1e-8        # max residual for "restriction is linear"
NESTED_SAMPLES = 50      # points on each circle fit_nested samples
CYCLE_SAMPLES = 50       # points isotropic_circle_residual takes on a cycle
TINY = 1e-12


@dataclass(frozen=True)
class Cycle:
    """Solution set of a(x^2+y^2) + bx + cy + d = 0."""

    a: float
    b: float
    c: float
    d: float

    def __post_init__(self):
        if self.a == 0.0 and self.b == 0.0 and self.c == 0.0 and self.d == 0.0:
            raise ValueError("cycle coefficients must not all vanish")
        if not np.all(np.isfinite(self.vec())):
            raise ValueError("cycle coefficients must be finite")

    def vec(self) -> np.ndarray:
        return np.array([self.a, self.b, self.c, self.d], dtype=float)

    def q(self) -> float:
        """Inversive quadratic form b^2 + c^2 - 4ad."""
        return self.b * self.b + self.c * self.c - 4.0 * self.a * self.d

    def evaluate(self, x, y):
        x = np.asarray(x, dtype=float)
        y = np.asarray(y, dtype=float)
        return self.a * (x * x + y * y) + self.b * x + self.c * y + self.d

    def center(self):
        if self.a == 0.0:
            raise ValueError("a line has no center")
        return (-self.b / (2.0 * self.a), -self.c / (2.0 * self.a))

    def radius(self) -> float:
        qv = self.q()
        if self.a == 0.0 or qv < 0.0:
            raise ValueError("not a real circle")
        return float(np.sqrt(qv) / (2.0 * abs(self.a)))

    @classmethod
    def from_circle(cls, center, radius) -> "Cycle":
        cx, cy = float(center[0]), float(center[1])
        r = float(radius)
        return cls(1.0, -2.0 * cx, -2.0 * cy, cx * cx + cy * cy - r * r)


def isotropic_circle_residual(F, cycle) -> float:
    """Largest cancellation ratio, over 50 points of `cycle`, of the exact
    identity that holds where the field F carries an isotropic circle
    over it.

    Let g be F along the cycle.  Over a line, in arclength along its unit
    direction t, an isotropic circle is a parabola: g‴ = D³F[t, t, t] = 0,
    scaled by Σₖ C(3, k)·|∂x³⁻ᵏ∂yᵏF| so that an axis-parallel line is not
    a ratio of one term.  Over a circle p(θ), it is a plane section of
    the cylinder: g‴ + g′ = D³F[p′, p′, p′] + 3·D²F[p′, p″] = 0 with
    p″ = −(p − centre), scaled by the sum of its seven terms' magnitudes.
    A point where every term vanishes reads 0.  A line's points lie
    within 3 of its foot.  Guarded points are skipped; EmptyIntersection
    when the cycle has no real locus or no point of it survives.
    """
    a, b, c, d = cycle.vec()
    if a == 0.0:
        nrm = float(np.hypot(b, c))
        if nrm == 0.0:
            raise EmptyIntersection("cycle has no locus")
        u, v = c / nrm, -b / nrm
        foot = -d / nrm**2 * np.array([b, c])
        pts = foot + np.outer(np.linspace(-3.0, 3.0, CYCLE_SAMPLES), (u, v))
    elif cycle.q() <= 0.0:
        raise EmptyIntersection("cycle has empty or point locus")
    else:
        cx, cy = cycle.center()
        pts = _circle_points((cx, cy), cycle.radius(), CYCLE_SAMPLES)
    keep = F.is_safe(pts[:, 0], pts[:, 1])
    if not np.any(keep):
        raise EmptyIntersection("all cycle samples fall inside the singular guard")
    x, y = pts[keep].T
    jet = F.jet(x, y, 3)
    if a == 0.0:
        px = py = 0.0                  # p′ = (u, v) and p″ = 0 on a line
    else:
        px, py = cx - x, cy - y        # p″ = −(p − centre)
        u, v = py, -px                 # p′
    cubic = [bk * jet.entry(3 - k, k) for k, bk in enumerate((1, 3, 3, 1))]
    terms = [ck * u ** (3 - k) * v**k for k, ck in enumerate(cubic)]
    terms += [3.0 * jet.entry(2, 0) * u * px,
              3.0 * jet.entry(1, 1) * (u * py + v * px),
              3.0 * jet.entry(0, 2) * v * py]
    scale = sum(np.abs(t) for t in (terms if a else cubic))
    total = np.abs(sum(terms))
    # 0 where every term vanishes; a NaN stays NaN
    ratio = np.divide(total, scale, out=np.zeros_like(total), where=scale != 0)
    return float(np.max(ratio))


def q_bilinear(u, w) -> float:
    """Polarization of the inversive form on coefficient 4-vectors."""
    return float(u[1] * w[1] + u[2] * w[2] - 2.0 * (u[0] * w[3] + u[3] * w[0]))


@dataclass(frozen=True)
class PencilClass:
    """Classification verdict for a finite cycle family.

    base_points holds the two common points (elliptic), the two limit
    points (hyperbolic) or the single tangency point (parabolic); the
    value None inside the tuple stands for the ideal point.
    """

    tag: str
    base_points: tuple = ()
    rank: int = 0
    singular_values: tuple = ()


def _point_of_degenerate(w):
    """Center of a point-circle member, or None for the ideal cycle."""
    scale = float(np.max(np.abs(w)))
    if abs(w[0]) > TINY * scale:
        return (float(-w[1] / (2.0 * w[0])), float(-w[2] / (2.0 * w[0])))
    return None


def _intersect_span(c1, c2):
    """Real common points of the cycles spanned by c1, c2."""
    # pick the most circle-like member available for the quadratic part
    cands = [c1, c2, c1 + c2, c1 - c2]
    circ = max(cands, key=lambda w: abs(w[0]))
    if abs(circ[0]) < TINY:
        # two lines: a single linear system for the finite common point;
        # lines also share the ideal point
        mat = np.array([[c1[1], c1[2]], [c2[1], c2[2]]])
        rhs = -np.array([c1[3], c2[3]])
        if abs(np.linalg.det(mat)) < TINY:
            return []
        pt = np.linalg.solve(mat, rhs)
        return [(float(pt[0]), float(pt[1])), None]
    other = c2 if circ is not c2 else c1
    # radical line: eliminate the quadratic term
    w = other - (other[0] / circ[0]) * circ
    bb, cc, dd = w[1], w[2], w[3]
    nrm = float(np.hypot(bb, cc))
    if nrm < TINY:
        return []
    bb, cc, dd = bb / nrm, cc / nrm, dd / nrm
    # foot of the line plus its direction
    p0 = np.array([-bb * dd, -cc * dd])
    dvec = np.array([-cc, bb])
    b, c, d = circ[1] / circ[0], circ[2] / circ[0], circ[3] / circ[0]
    # substitute p0 + t*dvec into x^2+y^2+bx+cy+d
    beta = 2.0 * float(p0 @ dvec) + b * dvec[0] + c * dvec[1]
    gamma = float(p0 @ p0) + b * p0[0] + c * p0[1] + d
    disc = beta * beta / 4.0 - gamma
    if disc < 0.0:
        return []
    root = np.sqrt(disc)
    out = []
    for t in (-beta / 2.0 - root, -beta / 2.0 + root):
        pt = p0 + t * dvec
        out.append((float(pt[0]), float(pt[1])))
    return out


def classify_family(cycles) -> PencilClass:
    """Type a finite cycle family: pencil (and which kind) or not.

    Rank of the row-normalized coefficient matrix decides pencil-hood;
    a rank-2 family is typed by the discriminant of Q restricted to the
    span, equivalently by how many degenerate members the pencil has.
    """
    if len(cycles) < 3:
        raise TooFew("need at least 3 cycles to classify")
    mat = np.stack([cy.vec() for cy in cycles])
    # a row whose norm overflows is first scaled by its largest entry
    with np.errstate(over="ignore"):
        big = ~np.isfinite(np.linalg.norm(mat, axis=1))
    mat[big] /= np.max(np.abs(mat[big]), axis=1, keepdims=True)
    mat = mat / np.linalg.norm(mat, axis=1, keepdims=True)
    sv = np.linalg.svd(mat, compute_uv=False)
    rank = int(np.sum(sv > RANK_TOL * sv[0]))
    svals = tuple(float(s) for s in sv)
    if rank >= 3:
        return PencilClass("not-a-pencil", (), rank, svals)
    if rank <= 1:
        return PencilClass("degenerate", (), rank, svals)

    _, _, vt = np.linalg.svd(mat)
    c1, c2 = vt[0], vt[1]
    alpha = q_bilinear(c2, c2)
    beta = q_bilinear(c1, c2)
    gamma = q_bilinear(c1, c1)
    scale = max(abs(alpha), abs(beta), abs(gamma))
    if scale == 0.0:
        return PencilClass("degenerate", (), rank, svals)
    disc = beta * beta - alpha * gamma

    if abs(disc) <= DISC_TOL * scale * scale:
        if abs(alpha) > DISC_TOL * scale:
            w = c1 + (-beta / alpha) * c2
        else:
            w = c2
        return PencilClass("parabolic", (_point_of_degenerate(w),), rank, svals)
    if disc > 0.0:
        root = np.sqrt(disc)
        if abs(alpha) > DISC_TOL * scale:
            members = [c1 + ((-beta - root) / alpha) * c2,
                       c1 + ((-beta + root) / alpha) * c2]
        else:
            members = [c1 + (-gamma / (2.0 * beta)) * c2, c2]
        pts = tuple(_point_of_degenerate(w) for w in members)
        return PencilClass("hyperbolic", pts, rank, svals)
    return PencilClass("elliptic", tuple(_intersect_span(c1, c2)), rank, svals)


# -- the lemma fits ---------------------------------------------------


def _fit_linear(points, values):
    pts = np.asarray(points, dtype=float)
    vals = np.asarray(values, dtype=float)
    design = np.column_stack([pts[:, 0], pts[:, 1], np.ones(len(pts))])
    coef, *_ = np.linalg.lstsq(design, vals, rcond=None)
    resid = float(np.max(np.abs(design @ coef - vals)))
    return coef, resid


def _normalized(circles):
    rows = []
    for cy in circles:
        if abs(cy.a) < TINY:
            raise DependentCircles("a line cannot be brought to normalized form")
        rows.append(cy.vec() / cy.a)
    return np.stack(rows)


def recover_crossing(circles, samples):
    """Rebuild F = A((x-a)^2 + (y-b)^2) + B from linear restrictions.

    circles are pairwise crossing and not all in one pencil; samples is
    one (points, values) pair per circle.  The construction mirrors the
    identity l_t - l_s = k_st (s_t - s_s) between the restriction and
    the normalized circle equations: fit the restriction on the first
    circle, read k off a pair, expand, complete the square.
    """
    if len(circles) < 3:
        raise TooFew("need at least 3 circles")
    if len(samples) != len(circles):
        raise ValueError("one (points, values) sample set per circle")
    norm = _normalized(circles)
    lins = []
    for (pts, vals) in samples:
        coef, resid = _fit_linear(pts, vals)
        if resid > LINEAR_TOL:
            raise NotLinearOnCircle(f"restriction fit residual {resid:.2e}")
        lins.append(coef)

    indep = None
    for triple in itertools.combinations(range(len(circles)), 3):
        sub = norm[list(triple)]
        sv = np.linalg.svd(sub, compute_uv=False)
        if sv[2] > RANK_TOL * sv[0]:
            indep = triple
            break
    if indep is None:
        raise DependentCircles("every circle triple lies in one pencil")

    # F = k*s_i + l_i must restrict to l_j on S_j, where s_i = s_i - s_j;
    # hence (l_j - l_i) = -k (s_j - s_i)
    i, j = indep[0], indep[1]
    ds = norm[j, 1:] - norm[i, 1:]
    dl = lins[j] - lins[i]
    denom = float(ds @ ds)
    k = -float(ds @ dl) / denom if denom > TINY else 0.0

    # F = k*s_i + l_i, expanded and completed
    px = k * norm[i, 1] + lins[i][0]
    py = k * norm[i, 2] + lins[i][1]
    pc = k * norm[i, 3] + lins[i][2]
    if abs(k) < TINY:
        return (0.0, 0.0, 0.0, float(pc))
    a = -px / (2.0 * k)
    b = -py / (2.0 * k)
    return (float(k), float(a), float(b), float(pc - k * (a * a + b * b)))


def _circle_points(center, radius, count):
    th = np.linspace(0.0, 2.0 * np.pi, count, endpoint=False)
    return np.column_stack([center[0] + radius * np.cos(th),
                            center[1] + radius * np.sin(th)])


def fit_nested(F):
    """Fit F = (x^2+y^2)(Ax + By + C) + ax + by + c from the two circles
    x^2+y^2 = 1 and x^2+y^2 = 2 plus a fixed ring of interior points.

    Returns (A, B, C, a, b, c).  BadFit means the 6-parameter model
    cannot reproduce the interior samples, which is the expected verdict
    for functions that are only biharmonic away from the origin.
    """
    rings = []
    for r in (1.0, np.sqrt(2.0)):
        pts = _circle_points((0.0, 0.0), r, NESTED_SAMPLES)
        vals = np.asarray(F.value(pts[:, 0], pts[:, 1]), dtype=float)
        _, resid = _fit_linear(pts, vals)
        if resid > LINEAR_TOL:
            raise NotLinearOnCircle(f"restriction fit residual {resid:.2e}")
        rings.append((pts, vals))
    golden = 2.399963229728653
    idx = np.arange(20)
    rad = 1.05 + 0.33 * idx / 19.0
    ang = golden * idx
    interior = np.column_stack([rad * np.cos(ang), rad * np.sin(ang)])
    ivals = np.asarray(F.value(interior[:, 0], interior[:, 1]), dtype=float)

    pts = np.vstack([rings[0][0], rings[1][0], interior])
    vals = np.concatenate([rings[0][1], rings[1][1], ivals])
    x, y = pts[:, 0], pts[:, 1]
    r2 = x * x + y * y
    design = np.column_stack([r2 * x, r2 * y, r2, x, y, np.ones_like(x)])
    coef, *_ = np.linalg.lstsq(design, vals, rcond=None)
    resid = float(np.max(np.abs(design @ coef - vals)))
    if resid >= 1e-7:
        raise BadFit(f"nested-circle model residual {resid:.2e}")
    return tuple(float(t) for t in coef)


# -- Gauss images of cone families ------------------------------------


def gauss_circle_of_cone(line) -> Cycle:
    """Stereographic image of the cone's circle of unit normals.

    The tangent planes common to every sphere (m + t*mdot, R + t*Rdot)
    have unit normals n with n . mdot = Rdot, a circle on the sphere;
    projecting from (0, 0, -1) turns it into the cycle below.
    """
    mdot = np.asarray(line.dir[:3], dtype=float)
    rdot = float(line.dir[3])
    if np.linalg.norm(mdot) < TINY:
        raise DegenerateCone("sphere line with stationary center")
    return Cycle(
        -(mdot[2] + rdot), 2.0 * mdot[0], 2.0 * mdot[1], mdot[2] - rdot
    )


def gauss_pencil_of_cones(family, samples=9) -> PencilClass:
    """Classify the Gauss image of a 1-parameter cone family, sampled at
    `samples` cones evenly over -1 <= phi <= 1."""
    if samples < 3:
        raise TooFew("need at least 3 sampled cones")
    phis = np.linspace(-1.0, 1.0, samples)
    return classify_family([gauss_circle_of_cone(family.line(p))
                            for p in phis])


# -- text interfaces ---------------------------------------------------


def _cycle_record(rec) -> Cycle:
    if not isinstance(rec, dict):
        raise ValueError(f"expected a JSON object, got {rec!r}")
    circle = "center" in rec
    if circle:
        center = rec["center"]
        if not isinstance(center, list) or len(center) != 2:
            raise ValueError(f"center wants two numbers, got {center!r}")
        nums = [*center, rec["radius"]]
    else:
        nums = [rec[k] for k in "abcd"]
    # exact types: JSON true/false load as bool, a subclass of int;
    # Cycle itself rejects NaN and infinities
    if not all(type(x) in (int, float) for x in nums):
        raise ValueError(f"expected numbers, got {rec!r}")
    nums = [float(x) for x in nums]
    return Cycle.from_circle(nums[:2], nums[2]) if circle else Cycle(*nums)


def parse_cycle_lines(text: str):
    """One JSON object per non-blank line, either cycle coefficients
    {a, b, c, d} or a circle {center: [x, y], radius: r}, all finite
    numbers.  Any other line raises ValueError naming its line number."""
    out = []
    for ln, raw in enumerate(text.splitlines(), start=1):
        raw = raw.strip()
        if not raw:
            continue
        try:
            out.append(_cycle_record(json.loads(raw)))
        except KeyError as exc:
            raise ValueError(f"line {ln}: missing cycle coefficient {exc}")
        except (ValueError, OverflowError) as exc:
            raise ValueError(f"line {ln}: {exc}")
    return out


def read_cycle_file(path):
    with open(path, "r", encoding="utf-8") as fh:
        return parse_cycle_lines(fh.read())


def classification_report(pc: PencilClass) -> dict:
    return {
        "tag": pc.tag,
        "base_points": [list(p) if p is not None else None for p in pc.base_points],
        "rank": pc.rank,
        "singular_values": list(pc.singular_values),
    }
