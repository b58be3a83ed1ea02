"""Output checks for benchmark jobs.

Each ``check_*`` function returns a list of problems; an empty list
means the job's outputs are right.  References come from lagmin's public
API, evaluated here and not in the timed pass:

* a mesh must read back with finite vertices and 1-based quads in range;
* its vertices are exactly the valid points of the job's grid, in
  row-major order: guarded points and points without a finite image are
  left out, and every quad is a grid cell with four valid corners;
* every vertex agrees with the batch evaluation of the surface at its
  grid point, and a seeded sample agrees with evaluation one point at a
  time;
* a check report has one passing record per requested check;
* a pencil report has the tag and base points the circles were built with.
"""

from __future__ import annotations

import hashlib
import json
import os

import numpy as np

# Batch and single-point evaluation run the same formulas, but numpy may
# take different vector paths for arrays of one and of many elements.
RTOL = 1e-12
ATOL = 1e-12
SAMPLE = 16           # seeded vertices evaluated one point at a time
BASE_POINT_TOL = 1e-8

CHECK_RECORDS = {"biharmonic": "biharmonic", "gaussmap": "gaussmap-identity",
                 "ruling": "ruling-incidence", "curvature": "curvature-fd",
                 "stationarity": "stationarity", "tangency": "cone-tangency"}


def sha256(path) -> str:
    with open(path, "rb") as fh:
        return hashlib.sha256(fh.read()).hexdigest()


def read_obj(path):
    """(vertices (n, 3) float, quads (m, 4) int) of an ASCII OBJ file."""
    verts = []
    faces = []
    with open(path, encoding="utf-8") as fh:
        for line in fh:
            if line.startswith("v "):
                verts.append(line[2:])
            elif line.startswith("f "):
                faces.append(line[2:])
    v = np.array(" ".join(verts).split(), dtype=float)
    f = np.array(" ".join(faces).split(), dtype=np.int64)
    if v.size != 3 * len(verts) or f.size != 4 * len(faces):
        raise ValueError("a v record lacks 3 numbers or an f record 4 indices")
    return v.reshape(-1, 3), f.reshape(-1, 4)


def _grid(window, grid):
    u = np.linspace(window[0], window[1], grid[0])
    v = np.linspace(window[2], window[3], grid[1])
    return np.meshgrid(u, v)


def _grid_quads(valid):
    index = np.full(valid.shape, -1, dtype=np.int64)
    index[valid] = np.arange(np.count_nonzero(valid))
    cell = valid[:-1, :-1] & valid[:-1, 1:] & valid[1:, 1:] & valid[1:, :-1]
    i, j = np.nonzero(cell)
    return np.stack([index[i, j], index[i, j + 1], index[i + 1, j + 1],
                     index[i + 1, j]], axis=1) + 1


def _close(a, b) -> bool:
    return a.shape == b.shape and bool(np.allclose(a, b, rtol=RTOL, atol=ATOL))


def check_mesh(path, uu, vv, valid, expected, point_at, rng):
    """Problems with the OBJ at `path` against the grid's valid mask, the
    batch reference `expected` (its valid points) and `point_at(u, v)`."""
    try:
        verts, quads = read_obj(path)
    except (OSError, ValueError) as exc:
        return ["cannot read %s: %s" % (path, exc)]
    problems = []
    if not np.all(np.isfinite(verts)):
        problems.append("non-finite vertex")
    if quads.size and (quads.min() < 1 or quads.max() > len(verts)):
        problems.append("face index out of range")
    if len(verts) != np.count_nonzero(valid):
        problems.append("%d vertices for %d valid grid points"
                        % (len(verts), np.count_nonzero(valid)))
        return problems
    if not np.array_equal(quads, _grid_quads(valid)):
        problems.append("faces are not the grid cells with valid corners")
    if not _close(verts, expected):
        bad = np.argmax(np.max(np.abs(verts - expected), axis=1))
        problems.append("vertex %d is %r, evaluation gives %r"
                        % (bad, verts[bad].tolist(), expected[bad].tolist()))
    rows, cols = np.nonzero(valid)
    for k in rng.choice(len(verts), size=min(SAMPLE, len(verts)),
                        replace=False):
        ref = point_at(uu[rows[k], cols[k]], vv[rows[k], cols[k]])
        if not _close(verts[k], ref):
            problems.append("vertex %d is %r, point evaluation gives %r"
                            % (k, verts[k].tolist(), ref.tolist()))
    return problems


def check_generate(job, path, rng):
    from lagmin import grammar

    S = grammar.parse_surface(job["spec"])
    uu, vv = _grid(job["window"], job["grid"])
    safe = np.broadcast_to(S.is_safe(uu, vv), uu.shape).copy()
    with np.errstate(all="ignore"):
        pts = S.point(uu[safe], vv[safe])
    valid = safe.copy()
    valid[safe] = np.all(np.isfinite(pts), axis=-1)
    expected = pts[np.all(np.isfinite(pts), axis=-1)]

    def point_at(u, v):
        return S.point(np.array([u]), np.array([v]))[0]

    return check_mesh(path, uu, vv, valid, expected, point_at, rng)


def check_isotropic(job, path, rng):
    from lagmin import IdealImage, NonImmersed, grammar, isotropic_image

    S = grammar.parse_surface(job["spec"])
    uu, vv = _grid(S.default_window, job["grid"])
    safe = np.broadcast_to(S.is_safe(uu, vv), uu.shape).copy()

    def point_at(u, v):
        return isotropic_image(S, np.array([u]), np.array([v]))[0]

    # A grid point is valid where its tangent plane has a finite image.
    with np.errstate(all="ignore"):
        try:
            imgs = isotropic_image(S, uu[safe], vv[safe])
        except (NonImmersed, IdealImage):
            imgs = np.full((np.count_nonzero(safe), 3), np.nan)
            for i, (u, v) in enumerate(zip(uu[safe], vv[safe])):
                try:
                    imgs[i] = point_at(u, v)
                except (NonImmersed, IdealImage):
                    pass
    finite = np.all(np.isfinite(imgs), axis=-1)
    valid = safe.copy()
    valid[safe] = finite
    return check_mesh(path, uu, vv, valid, imgs[finite], point_at, rng)


def check_verify(job, path):
    try:
        with open(path, encoding="utf-8") as fh:
            records = json.load(fh)
        names = [r["check"] for r in records]
        failed = [r["check"] for r in records if r["pass"] is not True]
    except (OSError, ValueError, KeyError, TypeError) as exc:
        return ["cannot read report %s: %s" % (path, exc)]
    problems = ["check %s failed" % n for n in failed]
    wanted = [CHECK_RECORDS[c] for c in job["checks"]]
    if job["checks"] == ["tangency"]:
        ok = bool(names) and set(names) == set(wanted)
    else:
        ok = names == wanted
    if not ok:
        problems.append("report has checks %s, expected %s" % (names, wanted))
    return problems


def check_pencil(job, path):
    try:
        with open(path, encoding="utf-8") as fh:
            report = json.load(fh)
        tag = report["tag"]
        points = [p for p in report["base_points"] if p is not None]
    except (OSError, ValueError, KeyError, TypeError) as exc:
        return ["cannot read report %s: %s" % (path, exc)]
    if tag != job["tag"]:
        return ["classified %r, built as %r" % (tag, job["tag"])]
    want = job["base_points"]
    if len(points) != len(want) or not all(
            min(np.hypot(p[0] - w[0], p[1] - w[1]) for p in points)
            <= BASE_POINT_TOL for w in want):
        return ["base points %s, built with %s" % (points, want)]
    return []


def check_job(job, workdir, rng):
    """Problems with one finished job's outputs (paths under workdir)."""
    path = os.path.join(workdir, job["outputs"][0])
    kind = job["kind"]
    if kind == "generate":
        return check_generate(job, path, rng)
    if kind == "isotropic":
        return check_isotropic(job, path, rng)
    if kind == "verify":
        return check_verify(job, path)
    return check_pencil(job, path)
