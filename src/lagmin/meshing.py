"""Grid meshing of parametrized surfaces and ASCII OBJ output.

The masked grid walk (`grid_points`) evaluates a surface on a regular
parameter grid with its guard mask applied and returns the grid-shaped
points with that mask; overflow and invalid values there are not
warned about, they come back as non-finite points.  `mesh_from_grid`
turns that result into vertices and quads: any grid cell touching a
guarded or non-finite point is dropped rather than emitted as NaN, and
`Mesh.nonfinite` counts the safe points dropped for non-finite
coordinates.  Checks that need only the points (cone tangency) use the
walk alone.  OBJ output is plain `v`/`f` with optional `l` polylines
and is written atomically (temp file + rename) so a crashed run never
leaves a half-written mesh behind.
"""

from __future__ import annotations

import os
import tempfile
from dataclasses import dataclass, field

import numpy as np


@dataclass
class Mesh:
    vertices: np.ndarray            # (n, 3) valid vertices, row-major grid order
    faces: np.ndarray               # (n, 4) int64 array of 0-based quad vertex ids
    valid: np.ndarray               # (rows, cols) bool mask
    shape: tuple                    # (cols, rows) = grid N x M
    window: tuple = (0.0, 0.0, 0.0, 0.0)
    index: np.ndarray = field(default=None, repr=False)  # grid -> vertex id, -1 invalid
    nonfinite: int = 0              # safe points dropped as non-finite


def grid_axes(window, shape):
    u0, u1, v0, v1 = (float(t) for t in window)
    nu, nv = int(shape[0]), int(shape[1])
    if nu < 2 or nv < 2:
        raise ValueError("grid must be at least 2x2")
    return np.linspace(u0, u1, nu), np.linspace(v0, v1, nv)


def mesh_from_grid(pts, ok, window, shape) -> Mesh:
    """Assemble a Mesh from grid-shaped points and a validity mask.

    A quad is emitted only when all four corners are valid and finite.
    """
    safe = ok
    ok = ok & np.all(np.isfinite(pts), axis=-1)
    index = np.full(ok.shape, -1, dtype=np.int64)
    index[ok] = np.arange(int(ok.sum()))
    cell = ok[:-1, :-1] & ok[:-1, 1:] & ok[1:, 1:] & ok[1:, :-1]
    i, j = np.nonzero(cell)
    faces = np.stack(
        [index[i, j], index[i, j + 1], index[i + 1, j + 1], index[i + 1, j]],
        axis=-1,
    )
    nonfinite = int(np.count_nonzero(safe)) - int(np.count_nonzero(ok))
    return Mesh(pts[ok], faces, ok, tuple(int(s) for s in shape), tuple(window),
                index, nonfinite)


def grid_points(window, shape, is_safe, points):
    """The masked grid walk: `(pts, ok)` over the N x M grid of `window`.

    `ok` is is_safe on the (rows, cols) grid and `pts` the (rows, cols, 3)
    values of points(u, v), which maps flat parameter arrays to (n, 3)
    points, at the rows where `ok` holds (NaN elsewhere).  Overflow and
    invalid operations are left to show as non-finite points.
    """
    u, v = grid_axes(window, shape)
    uu, vv = np.meshgrid(u, v)
    with np.errstate(over="ignore", invalid="ignore"):
        ok = is_safe(uu, vv)
        pts = np.full(ok.shape + (3,), np.nan)
        if ok.any():
            pts[ok] = points(uu[ok], vv[ok])
    return pts, ok


def grid_mesh(window, shape, is_safe, points) -> Mesh:
    """Mesh of points(u, v) over the valid points of the grid of `window`."""
    return mesh_from_grid(*grid_points(window, shape, is_safe, points),
                          window, shape)


def surface_mesh(surface, window=None, shape=(100, 100)) -> Mesh:
    """Evaluate the surface on an N x M grid and assemble valid quads."""
    if window is None:
        window = surface.default_window
    return grid_mesh(window, shape, surface.is_safe, surface.point)


def field_graph_mesh(fieldobj, window=(-2.0, 2.0, -2.0, 2.0), shape=(100, 100)) -> Mesh:
    """Mesh of the graph (x, y, F(x, y)) with the field's own guards."""
    return grid_mesh(window, shape, fieldobj.is_safe, lambda x, y: np.stack(
        [x, y, np.asarray(fieldobj.value(x, y), dtype=float)], axis=-1))


def _records(template: str, rows) -> str:
    """One `template` line per row of `rows`, formatted by a single `%`."""
    return (template * len(rows)) % tuple(rows.ravel().tolist())


def obj_text(mesh: Mesh, polylines=(), comment: str = "") -> str:
    """ASCII OBJ body: v / f plus l records for extra polylines.

    Coordinates are written as "%.17g" of each float, so they read back
    exactly; face and polyline ids are 1-based.
    """
    blocks = ["# %s\n" % part for part in comment.splitlines()]
    blocks.append(_records("v %.17g %.17g %.17g\n", mesh.vertices))
    next_id = len(mesh.vertices) + 1
    poly_records = []
    for poly in polylines:
        poly = np.asarray(poly, dtype=float)
        if not np.all(np.isfinite(poly)):
            raise ValueError("polyline contains non-finite coordinates")
        blocks.append(_records("v %.17g %.17g %.17g\n", poly))
        ids = range(next_id, next_id + len(poly))
        poly_records.append("l %s\n" % " ".join(str(i) for i in ids))
        next_id += len(poly)
    faces = np.asarray(mesh.faces, dtype=np.int64).reshape(-1, 4)
    blocks.append(_records("f %d %d %d %d\n", faces + 1))
    blocks.extend(poly_records)
    return "".join(blocks) or "\n"


def atomic_write_text(path, text: str):
    path = os.fspath(path)
    directory = os.path.dirname(os.path.abspath(path))
    fd, tmp = tempfile.mkstemp(dir=directory, prefix=".tmp-", suffix="~")
    try:
        with os.fdopen(fd, "w", encoding="utf-8") as fh:
            fh.write(text)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def write_obj(mesh: Mesh, path, polylines=(), comment: str = ""):
    atomic_write_text(path, obj_text(mesh, polylines, comment))
