"""Grid meshing of parametrized surfaces and ASCII OBJ output.

The masked grid walk (`grid_points`) evaluates a surface at the safe
points of a regular parameter grid, CHUNK points per call so that its
jets stay cache-sized, and returns them as (n, 3) rows in row-major
order with the grid's guard mask; overflow and invalid values come back
as non-finite rows, unwarned.  Every surface's `point` is pointwise, so
the rows are the bits of one whole-array call.  `mesh_from_grid` turns
them into vertices and quads: a cell touching a guarded or non-finite
point is dropped, and `Mesh.nonfinite` counts the safe points dropped as
non-finite.  Cone tangency uses the walk alone and searches its gaps in
chunks of the same size.  OBJ output is plain `v`/`f` with optional `l`
polylines, written atomically (temp file + rename) so a crashed run
never leaves a half-written mesh behind.

OBJ text is formatted a few thousand records at a time in numpy, and
every byte is the byte that `"%.17g" % x` (coordinates) or `"%d" % i`
(face ids) writes.  A record is assembled as uint32 words of text bytes,
with 0 bytes as padding that is deleted before decoding.  Integers are
4-digit groups read from a table.  A float x with 1e-4 <= |x| < 1e17 is
written from its 17 significant digits M and its decimal exponent e,
using float64 and int64 arithmetic only, so the bytes do not depend on
the platform's long double:

- e starts as floor(log10|x|).  10^(16-e) is exact in float64 for
  16 - e <= 22, and Dekker's two-product writes |x|*10^(16-e) exactly as
  hi + lo.  The exact product lies in [1e16, 1e17) iff hi > 1e16, or
  hi == 1e16 and lo >= 0 (likewise at 1e17); otherwise e moves by one and
  the product is formed again.
- There hi >= 2^53 is an integer, so M = hi + floor(lo), plus 1 when
  lo - floor(lo) > 0.5, or == 0.5 with M odd: the product rounded half
  to even, exactly.  M = 10^17 would carry into e + 1, but no double in
  this range lies within half a unit of the 17th digit below a power of
  ten (their spacing is at least 2^-53 relative, more than 5e-18).
- With -4 <= e <= 16, "%.17g" is fixed notation: the integer part
  M // 10^(16-e), then the point and the fraction digits with trailing
  zeros stripped (no point when none are left).

Every other element is written by `%` itself, one at a time: zeros,
|x| < 1e-4, |x| >= 1e17, non-finite values, and any element whose
exponent does not settle in one move or whose M carries.
"""

from __future__ import annotations

import os
from dataclasses import dataclass

import numpy as np


@dataclass
class Mesh:
    vertices: np.ndarray            # (n, 3) valid vertices, row-major grid order
    faces: np.ndarray               # (n, 4) int64 array of 0-based quad vertex ids
    nonfinite: int = 0              # safe points dropped as non-finite


def grid_axes(window, shape):
    u0, u1, v0, v1 = (float(t) for t in window)
    nu, nv = int(shape[0]), int(shape[1])
    if nu < 2 or nv < 2:
        raise ValueError("grid must be at least 2x2")
    return np.linspace(u0, u1, nu), np.linspace(v0, v1, nv)


CHUNK = 32768       # points per evaluation or gap pass: they stay in cache


def finite_rows(pts):
    """Mask of the rows of the (n, 3) array `pts` that are all finite."""
    x, y, z = pts.T
    return np.isfinite(x) & np.isfinite(y) & np.isfinite(z)


def mesh_from_grid(pts, ok) -> Mesh:
    """Assemble a Mesh from the grid walk's rows and the grid's mask.

    `pts` holds one (x, y, z) row per point where the (rows, cols) mask
    `ok` holds, in row-major order.  The vertices are the finite rows; a
    quad is emitted only when all four corners are safe and finite.
    """
    finite = finite_rows(pts)
    kept = int(np.count_nonzero(finite))
    valid = np.zeros(ok.shape, dtype=bool)
    valid[ok] = finite
    index = np.full(ok.shape, -1, dtype=np.int64)
    index[valid] = np.arange(kept)
    cell = valid[:-1, :-1] & valid[:-1, 1:] & valid[1:, 1:] & valid[1:, :-1]
    i, j = np.nonzero(cell)
    faces = np.stack(
        [index[i, j], index[i, j + 1], index[i + 1, j + 1], index[i + 1, j]],
        axis=-1,
    )
    return Mesh(pts[finite], faces, len(pts) - kept)


def grid_points(window, shape, is_safe, points):
    """The masked grid walk: `(pts, ok)` over the N x M grid of `window`.

    `ok` is is_safe on the (rows, cols) grid, and `pts` the (n, 3) array
    points(u, v) at its n safe points, in row-major order.  `points` maps
    flat parameter arrays to (k, 3) points, one per (u, v) pair, and is
    called on consecutive slices of at most CHUNK safe points (never when
    none is safe); overflow and invalid values show as non-finite rows.
    """
    u, v = grid_axes(window, shape)
    uu, vv = np.meshgrid(u, v)
    with np.errstate(over="ignore", invalid="ignore"):
        ok = is_safe(uu, vv)
        us, vs = uu[ok], vv[ok]
        pts = np.empty((len(us), 3))
        for start in range(0, len(us), CHUNK):
            end = start + CHUNK
            pts[start:end] = points(us[start:end], vs[start:end])
    return pts, ok


def grid_mesh(window, shape, is_safe, points) -> Mesh:
    """Mesh of points(u, v) over the valid points of the grid of `window`."""
    return mesh_from_grid(*grid_points(window, shape, is_safe, points))


def surface_mesh(surface, window=None, shape=(100, 100)) -> Mesh:
    """Evaluate the surface on an N x M grid and assemble valid quads."""
    if window is None:
        window = surface.default_window
    return grid_mesh(window, shape, surface.is_safe, surface.point)


# -- OBJ text -----------------------------------------------------------

_BLOCK_ROWS = 4096      # records formatted per numpy pass


def _words(text: str) -> np.ndarray:
    """ASCII text as uint32 words, four bytes each, in text order."""
    return np.frombuffer(text.encode("ascii"), dtype=np.uint32)


def _group_table() -> np.ndarray:
    digits = np.indices((10,) * 4, dtype=np.uint8).reshape(4, -1).T
    zero = digits == 0
    lead = np.logical_and.accumulate(zero, axis=1)
    last = lead.copy()
    last[:, 3] = False
    trail = np.logical_and.accumulate(zero[:, ::-1], axis=1)[:, ::-1]
    full = digits + np.uint8(ord("0"))
    table = np.concatenate([full] + [np.where(pad, np.uint8(0), full)
                                     for pad in (lead, last, trail)])
    return table.view(np.uint32).ravel()


# The text of each 4-digit group g as a word, at g + one of the offsets:
# all four digits, leading zeros as padding, the same but "0" for g = 0,
# trailing zeros as padding.
_GROUPS = _group_table()
_FULL, _LEAD, _LAST, _TRAIL = (k * 10000 for k in range(4))
_SIGN = _words(" \0\0\0" " -\0\0")     # field separator and sign
_POINT = _words("\0\0\0\0" "\0\0\0.")
_POW10 = 10.0 ** np.arange(21)
_IPOW10 = 10 ** np.arange(19, dtype=np.int64)


def _groups(v, count):
    """The `count` 4-digit groups of v, most significant first."""
    out = [None] * count
    for k in range(count - 1, 0, -1):
        q = v // 10000
        out[k] = v - q * 10000
        v = q
    out[0] = v
    return out


def _lead_stripped(groups):
    """Words of an integer's groups, leading zeros as padding."""
    zero = np.ones(groups[0].shape, dtype=bool)
    out = []
    for k, g in enumerate(groups):
        strip = _LAST if k == len(groups) - 1 else _LEAD
        out.append(_GROUPS.take(g + np.where(zero, strip, _FULL)))
        zero &= g == 0
    return out


def _trail_stripped(groups):
    """Words of a fraction's groups, trailing zeros as padding."""
    zero = np.ones(groups[0].shape, dtype=bool)
    out = [None] * len(groups)
    for k in range(len(groups) - 1, -1, -1):
        out[k] = _GROUPS.take(groups[k] + np.where(zero, _TRAIL, _FULL))
        zero &= groups[k] == 0
    return out


def _group_count(v) -> int:
    return -(-len(str(int(v.max()))) // 4)


def _scaled(a, e):
    """(M, off): a*10^(16-e) rounded half to even, and -1, 0 or 1 as the
    exact product is below 1e16, in [1e16, 1e17) or above."""
    b = _POW10[16 - e]
    hi = a * b
    c = a * 134217729.0                  # Veltkamp splits, 2^27 + 1
    ah = c - (c - a)
    al = a - ah
    c = b * 134217729.0
    bh = c - (c - b)
    bl = b - bh
    lo = ((ah * bh - hi) + ah * bl + al * bh) + al * bl
    floor = np.floor(lo)
    frac = lo - floor
    m = hi.astype(np.int64) + floor.astype(np.int64)
    m += (frac > 0.5) | ((frac == 0.5) & (m & 1 == 1))
    off = ((hi > 1e17) | ((hi == 1e17) & (lo >= 0))).astype(np.int64)
    off -= (hi < 1e16) | ((hi == 1e16) & (lo < 0))
    return m, off


def _significands(a):
    """(M, e, fast) for |x| = a: "%.17g" writes M's digits with exponent
    e in fixed notation wherever `fast` holds."""
    fast = (a >= 1e-4) & (a < 1e17)
    a = np.where(fast, a, 1.0)
    e = np.clip(np.floor(np.log10(a)), -4, 16).astype(np.int64)
    m, off = _scaled(a, e)
    redo = np.flatnonzero(off)
    if len(redo):                        # log10 was one off
        e[redo] = np.clip(e[redo] + off[redo], -4, 16)
        m[redo], off[redo] = _scaled(a[redo], e[redo])
    # M = 10^17 would carry into e + 1; no double in this range rounds so
    # near a power of ten, but it and an unsettled e are left to `%`
    fast &= (off == 0) & (m < 10 ** 17)
    return m, e, fast


def _float_words(x):
    """Word columns of " %.17g" for each x."""
    m, e, fast = _significands(np.abs(x))
    p = _IPOW10[np.minimum(16 - e, 17)]
    whole = m // p
    rest = m - whole * p
    # the 20 fraction digits rest * 10^(4+e) as high * 10^12 + low
    d = _IPOW10[np.maximum(8 - e, 0)]
    high = rest // d
    low = (rest - high * d) * _IPOW10[np.minimum(4 + e, 12)]
    high *= _IPOW10[np.maximum(e - 8, 0)]
    words = [_SIGN.take(np.signbit(x).view(np.uint8))]
    words += _lead_stripped(_groups(whole, _group_count(whole)))
    words.append(_POINT.take(((high | low) != 0).view(np.uint8)))
    words += _trail_stripped(_groups(high, 2) + _groups(low, 3))
    slow = np.flatnonzero(~fast)
    if len(slow):
        own = "".join((" %.17g" % v).ljust(4 * len(words), "\0")
                      for v in x[slow].tolist())
        for word, column in zip(words, _words(own).reshape(slow.size, -1).T):
            word[slow] = column
    return words


def _int_words(v):
    """Word columns of " %d" for each v."""
    mag = np.abs(v).view(np.uint64)      # |-2^63| too
    groups = _groups(mag, _group_count(mag))
    return ([_SIGN.take((v < 0).view(np.uint8))]
            + _lead_stripped([g.astype(np.int64) for g in groups]))


def _records(tag: str, rows, words) -> list:
    """Text pieces of one `tag` line per row of the 2-D array `rows`, its
    elements written as the word columns `words(x)` gives."""
    head, tail = _words(tag + "\0\0\0\n\0\0\0")
    out = []
    for start in range(0, len(rows), _BLOCK_ROWS):
        block = rows[start:start + _BLOCK_ROWS]
        n, k = block.shape
        columns = words(block.ravel())
        text = np.empty((n, k * len(columns) + 2), dtype=np.uint32)
        text[:, 0] = head
        text[:, -1] = tail
        fields = text[:, 1:-1].reshape(n, k, len(columns))
        for c, column in enumerate(columns):
            fields[:, :, c] = column.reshape(n, k)
        out.append(text.tobytes().translate(None, b"\0").decode("ascii"))
    return out


def obj_text(mesh: Mesh, polylines=(), comment: str = "") -> str:
    """ASCII OBJ body: v / f plus l records for extra polylines.

    Coordinates are written as "%.17g" of each float, so they read back
    exactly; face and polyline ids are 1-based.
    """
    blocks = ["# %s\n" % part for part in comment.splitlines()]
    vertices = np.asarray(mesh.vertices, dtype=float)
    blocks += _records("v", vertices, _float_words)
    next_id = len(vertices) + 1
    poly_records = []
    for poly in polylines:
        poly = np.asarray(poly, dtype=float)
        if not np.all(np.isfinite(poly)):
            raise ValueError("polyline contains non-finite coordinates")
        blocks += _records("v", poly, _float_words)
        ids = range(next_id, next_id + len(poly))
        poly_records.append("l %s\n" % " ".join(str(i) for i in ids))
        next_id += len(poly)
    faces = np.asarray(mesh.faces, dtype=np.int64).reshape(-1, 4)
    blocks += _records("f", faces + 1, _int_words)
    blocks.extend(poly_records)
    return "".join(blocks) or "\n"


def atomic_write_text(path, text: str):
    path = os.fspath(path)
    directory = os.path.dirname(os.path.abspath(path))
    tmp = os.path.join(directory, ".tmp-%s~" % os.urandom(8).hex())
    # made as open() makes a new file: the kernel applies the umask
    fd = os.open(tmp, os.O_WRONLY | os.O_CREAT | os.O_EXCL, 0o666)
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
