import math
import os
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lagmin.cli import _merge_meshes
from lagmin.fields import EllipticField
from lagmin.meshing import (
    CHUNK,
    Mesh,
    _scaled,
    atomic_write_text,
    grid_axes,
    grid_points,
    mesh_from_grid,
    obj_text,
    surface_mesh,
    write_obj,
)
from lagmin.reconstruct import FieldSurface
from lagmin.surfaces import building_block


def test_grid_axes_shape_and_range():
    u, v = grid_axes((-1.0, 2.0, 0.0, 1.0), (4, 7))
    assert u.shape == (4,) and v.shape == (7,)
    assert u.min() == -1.0 and u.max() == 2.0
    assert v.min() == 0.0 and v.max() == 1.0
    with pytest.raises(ValueError):
        grid_axes((0.0, 1.0, 0.0, 1.0), (1, 5))


def test_mesh_from_grid_drops_cells_touching_invalid_points():
    pts = np.zeros((3, 3, 3))
    pts[..., 0], pts[..., 1] = np.meshgrid(np.arange(3.0), np.arange(3.0))
    ok = np.ones((3, 3), dtype=bool)
    ok[1, 1] = False  # center point kills all four cells
    mesh = mesh_from_grid(pts[ok], ok)
    assert len(mesh.vertices) == 8
    assert len(mesh.faces) == 0
    ok[1, 1] = True
    pts[1, 1, 2] = np.nan  # non-finite points are dropped too
    mesh = mesh_from_grid(pts[ok], ok)
    assert len(mesh.faces) == 0


def test_full_grid_mesh_has_all_quads():
    S = building_block("r5")
    mesh = surface_mesh(S, (-2, 2, -2, 2), (20, 20))
    assert len(mesh.faces) == 19 * 19
    assert np.isfinite(mesh.vertices).all()


def test_guarded_field_mesh_drops_center_cells():
    F = EllipticField(a1=1.0, a3=-1.0).with_guard(0.3)
    S = FieldSurface(F)
    mesh = surface_mesh(S, (-1, 1, -1, 1), (30, 30))
    assert 0 < len(mesh.faces) < 29 * 29
    assert np.isfinite(mesh.vertices).all()


def test_grid_points_are_the_surface_points_at_the_safe_grid_points():
    S = FieldSurface(EllipticField(a1=1.0, a3=-1.0).with_guard(0.3))
    window, shape = (-1, 1, -1, 1), (23, 17)
    pts, ok = grid_points(window, shape, S.is_safe, S.point)
    uu, vv = np.meshgrid(*grid_axes(window, shape))
    assert np.array_equal(ok, S.is_safe(uu, vv))
    assert 0 < np.count_nonzero(ok) < ok.size
    # one row per safe point, in row-major grid order
    rows = [(uu[i, j], vv[i, j]) for i in range(ok.shape[0])
            for j in range(ok.shape[1]) if ok[i, j]]
    assert np.array_equal(pts, S.point(*np.array(rows).T))


def test_non_finite_rows_are_counted_and_dropped():
    S = FieldSurface(EllipticField(a1=1.0, a3=-1.0).with_guard(0.3))

    def points(u, v):
        p = S.point(u, v).copy()
        p[::37, 0] = np.inf
        p[5::41, 2] = np.nan
        p[9::43, 1] = -np.inf
        return p

    pts, ok = grid_points((-1, 1, -1, 1), (23, 17), S.is_safe, points)
    finite = np.isfinite(pts).all(axis=1)
    mesh = mesh_from_grid(pts, ok)
    assert mesh.nonfinite == len(pts) - np.count_nonzero(finite) > 3
    assert np.array_equal(mesh.vertices, pts[finite])


def test_a_window_guarded_everywhere_walks_to_an_empty_mesh():
    S = FieldSurface(EllipticField(a1=1.0, a3=-1.0).with_guard(0.3))

    def points(u, v):
        raise AssertionError("no safe point to evaluate")

    pts, ok = grid_points((-0.1, 0.1, -0.1, 0.1), (5, 4), S.is_safe, points)
    assert pts.shape == (0, 3) and ok.shape == (4, 5) and not ok.any()
    mesh = mesh_from_grid(pts, ok)
    assert mesh.vertices.shape == (0, 3) and mesh.faces.shape == (0, 4)
    assert mesh.nonfinite == 0


def test_chunked_walk_is_one_whole_array_call_bit_for_bit():
    S = FieldSurface(EllipticField(a1=1.0, a3=-1.0).with_guard(0.3))
    window, shape = (-1, 1, -1, 1), (400, 400)
    calls = []

    def holes(u, v):
        # pointwise: a point's holes depend on its (u, v) alone
        p = S.point(u, v).copy()
        s = np.sin(300.0 * u) * np.sin(200.0 * v)
        p[s > 0.999, 0] = np.inf
        p[s < -0.999, 2] = np.nan
        return p

    def points(u, v):
        calls.append((u, v))
        return holes(u, v)

    pts, ok = grid_points(window, shape, S.is_safe, points)
    uu, vv = np.meshgrid(*grid_axes(window, shape))
    n = np.count_nonzero(ok)
    # the safe count is no multiple of CHUNK, and a chunk ends mid-row
    assert n > 2 * CHUNK and n % CHUNK
    rows = np.nonzero(ok)[0]
    assert rows[CHUNK - 1] == rows[CHUNK]
    assert [len(u) for u, _ in calls] == [CHUNK] * (n // CHUNK) + [n % CHUNK]
    assert np.concatenate([u for u, _ in calls]).tobytes() == uu[ok].tobytes()
    assert np.concatenate([v for _, v in calls]).tobytes() == vv[ok].tobytes()
    want = holes(uu[ok], vv[ok])
    assert pts.tobytes() == want.tobytes()
    assert np.isinf(pts).any() and np.isnan(pts).any()


def test_a_walk_that_overflows_warns_nothing():
    S = building_block("r5")

    def points(u, v):
        p = S.point(u, v) * 1e308 * 1e308    # overflow, then inf - inf
        return p - p[:, ::-1]

    pts, ok = grid_points((-2, 2, -2, 2), (300, 300), S.is_safe, points)
    assert len(pts) > CHUNK and not np.isfinite(pts).any()


def test_obj_text_layout():
    mesh = Mesh(
        vertices=np.array([[0.0, 0.0, 0.0], [1.0, 0.0, 0.0], [1.0, 1.0, 0.5], [0.0, 1.0, 0.0]]),
        faces=[(0, 1, 2, 3)],
    )
    txt = obj_text(mesh, polylines=[np.array([[0.0, 0.0, 2.0], [1.0, 1.0, 2.0]])], comment="demo")
    lines = txt.splitlines()
    assert lines[0] == "# demo"
    assert sum(1 for ln in lines if ln.startswith("v ")) == 6
    assert "f 1 2 3 4" in lines
    assert lines[-1].startswith("l ")
    # indices are 1-based and in range
    for ln in lines:
        if ln.startswith(("f ", "l ")):
            idx = [int(t) for t in ln.split()[1:]]
            assert all(1 <= i <= 6 for i in idx)


def test_obj_text_rejects_non_finite_polyline():
    mesh = Mesh(
        vertices=np.zeros((1, 3)),
        faces=[],
    )
    with pytest.raises(ValueError):
        obj_text(mesh, polylines=[np.array([[0.0, 0.0, np.nan]])])


def test_obj_output_is_deterministic(tmp_path):
    S = building_block("r3")
    mesh = surface_mesh(S, (-2, 2, -2, 2), (25, 25))
    p1 = tmp_path / "a.obj"
    p2 = tmp_path / "b.obj"
    write_obj(mesh, str(p1), comment="same")
    write_obj(mesh, str(p2), comment="same")
    assert p1.read_bytes() == p2.read_bytes()


def test_the_atomic_write_leaves_the_umask_alone(tmp_path, monkeypatch):
    ref = tmp_path / "ref.txt"
    with open(ref, "w"):
        pass

    def umask(mask):
        raise AssertionError("os.umask sets the process umask")

    monkeypatch.setattr(os, "umask", umask)
    write_obj(Mesh(np.zeros((1, 3)), []), tmp_path / "out.obj")
    mode = (tmp_path / "out.obj").stat().st_mode & 0o777
    assert mode == ref.stat().st_mode & 0o777


def test_atomic_write_replaces_file(tmp_path):
    target = tmp_path / "out.txt"
    target.write_text("old")
    atomic_write_text(str(target), "new contents\n")
    assert target.read_text() == "new contents\n"
    assert os.listdir(tmp_path) == ["out.txt"]  # no stray temp files


# -- byte identity with the per-line reference layout -----------------


def _reference_obj_text(mesh, polylines=(), comment=""):
    """The OBJ layout written one record at a time, one float at a time."""
    def fmt(x):
        return "%.17g" % float(x)

    lines = ["# " + part for part in comment.splitlines()]
    for p in mesh.vertices:
        lines.append("v %s %s %s" % (fmt(p[0]), fmt(p[1]), fmt(p[2])))
    extra_base = len(mesh.vertices)
    poly_records = []
    for poly in polylines:
        ids = []
        for p in np.asarray(poly, dtype=float):
            lines.append("v %s %s %s" % (fmt(p[0]), fmt(p[1]), fmt(p[2])))
            extra_base += 1
            ids.append(extra_base)
        poly_records.append(ids)
    for quad in mesh.faces:
        lines.append("f %d %d %d %d" % tuple(int(i) + 1 for i in quad))
    for ids in poly_records:
        lines.append("l " + " ".join(str(i) for i in ids))
    return "\n".join(lines) + "\n"


def _reference_faces(ok, index):
    """Quads from a Python loop over the grid cells, row-major."""
    faces = []
    for i in range(ok.shape[0] - 1):
        for j in range(ok.shape[1] - 1):
            if ok[i, j] and ok[i, j + 1] and ok[i + 1, j + 1] and ok[i + 1, j]:
                faces.append((int(index[i, j]), int(index[i, j + 1]),
                              int(index[i + 1, j + 1]), int(index[i + 1, j])))
    return faces


def _guarded_grid_with_nans():
    """(pts, ok) of a guarded grid walk, with non-finite points added."""
    F = EllipticField(a1=1.0, a3=-1.0).with_guard(0.3)
    S = FieldSurface(F)
    u, v = grid_axes((-1, 1, -1, 1), (23, 17))
    uu, vv = np.meshgrid(u, v)
    ok = np.broadcast_to(S.is_safe(uu, vv), uu.shape).copy()
    pts = np.full(ok.shape + (3,), np.nan)
    pts[ok] = S.frame(uu[ok], vv[ok], order=0).r
    pts[3, 5, 1] = np.nan          # non-finite points outside the guard too
    pts[10, 0, 2] = np.inf
    assert not ok.all()
    return pts, ok


def _guarded_mesh_with_nans():
    pts, ok = _guarded_grid_with_nans()
    return mesh_from_grid(pts[ok], ok)


def _empty_mesh(n_vertices):
    return Mesh(vertices=np.arange(3.0 * n_vertices).reshape(-1, 3) / 7.0,
                faces=np.zeros((0, 4), dtype=np.int64))


def test_mesh_from_grid_faces_match_cell_loop():
    pts, ok = _guarded_grid_with_nans()
    mesh = mesh_from_grid(pts[ok], ok)
    assert np.issubdtype(mesh.faces.dtype, np.integer)
    assert mesh.faces.shape == (len(mesh.faces), 4)
    # vertices are the safe, finite points in row-major order
    valid = ok & np.all(np.isfinite(pts), axis=-1)
    index = np.cumsum(valid).reshape(valid.shape) - 1
    assert np.array_equal(mesh.vertices, pts[valid])
    expected = _reference_faces(valid, index)
    assert 0 < len(expected) < 22 * 16
    assert [tuple(int(i) for i in q) for q in mesh.faces] == expected


@pytest.mark.parametrize(
    "make, polylines, comment",
    [
        (_guarded_mesh_with_nans, (), "guarded grid with NaNs"),
        (_guarded_mesh_with_nans, (), "first line\n\nthird line\n"),
        (_guarded_mesh_with_nans,
         (np.array([[0.0, -0.0, 1e-300], [1.5, 2.0 / 3.0, -7.25e17]]),
          np.array([[np.pi, np.e, 0.1], [2.0, 3.0, 4.0], [5.0, 6.0, 7.0]])),
         "two polylines"),
        (lambda: _empty_mesh(4), (), "no faces"),
        (lambda: _empty_mesh(0), (), ""),
    ],
    ids=["nan-grid", "multiline-comment", "two-polylines", "no-faces",
         "empty"],
)
def test_obj_text_matches_reference_bytes(make, polylines, comment):
    mesh = make()
    text = obj_text(mesh, polylines=polylines, comment=comment)
    assert text == _reference_obj_text(mesh, polylines, comment)


def test_obj_text_of_empty_body_is_one_newline():
    assert obj_text(_empty_mesh(0)) == "\n"
    assert _reference_obj_text(_empty_mesh(0)) == "\n"


# -- the vectorised formatter against the reference, value by value ----


def _vertex_mesh(values, faces=()):
    """A mesh whose vertex coordinates are `values`, three to a row."""
    vertices = np.asarray(values, dtype=float).reshape(-1, 3)
    return Mesh(vertices=vertices,
                faces=np.asarray(faces, dtype=np.int64).reshape(-1, 4))


def _assert_reference_bytes(values, faces=(), polylines=()):
    values = list(values)
    values += [0.5] * (-len(values) % 3)
    mesh = _vertex_mesh(values, faces)
    assert (obj_text(mesh, polylines=polylines)
            == _reference_obj_text(mesh, polylines))


_BITS = st.integers(0, 2 ** 64 - 1).map(
    lambda b: float(np.array(b, dtype=np.uint64).view(np.float64)))


@settings(max_examples=200, deadline=None)
@given(st.lists(_BITS.filter(math.isfinite), min_size=1, max_size=60))
def test_any_finite_bit_pattern_matches_the_reference(values):
    _assert_reference_bytes(values)


# sign * 10^t, t uniform: the exponents -4..16 written in fixed notation
_FIXED = st.builds(lambda s, t: s * 10.0 ** t, st.sampled_from((1.0, -1.0)),
                   st.floats(-5.0, 17.5))


@settings(max_examples=200, deadline=None)
@given(st.lists(_FIXED | st.floats(allow_nan=False, allow_infinity=False),
                min_size=1, max_size=60))
def test_fixed_notation_values_match_the_reference(values):
    _assert_reference_bytes(values)


def test_zeros_subnormals_and_non_finite_values_match_the_reference():
    tiny = np.finfo(float).tiny
    _assert_reference_bytes([0.0, -0.0, 5e-324, -5e-324, tiny, -tiny,
                             np.nextafter(tiny, 0.0), 2.5e-310, np.inf,
                             -np.inf, np.nan, np.finfo(float).max])


def test_powers_of_ten_and_their_neighbours_match_the_reference():
    values = []
    for k in range(-5, 18):
        p = float(10.0 ** k)
        values += [p, np.nextafter(p, 0.0), np.nextafter(p, np.inf)]
    values += [-v for v in values]
    _assert_reference_bytes(values)


def _tie(e, q):
    """x = q / 2^(17-e), q odd: x * 10^(16-e) = q * 5^(16-e) / 2, a tie
    between two 17-digit significands of exponent e."""
    return math.ldexp(q, e - 17)


@settings(max_examples=200, deadline=None)
@given(st.data())
def test_exact_ties_round_half_to_even_like_the_reference(data):
    e = data.draw(st.integers(-4, 15))
    five = 5 ** (16 - e)
    lo, hi = -(-2 * 10 ** 16 // five), min(2 * 10 ** 17 // five, 2 ** 53 - 1)
    q = data.draw(st.integers(lo // 2, hi // 2 - 1)) * 2 + 1
    x = _tie(e, q)
    scaled = Fraction(x) * 10 ** (16 - e)
    assert scaled.denominator == 2 and 10 ** 16 <= scaled < 10 ** 17
    _assert_reference_bytes([x, -x, _tie(e, q + 2)])


@settings(max_examples=300, deadline=None)
@given(st.floats(1e-4, 1e17, exclude_max=True), st.integers(-1, 1))
def test_scaled_is_the_exact_product_rounded_half_to_even(a, shift):
    # e is floor(log10 a), moved by `shift` as a bad log10 guess would be
    exact = Fraction(a)
    e = min(max(math.floor(math.log10(a)) + shift, -4), 16)
    m, off = _scaled(np.array([a]), np.array([e]))
    v = exact * 10 ** (16 - e)
    assert off[0] == (v >= 10 ** 17) - (v < 10 ** 16)
    if off[0] == 0:
        assert m[0] == round(v)          # Fraction rounds half to even


def test_scaled_places_products_next_to_a_power_of_ten():
    # float(1e-3) is 1e-3 * (1 + 2.1e-17): the product with the exponent
    # guess one too low is 1e17 + 2.08, so hi == 1e17 and lo > 0
    m, off = _scaled(np.array([1e-3, np.nextafter(1.0, 0.0)]),
                     np.array([-4, 0]))
    assert list(off) == [1, -1]


def test_a_known_tie_rounds_to_the_even_digit():
    assert obj_text(_vertex_mesh([1000000000000000.25, 0.0, 0.0])) \
        .startswith("v 1000000000000000.2 0 0\n")


def test_face_ids_at_each_digit_count_boundary_match_the_reference():
    ids = [i for k in range(1, 8) for i in (10 ** k - 2, 10 ** k - 1)]
    ids += [10 ** 7, 0, 1, 2 ** 62]
    ids += [0] * (-len(ids) % 4)
    _assert_reference_bytes([0.25] * 3, faces=ids)


@settings(max_examples=60, deadline=None)
@given(st.lists(_FIXED, min_size=3, max_size=30),
       st.lists(st.lists(_FIXED, min_size=3, max_size=12), max_size=3),
       st.lists(st.integers(0, 10 ** 9), max_size=20))
def test_meshes_with_and_without_polylines_match_the_reference(
        values, polylines, faces):
    polylines = [np.reshape(p[:len(p) // 3 * 3], (-1, 3)) for p in polylines]
    _assert_reference_bytes(values, faces=faces[:len(faces) // 4 * 4],
                            polylines=polylines)


def test_merge_meshes_offsets_faces_by_vertex_counts():
    a = surface_mesh(building_block("r5"), (-1, 1, -1, 1), (4, 3))
    b = _guarded_mesh_with_nans()
    c = surface_mesh(building_block("r1"), (0.5, 1, 0.5, 1), (3, 5))
    merged = _merge_meshes([(a, 0.0), (b, 6.0), (c, 12.0)])
    na, nb = len(a.vertices), len(b.vertices)
    assert np.issubdtype(merged.faces.dtype, np.integer)
    assert np.array_equal(
        merged.faces, np.concatenate([a.faces, b.faces + na, c.faces + na + nb])
    )
    assert np.array_equal(merged.vertices[na:na + nb, 0], b.vertices[:, 0] + 6.0)
    assert len(merged.vertices) == na + nb + len(c.vertices)
