"""Command-line behavior: exit codes, reports, OBJ hygiene."""
import contextlib
import hashlib
import io
import json
import os
import subprocess
import sys
import warnings
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import lagmin.cli
from lagmin import BLOCK_NAMES
from lagmin.cli import _keep_freed_memory, _merge_meshes, main
from lagmin.errors import IdealImage, NonImmersed
from lagmin.fields import EllipticField
from lagmin.grammar import parse_surface
from lagmin.meshing import Mesh, grid_mesh
from lagmin.reconstruct import isotropic_image


def read_obj(path):
    verts, faces, polys = [], [], []
    for line in path.read_text().splitlines():
        if line.startswith("v "):
            verts.append([float(t) for t in line.split()[1:]])
        elif line.startswith("f "):
            faces.append([int(t) for t in line.split()[1:]])
        elif line.startswith("l "):
            polys.append([int(t) for t in line.split()[1:]])
    return np.array(verts), faces, polys


def test_generate_block_obj(tmp_path):
    out = tmp_path / "plucker.obj"
    code = main(
        [
            "generate",
            "--surface",
            "r3",
            "--grid",
            "100x100",
            "--range",
            "-2,2,-2,2",
            "-o",
            str(out),
        ]
    )
    assert code == 0
    verts, faces, _ = read_obj(out)
    assert 0 < len(verts) <= 10**4
    assert np.isfinite(verts).all()
    assert faces


def test_generate_is_deterministic(tmp_path):
    argv = [
        "generate",
        "--surface",
        "conv(1.0*r1, 0.5*r3)",
        "--grid",
        "40x40",
        "--range",
        "-2,2,-2,2",
    ]
    a = tmp_path / "a.obj"
    b = tmp_path / "b.obj"
    assert main(argv + ["-o", str(a)]) == 0
    assert main(argv + ["-o", str(b)]) == 0
    assert a.read_bytes() == b.read_bytes()


def test_usage_errors_print_grammar(tmp_path, capsys):
    out = tmp_path / "x.obj"
    code = main(
        ["generate", "--surface", "r99", "--grid", "10x10", "--range", "-1,1,-1,1", "-o", str(out)]
    )
    assert code == 2
    captured = capsys.readouterr()
    assert "surface spec grammar" in (captured.err + captured.out).lower()
    assert not out.exists()


def test_bad_grid_and_missing_args_are_usage_errors(tmp_path):
    out = tmp_path / "x.obj"
    assert (
        main(["generate", "--surface", "r1", "--grid", "1x1", "--range", "-1,1,-1,1", "-o", str(out)])
        == 2
    )
    assert main(["generate", "--surface", "r1"]) == 2
    assert main(["nonsense"]) == 2
    assert main([]) == 2


def test_verify_reports_pass(tmp_path):
    rep = tmp_path / "r.json"
    code = main(
        [
            "verify",
            "--surface",
            "field:elliptic(a1=1,a3=-1)",
            "--checks",
            "biharmonic,gaussmap",
            "--seed",
            "7",
            "--report",
            str(rep),
        ]
    )
    assert code == 0
    records = json.loads(rep.read_text())
    assert [r["check"] for r in records] == ["biharmonic", "gaussmap-identity"]
    assert all(r["pass"] for r in records)


def test_verify_failure_still_writes_report(tmp_path):
    rep = tmp_path / "r.json"
    code = main(
        [
            "verify",
            "--surface",
            "field:poly(x^4)",
            "--checks",
            "biharmonic",
            "--report",
            str(rep),
        ]
    )
    assert code == 1
    records = json.loads(rep.read_text())
    assert records[0]["pass"] is False


def test_verify_r6_biharmonic_at_seed_with_float64_noise():
    assert main(["verify", "--surface", "r6", "--checks", "biharmonic", "--seed", "1"]) == 0


def test_verify_ruling_and_tangency_checks():
    assert main(["verify", "--surface", "conv(1.0*r1, 0.5*r3)", "--checks", "ruling"]) == 0
    assert main(["verify", "--surface", "r5", "--checks", "tangency"]) == 0


@pytest.mark.parametrize("checks, message", [
    ("sanity", "unknown check 'sanity' (allowed: "),
    ("biharmonic,gaussmap,biharmonic",
     "check 'biharmonic' is named more than once\n"),
    # a verify that checks nothing would pass with an empty report
    (",", "--checks wants a comma list from: "),
], ids=["unknown", "twice", "empty"])
def test_a_bad_check_list_is_a_usage_error(tmp_path, capsys, checks, message):
    rep = tmp_path / "r.json"
    code = main(["verify", "--surface", "r1", "--checks", checks,
                 "--report", str(rep)])
    assert code == 2
    assert capsys.readouterr().err.startswith("usage error: " + message)
    assert not rep.exists()


def test_config_overrides_tolerance(tmp_path):
    cfg = tmp_path / "tols.cfg"
    cfg.write_text("# loose for a deliberately failing field\nbiharmonic = 1e6\n")
    code = main(
        [
            "verify",
            "--surface",
            "field:poly(x^4)",
            "--checks",
            "biharmonic",
            "--config",
            str(cfg),
        ]
    )
    assert code == 0
    cfg.write_text("typo = 1\n")
    assert (
        main(
            [
                "verify",
                "--surface",
                "field:poly(x^4)",
                "--checks",
                "biharmonic",
                "--config",
                str(cfg),
            ]
        )
        == 2
    )


def test_classify_pencil_concentric(tmp_path, capsys):
    src = tmp_path / "circles.json"
    src.write_text(
        '{"center":[0,0],"radius":1}\n'
        '{"center":[0,0],"radius":2}\n'
        '{"a":1,"b":0,"c":0,"d":-9}\n'
    )
    rep = tmp_path / "out.json"
    code = main(["classify-pencil", "--input", str(src), "--report", str(rep)])
    assert code == 0
    assert "tag: hyperbolic" in capsys.readouterr().out
    record = json.loads(rep.read_text())
    assert record["tag"] == "hyperbolic"


@pytest.mark.parametrize("umask, mode", [(0o022, 0o644), (0o077, 0o600)],
                         ids=["022", "077"])
def test_outputs_get_the_mode_open_gives_a_new_file(tmp_path, umask, mode):
    # the atomic write's temporary file is made 0600, and the output must
    # not keep that mode
    src = tmp_path / "circles.json"
    src.write_text("".join('{"center":[0,0],"radius":%d}\n' % r
                           for r in (1, 2, 3)))
    runs = [["generate", "--surface", "r1", "--grid", "4x4",
             "--range", "0.5,1,0.5,1", "-o"],
            ["verify", "--surface", "r1", "--checks", "ruling", "--report"],
            ["classify-pencil", "--input", str(src), "--report"]]
    old = os.umask(umask)
    try:
        for k, argv in enumerate(runs):
            assert main(argv + [str(tmp_path / ("out%d" % k))]) == 0
    finally:
        os.umask(old)
    for k in range(len(runs)):
        assert (tmp_path / ("out%d" % k)).stat().st_mode & 0o777 == mode


def test_classify_pencil_missing_file_is_usage_error(tmp_path):
    assert main(["classify-pencil", "--input", str(tmp_path / "nope.json")]) == 2


def test_isotropic_graph_heights(tmp_path):
    out = tmp_path / "graph.obj"
    code = main(
        [
            "isotropic",
            "--surface",
            "field:elliptic(a1=1,a3=-1)",
            "-o",
            str(out),
        ]
    )
    assert code == 0
    verts, _, _ = read_obj(out)
    F = EllipticField(a1=1.0, a3=-1.0)
    assert np.isfinite(verts).all()
    for x, y, z in verts[:: max(1, len(verts) // 25)]:
        assert abs(z - F.value(x, y)) < 1e-8


def _per_point_images(S, u, v):
    """Reference images: each grid point mapped alone as a scalar, NaN
    where that raises because its tangent plane is undefined or maps to
    the ideal line."""
    vals = np.full((u.size, 3), np.nan)
    for i in range(u.size):
        try:
            vals[i] = isotropic_image(S, float(u[i]), float(v[i])).coords()
        except (NonImmersed, IdealImage):
            pass
    return vals


# (dropped points, sha256 of the OBJ under numpy 2.4.6, made by the
# per-point reference): the dropped tangent planes map to the ideal line;
# r2's pinned image drops undefined ones
_PARTIAL_DROPS = {
    "ruled(0,0,0,0)": (5000, "29c06860d078316a3155ae2247b984e7"
                             "65d8d08aec93a9672f4739e27d143a89"),
    "ruled(1,0,0,0)": (5030, "308721cf48c35169284953a144cffe68"
                             "cd75b039594a0a36fddb75220e5a5ce0"),
}


@pytest.mark.parametrize("spec", sorted(_PARTIAL_DROPS))
def test_isotropic_drops_the_points_a_per_point_loop_drops(tmp_path, capfd,
                                                           spec):
    dropped, digest = _PARTIAL_DROPS[spec]
    out = tmp_path / "iso.obj"
    assert main(["isotropic", "--surface", spec, "-o", str(out)]) == 0
    assert capfd.readouterr().err == ("note: dropped %d grid point(s) with "
                                      "non-finite coordinates\n" % dropped)
    S = parse_surface(spec)
    ref = grid_mesh(S.default_window, (100, 100), S.is_safe,
                    lambda u, v: _per_point_images(S, u, v))
    assert ref.nonfinite == dropped
    verts, faces, _ = read_obj(out)
    assert np.array_equal(verts, ref.vertices)
    assert faces == (ref.faces + 1).tolist()
    if np.__version__ == "2.4.6":
        assert hashlib.sha256(out.read_bytes()).hexdigest() == digest


def test_ruled_command_emits_ruling_polylines(tmp_path):
    out = tmp_path / "ruled.obj"
    code = main(
        [
            "ruled",
            "--A",
            "0",
            "--B",
            "0",
            "--C",
            "0",
            "--D",
            "0.5",
            "--phi-range",
            "-3,3",
            "--lambda-range",
            "-2,2",
            "--grid",
            "30x30",
            "-o",
            str(out),
        ]
    )
    assert code == 0
    verts, faces, polys = read_obj(out)
    assert len(polys) == 9
    assert np.isfinite(verts).all()
    # every polyline vertex index must resolve
    for poly in polys:
        for idx in poly:
            assert 1 <= idx <= len(verts)


_RULED = ["ruled", "--A", "0", "--B", "0", "--C", "0", "--D", "0.5",
          "--lambda-range", "-2,2", "--grid", "10x10"]
_GENERATE = ["generate", "--grid", "10x10"]


@pytest.mark.parametrize(
    "argv",
    [
        _GENERATE + ["--surface", "r3@theta=1e400", "--range", "0,1,0,1"],
        _GENERATE + ["--surface", "r3@theta=-1e999", "--range", "0,1,0,1"],
        _GENERATE + ["--surface", "conv(1e400*r1, 0.5*r3)",
                     "--range", "0,1,0,1"],
        _GENERATE + ["--surface", "field:poly(1e400*x^2)",
                     "--range", "0,1,0,1"],
        _GENERATE + ["--surface", "field:poly(1e200*1e200*x + y)",
                     "--range", "0,1,0,1"],
        _GENERATE + ["--surface", "field:elliptic(a1=1e400)",
                     "--range", "0,1,0,1"],
        _GENERATE + ["--surface", "field:sum(1e400*poly(x))",
                     "--range", "0,1,0,1"],
        _GENERATE + ["--surface", "r1", "--range", "nan,1,0,1"],
        _GENERATE + ["--surface", "r1", "--range", "0,1,0,1e400"],
        _GENERATE + ["--surface", "r1", "--range", "-inf,1,0,1"],
        _RULED + ["--phi-range", "0,nan"],
        _RULED[:2] + ["inf"] + _RULED[3:] + ["--phi-range", "0,1"],
        _RULED[:8] + ["nan"] + _RULED[9:] + ["--phi-range", "0,1"],
        # a2 is alpha2/2, and 2·1e308 overflows
        _GENERATE + ["--surface", "field:hyperbolic(a2=1e308)",
                     "--range", "-2,2,-2,2"],
    ],
)
def test_non_finite_numbers_are_usage_errors(tmp_path, capsys, argv):
    out = tmp_path / "x.obj"
    assert main(argv + ["-o", str(out)]) == 2
    assert "Traceback" not in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize(
    "argv",
    [
        _GENERATE + ["--surface", "r1", "--range", "-inf,1,0,1"],
        _GENERATE + ["--surface", "r1", "--range", "-nan,1,0,1"],
        _RULED + ["--phi-range", "-inf,1"],
        _RULED[:2] + ["-inf"] + _RULED[3:] + ["--phi-range", "0,1"],
    ],
)
def test_negative_non_finite_values_are_read_as_values(tmp_path, capsys, argv):
    # a leading "-inf"/"-nan" is a value, not an option: the usage error
    # names the finite-number rule
    assert main(argv + ["-o", str(tmp_path / "x.obj")]) == 2
    assert "finite" in capsys.readouterr().err


@pytest.mark.parametrize("check, spec, guard", [
    # poly(x) reconstructs to a point: no sample survives either check
    pytest.param("gaussmap", "field:poly(x)", None, id="gaussmap"),
    pytest.param("stationarity", "field:poly(x)", None, id="stationarity"),
    # r2 is nowhere immersed, rotated or in a convolution alike
    *(pytest.param("gaussmap", spec, None, id="gaussmap-" + spec)
      for spec in ("r2", "r2@theta=0.3", "conv(1*r2)")),
    # the guard masks the whole sampling window
    pytest.param("biharmonic", "r1", "10", id="biharmonic-guarded"),
    # the ring band masks R5's whole plan window
    pytest.param("tangency", "r5", "0.3", id="tangency-guarded"),
])
def test_check_without_samples_fails(tmp_path, check, spec, guard):
    rep = tmp_path / "r.json"
    argv = ["verify", "--surface", spec, "--checks", check,
            "--report", str(rep)]
    if guard is not None:
        cfg = tmp_path / "g.cfg"
        cfg.write_text("guard=%s\n" % guard)
        argv += ["--config", str(cfg)]
    assert main(argv) == 1
    records = json.loads(rep.read_text())
    assert records[0]["samples"] == 0 and records[0]["pass"] is False


@pytest.mark.parametrize("spec", ["ruled(1,0.5,0.3,0.2)", "ruled(0,0,0,0)"])
def test_gaussmap_refuses_surfaces_not_in_gauss_coordinates(capsys, spec):
    # (phi, lambda) are not Gauss coordinates: no round trip to measure
    code = main(["verify", "--surface", spec, "--checks", "gaussmap"])
    err = capsys.readouterr().err
    assert code == 2
    assert err.startswith("error: ProvenanceMismatch") and err.count("\n") == 1


@pytest.mark.parametrize("line", ["biharmonic=nan", "guard=inf", "guard=-1",
                                  "gaussmap=0", "guard=abc"])
def test_config_values_must_be_finite_and_positive(tmp_path, capsys, line):
    cfg = tmp_path / "c.cfg"
    cfg.write_text(line + "\n")
    out = tmp_path / "x.obj"
    code = main(["generate", "--surface", "r1", "--grid", "10x10",
                 "--range", "-2,2,-2,2", "--config", str(cfg), "-o", str(out)])
    assert code == 2
    assert "config line 1" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("record", [
    '{"center":[0,0],"radius":NaN}',
    '{"center":[0,0],"radius":Infinity}',
    '{"center":[0],"radius":1}',
    '{"center":"origin","radius":1}',
    '{"center":[0,0,0],"radius":1}',
    '{"center":[1e200,0],"radius":1}',
    '{"a":1,"b":true,"c":0,"d":-1}',
    '{"a":1,"b":"0","c":0,"d":-1}',
    '[1,2]',
    '{"a":1',
])
def test_malformed_circle_records_are_usage_errors(tmp_path, capsys, record):
    src = tmp_path / "circles.json"
    src.write_text('{"center":[0,0],"radius":1}\n%s\n'
                   '{"center":[0,0],"radius":2}\n' % record)
    code = main(["classify-pencil", "--input", str(src)])
    err = capsys.readouterr().err
    assert code == 2
    assert "bad circles file: line 2:" in err and "Traceback" not in err


@pytest.mark.parametrize("spec", ["r1", "r3@theta=0.5", "r1~",
                                  "conv(1*r1,0.5*r3@theta=0.2)"])
def test_config_guard_reaches_every_block_spec(tmp_path, spec):
    cfg = tmp_path / "g.cfg"
    cfg.write_text("guard=0.5\n")
    argv = ["generate", "--surface", spec, "--grid", "21x21",
            "--range", "-2,2,-2,2", "-o"]
    assert main(argv + [str(tmp_path / "plain.obj")]) == 0
    assert main(argv + [str(tmp_path / "guarded.obj"),
                        "--config", str(cfg)]) == 0
    _, plain, _ = read_obj(tmp_path / "plain.obj")
    _, guarded, _ = read_obj(tmp_path / "guarded.obj")
    assert 0 < len(guarded) < len(plain)


@pytest.mark.parametrize("spec", ["r1", "conv(1*r1,0.5*r3)"])
def test_a_guard_that_masks_the_window_leaves_an_empty_mesh(tmp_path, spec):
    # a block and a convolution of blocks alike: every point is masked
    cfg = tmp_path / "g.cfg"
    cfg.write_text("guard=100\n")
    out = tmp_path / "x.obj"
    assert main(["generate", "--surface", spec, "--grid", "10x10",
                 "--range", "-2,2,-2,2", "--config", str(cfg),
                 "-o", str(out)]) == 0
    lines = out.read_text().splitlines()
    assert lines and all(line.startswith("#") for line in lines)


def test_config_guard_reaches_convolution_field_checks(tmp_path):
    cfg = tmp_path / "g.cfg"
    cfg.write_text("guard=0.5\n")
    argv = ["verify", "--surface", "conv(1*r1,0.5*r3)", "--checks",
            "biharmonic", "--report"]
    assert main(argv + [str(tmp_path / "plain.json")]) == 0
    assert main(argv + [str(tmp_path / "guarded.json"),
                        "--config", str(cfg)]) == 0
    plain = json.loads((tmp_path / "plain.json").read_text())[0]
    guarded = json.loads((tmp_path / "guarded.json").read_text())[0]
    assert guarded["max_residual"] != plain["max_residual"]


_JSON_SCALARS = (st.floats() | st.integers() | st.booleans() | st.none()
                 | st.text(max_size=3))
_CIRCLE_RECORDS = (
    st.fixed_dictionaries({"center": st.lists(_JSON_SCALARS, max_size=3),
                           "radius": _JSON_SCALARS})
    | st.fixed_dictionaries({k: _JSON_SCALARS for k in "abcd"})
    | st.fixed_dictionaries({"center": st.lists(st.floats(-3, 3), min_size=2,
                                                max_size=2),
                             "radius": st.floats(0.1, 3)})
    | _JSON_SCALARS
    | st.lists(_JSON_SCALARS, max_size=2)
)
_CONFIG_VALUES = (st.floats().map(repr) | st.integers().map(str)
                  | st.text(alphabet="0123456789.-+einfa ", max_size=6))
# branches whose k*pi overflows a float, and small ones that run
_BRANCH_EDGES = (10**400, -(10**400), 10**308, -(10**308), 3, -3)
_NUMBERS = (st.integers(-3, 3).map(str) | st.floats().map(repr)
            | st.sampled_from(["1e400", "-1e999", "1e300", ".5", "-0"]))
_BLOCKS = st.builds("{}{}".format, st.sampled_from(BLOCK_NAMES),
                    st.just("") | _NUMBERS.map("@theta={}".format))
_LEAF_FIELDS = (st.sampled_from(["poly(x^2*y-0.5*x+3)", "poly(x^4)",
                                 "poly(x^99999)", "elliptic(a1=1,a3=-1)",
                                 "hyperbolic(a2=0.3,c1=0.4,alpha1=1)"])
                | _NUMBERS.map("parabolic(alpha0={},gamma3=0.1)".format)
                | _NUMBERS.map("poly({}*x^2)".format))


def _nested(leaf, weight, depth):
    return "sum(%s*" % weight * depth + leaf + ")" * depth


# sum(...) nests a few levels, or 500 to 1100 deep: past the stack of the
# jet or of the parser
_FIELDS = (st.builds(_nested, _LEAF_FIELDS, _NUMBERS, st.integers(0, 3))
           | st.builds(_nested, _LEAF_FIELDS, st.just("1"),
                       st.sampled_from([500, 1000, 1100])))


_SPECS = (
    _BLOCKS
    | st.lists(st.tuples(_NUMBERS, _BLOCKS), min_size=1, max_size=3).map(
        lambda terms: "conv(%s)" % ",".join("%s*%s" % t for t in terms))
    | _FIELDS.map("field:{}".format)
    | st.lists(_NUMBERS, min_size=4, max_size=4).map(
        lambda c: "ruled(%s)" % ",".join(c))
    | st.text(alphabet="r1~@theta=(),*.field:sum", max_size=12)
)


def _strict_json(text):
    def refuse(name):
        raise ValueError("%s is not JSON" % name)
    return json.loads(text, parse_constant=refuse)


@settings(max_examples=40, deadline=None)
@given(seed=st.integers(-(10**20), 10**20),
       key=st.sampled_from(["biharmonic", "guard"]), value=_CONFIG_VALUES,
       records=st.lists(_CIRCLE_RECORDS, max_size=4),
       spec=_SPECS, check=st.sampled_from(lagmin.cli.CHECK_NAMES),
       branch=st.integers() | st.sampled_from(_BRANCH_EDGES))
def test_seeds_configs_and_circle_files_keep_the_exit_contract(
        tmp_path_factory, seed, key, value, records, spec, check, branch):
    # and spec strings, checks and branches: any argv exits 0, 1 or 2
    # without a traceback, and every report it writes is strict JSON
    work = tmp_path_factory.mktemp("fuzz")
    (work / "c.cfg").write_text("%s=%s\n" % (key, value))
    (work / "circles.json").write_text(
        "".join(json.dumps(r) + "\n" for r in records))
    reports = [work / "r1.json", work / "spec.json", work / "pencil.json"]
    runs = [["verify", "--surface", "r1", "--checks", "biharmonic",
             "--seed", str(seed), "--config", str(work / "c.cfg"),
             "--report", str(reports[0])],
            ["generate", "--surface", "r1", "--grid", "12x9",
             "--range", "-2,2,-2,2", "--config", str(work / "c.cfg"),
             "-o", str(work / "x.obj")],
            ["verify", "--surface", spec, "--checks", check,
             "--seed", str(seed), "--branch", str(branch),
             "--config", str(work / "c.cfg"), "--report", str(reports[1])],
            ["generate", "--surface", spec, "--grid", "12x9",
             "--range", "-2,2,-2,2", "--branch", str(branch),
             "--config", str(work / "c.cfg"), "-o", str(work / "y.obj")],
            ["classify-pencil", "--input", str(work / "circles.json"),
             "--report", str(reports[2])]]
    for argv in runs:
        err = io.StringIO()
        with contextlib.redirect_stdout(io.StringIO()), \
                contextlib.redirect_stderr(err):
            code = main(argv)
        assert code in (0, 1, 2)
        assert "Traceback" not in err.getvalue()
    for path in reports:
        if path.exists():
            _strict_json(path.read_text())


def test_non_finite_points_are_a_counted_drop(tmp_path, capfd):
    out = tmp_path / "p.obj"
    code = main(["generate", "--surface", "field:poly(x^99999999)",
                 "--grid", "10x10", "--range", "0,2,0,2", "-o", str(out)])
    assert code == 0
    err = capfd.readouterr().err
    assert "RuntimeWarning" not in err
    assert err == "note: dropped 50 grid point(s) with non-finite coordinates\n"
    verts, faces, _ = read_obj(out)
    assert len(verts) == 50 and len(faces) == 36


def test_finite_meshes_say_nothing_on_stderr(tmp_path, capfd):
    for argv in (["generate", "--surface", "r1", "--grid", "10x10",
                  "--range", "-1,1,-1,1"],
                 ["ruled", "--A", "1", "--B", "0.5", "--C", "0.3", "--D", "0.2",
                  "--phi-range", "0,3", "--lambda-range", "-1,1",
                  "--grid", "10x10"],
                 ["isotropic", "--surface", "r1"]):
        assert main(argv + ["-o", str(tmp_path / "x.obj")]) == 0
        assert capfd.readouterr().err == ""


@pytest.mark.parametrize("check, spec, spaced", [
    ("biharmonic", "r3@theta=0.5", "r3@theta=\t0.5"),
    ("stationarity", "r3", "r\t3"),
    ("curvature", "r3@theta=0.5", "r3 @theta=\t0.5"),
    ("gaussmap", "r1", "r\t1"),
    ("tangency", "r1", "\tr\t1 "),
])
def test_whitespace_in_a_spec_changes_no_report(tmp_path, check, spec, spaced):
    # every check reads the spec through the one parser, which ignores
    # whitespace of any kind
    reports = []
    for k, text in enumerate((spec, spaced)):
        rep = tmp_path / ("r%d.json" % k)
        assert main(["verify", "--surface", text, "--checks", check,
                     "--report", str(rep)]) == 0
        reports.append(rep.read_bytes())
    assert reports[0] == reports[1]


@pytest.mark.parametrize("spec", ["r3@theta=0.5", "r1~@theta=0.1",
                                  "conv(1*r1,0.5*r2)", "field:poly(x^2)",
                                  "ruled(1,0.5,0.3,0.2)"])
def test_tangency_wants_an_unrotated_named_block(capsys, spec):
    code = main(["verify", "--surface", spec, "--checks", "tangency"])
    err = capsys.readouterr().err
    assert code == 2
    assert err.startswith("usage error: tangency plans exist for unrotated "
                          "blocks only\n")


def test_config_guard_reaches_tangency(tmp_path):
    cfg = tmp_path / "g.cfg"
    cfg.write_text("guard=0.5\n")
    argv = ["verify", "--surface", "r1", "--checks", "tangency", "--report"]
    main(argv + [str(tmp_path / "guarded.json"), "--config", str(cfg)])
    assert main(argv + [str(tmp_path / "plain.json")]) == 0
    (guarded,) = json.loads((tmp_path / "guarded.json").read_text())
    (plain,) = json.loads((tmp_path / "plain.json").read_text())
    assert plain["meta"]["vertices"] == 160000
    assert 0 < guarded["meta"]["vertices"] < 160000


@pytest.mark.parametrize("command", [
    ["generate", "--grid", "10x10", "--range", "0,3,-1,1", "-o", "x.obj"],
    ["verify", "--checks", "curvature"],
    ["isotropic", "-o", "x.obj"],
])
def test_config_guard_is_refused_for_ruled_specs(tmp_path, capsys, command):
    # a ruled(...) patch has no field to guard: the key is an error there,
    # not silently ignored, while a tolerance still reaches its check
    argv = [a if a != "x.obj" else str(tmp_path / a) for a in command]
    argv += ["--surface", "ruled(1,0.5,0.3,0.2)", "--config"]
    (tmp_path / "g.cfg").write_text("guard=1.4\n")
    (tmp_path / "t.cfg").write_text("curvature=1e-6\n")
    assert main(argv + [str(tmp_path / "g.cfg")]) == 2
    assert capsys.readouterr().err.startswith("spec error: ruled(...) takes no guard")
    assert not (tmp_path / "x.obj").exists()
    assert main(argv + [str(tmp_path / "t.cfg")]) == 0
    if command[0] == "verify":
        assert "tol 1e-06" in capsys.readouterr().out


def test_config_tolerance_reaches_stationarity(tmp_path):
    cfg = tmp_path / "s.cfg"
    cfg.write_text("stationarity=1e-12\n")
    rep = tmp_path / "r.json"
    assert main(["verify", "--surface", "r3", "--checks", "stationarity",
                 "--config", str(cfg), "--report", str(rep)]) == 1
    assert json.loads(rep.read_text())[0]["tolerance"] == 1e-12


def test_stationarity_fails_on_fewer_bumps_than_it_sets_out_to_measure(
        tmp_path, capsys):
    # at seed 1, 300 tries on r6~ leave 4 of the 5 bumps, each of them small
    rep = tmp_path / "r.json"
    assert main(["verify", "--surface", "r6~", "--checks", "stationarity",
                 "--seed", "1", "--report", str(rep)]) == 1
    assert "stationarity: FAIL" in capsys.readouterr().out
    [record] = json.loads(rep.read_text())
    assert record["samples"] == 4 and record["max_residual"] < 0.1
    assert record["meta"]["tried"] == 300


@pytest.mark.parametrize("argv, dropped", [
    (["--A", "1e308", "--D", "0", "--phi-range", "0,3"], 8),
    # 2 phi overflows: the rulings' cos 2 phi is NaN, as the patch's is
    (["--A", "1", "--D", "1", "--phi-range", "1e308,1.5e308"], 16),
], ids=["A", "phi"])
def test_a_ruling_overflow_is_reported_without_warnings(tmp_path, capfd,
                                                        argv, dropped):
    out = tmp_path / "r.obj"
    code = main(["ruled", "--B", "0", "--C", "0"] + argv
                + ["--lambda-range", "0,1", "--grid", "4x4", "-o", str(out)])
    assert code == 2
    assert capfd.readouterr().err == (
        "note: dropped %d grid point(s) with non-finite coordinates\n"
        "error: ValueError: polyline contains non-finite coordinates\n"
        % dropped)
    assert not out.exists()


def test_running_out_of_memory_is_an_error_exit(tmp_path):
    # the address-space limit is set in the child before numpy is
    # imported, so the 20000 x 20000 grid is never allocated without it
    script = (
        "import resource, sys\n"
        "limit = 1536 * 1024 * 1024\n"
        "soft, hard = resource.getrlimit(resource.RLIMIT_AS)\n"
        "if hard != resource.RLIM_INFINITY:\n"
        "    limit = min(limit, hard)\n"
        "resource.setrlimit(resource.RLIMIT_AS, (limit, hard))\n"
        "from lagmin.cli import main\n"
        "sys.exit(main(sys.argv[1:]))\n"
    )
    src = os.path.dirname(os.path.dirname(lagmin.__file__))
    env = dict(os.environ, OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1",
               PYTHONPATH=os.pathsep.join(
                   p for p in (src, os.environ.get("PYTHONPATH")) if p))
    out = tmp_path / "x.obj"
    proc = subprocess.run(
        [sys.executable, "-c", script, "generate", "--surface", "r1",
         "--grid", "20000x20000", "--range", "-2,2,-2,2", "-o", str(out)],
        capture_output=True, text=True, env=env, timeout=120)
    assert proc.returncode == 2
    lines = proc.stderr.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error: MemoryError: ")
    assert not out.exists()


@pytest.mark.parametrize("argv, message", [
    (_GENERATE + ["--surface", "r1", "--range", "1_0,2,0,1"],
     "usage error: --range wants a finite number, got '1_0'"),
    (_RULED[:2] + ["1_0"] + _RULED[3:] + ["--phi-range", "0,1"],
     "usage error: argument --A: wants a finite number, got '1_0'"),
])
def test_numbers_are_read_in_the_spec_syntax(tmp_path, capsys, argv, message):
    # float() reads 1_0 as 10; the spec grammar, like r3@theta=1_0, does not
    out = tmp_path / "x.obj"
    assert main(argv + ["-o", str(out)]) == 2
    assert capsys.readouterr().err.startswith(message + "\n")
    assert not out.exists()


def test_config_numbers_are_read_in_the_spec_syntax(tmp_path, capsys):
    cfg = tmp_path / "c.cfg"
    cfg.write_text("guard=1_0\n")
    out = tmp_path / "x.obj"
    assert main(["generate", "--surface", "r1", "--grid", "10x10",
                 "--range", "-2,2,-2,2", "--config", str(cfg),
                 "-o", str(out)]) == 2
    assert capsys.readouterr().err.startswith(
        "usage error: config line 1: guard wants a finite number, "
        "got '1_0'\n")
    assert not out.exists()


def test_merged_meshes_carry_their_dropped_points():
    parts = [(SimpleNamespace(vertices=np.zeros((n, 3)),
                              faces=np.zeros((0, 4), np.int64), nonfinite=k),
              6.0 * i)
             for i, (n, k) in enumerate([(4, 2), (3, 0), (5, 7)])]
    merged = _merge_meshes(parts)
    assert isinstance(merged, Mesh)
    assert len(merged.vertices) == 12 and merged.nonfinite == 9


def test_gallery_writes_every_mesh_through_the_drop_note(tmp_path, capfd,
                                                         monkeypatch):
    written = []

    def write(mesh, path, **kw):
        written.append(os.path.basename(path))
        real_write(mesh, path, **kw)

    real_write = lagmin.cli._write_mesh
    monkeypatch.setattr(lagmin.cli, "_write_mesh", write)
    assert main(["gallery", "-o", str(tmp_path)]) == 0
    assert sorted(written) == sorted(os.listdir(tmp_path))
    assert len(written) == 6
    assert capfd.readouterr().err == ""


@pytest.mark.parametrize("spec, check, code", [
    # biharmonic fields whose surfaces cross a singular curve: bumps that
    # straddle it are refused, the others measure stationarity
    ("field:parabolic(alpha0=1,alpha2=0.4,beta1=0.6,gamma0=0.3,gamma3=0.1)",
     "stationarity", 0),
    ("r3@theta=0.5", "stationarity", 0),
    # nearly parallel tangents: the undecided samples are re-measured in
    # long double, frame included
    ("r3@theta=0.5", "gaussmap", 0),
    # the non-stationary control still fails
    ("field:poly(x^4)", "stationarity", 1),
])
def test_checks_on_surfaces_with_singular_curves(tmp_path, spec, check, code):
    rep = tmp_path / "r.json"
    assert main(["verify", "--surface", spec, "--checks", check,
                 "--report", str(rep)]) == code
    record = json.loads(rep.read_text())[0]
    assert record["samples"] == (5 if check == "stationarity" else 10000)
    assert record["pass"] is (code == 0)


@pytest.mark.parametrize("spec, check", [("field:poly(x^99999)", "biharmonic"),
                                         ("field:poly(1e300*x^2)", "stationarity")])
def test_overflowing_checks_fail_without_runtime_warnings(tmp_path, spec, check):
    src = os.path.dirname(os.path.dirname(lagmin.__file__))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p))
    rep = tmp_path / "r.json"
    proc = subprocess.run(
        [sys.executable, "-m", "lagmin.cli", "verify", "--surface", spec,
         "--checks", check, "--report", str(rep)],
        capture_output=True, text=True, env=env, timeout=120)
    assert proc.returncode == 1
    assert "RuntimeWarning" not in proc.stderr
    [record] = _strict_json(rep.read_text())
    assert record["pass"] is False
    assert record["max_residual"] is None and record["rms_residual"] is None


@pytest.mark.parametrize("spec", ["r6", "field:hyperbolic(b2=1,c2=1,alpha1=-2)",
                                  "r6@theta=0.4"])
def test_stationarity_refuses_a_bump_where_the_first_form_rounds_to_zero(
        tmp_path, spec):
    # a quadrature node 5.3e-5 from r6's fold has E·G − F² = 0 exactly, so
    # H and K divide by zero there; that bump is refused, as a K = 0 one is
    src = os.path.dirname(os.path.dirname(lagmin.__file__))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p))
    rep = tmp_path / "r.json"
    proc = subprocess.run(
        [sys.executable, "-m", "lagmin.cli", "verify", "--surface", spec,
         "--checks", "stationarity", "--report", str(rep)],
        capture_output=True, text=True, env=env, timeout=120)
    assert proc.stderr == ""
    assert proc.returncode == 0
    [record] = _strict_json(rep.read_text())
    assert record["samples"] == 5 and record["max_residual"] < 1e-3


@pytest.mark.parametrize("command", [
    ["generate", "--grid", "10x10", "--range", "0,1,0,1", "-o", "x.obj"],
    ["verify", "--checks", "biharmonic"],
    ["isotropic", "-o", "x.obj"],
])
@pytest.mark.parametrize("branch", [10**400, -(10**400), 10**308])
def test_branches_without_a_finite_shift_are_usage_errors(tmp_path, capsys,
                                                          command, branch):
    argv = [a if a != "x.obj" else str(tmp_path / a) for a in command]
    assert main(argv + ["--surface", "field:elliptic(a1=1)",
                        "--branch", str(branch)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("usage error: argument --branch: wants an integer")
    assert not (tmp_path / "x.obj").exists()


@pytest.mark.parametrize("branch", ["3", "-3"])
def test_small_branches_still_run(tmp_path, branch):
    assert main(["verify", "--surface", "field:elliptic(a1=1)",
                 "--checks", "biharmonic", "--branch", branch]) == 0
    # and shift the Arctan term of an elliptic field
    argv = ["generate", "--surface", "field:elliptic(a1=1,a3=-1)",
            "--grid", "10x10", "--range", "-2,2,-2,2", "-o"]
    assert main(argv + [str(tmp_path / "k.obj"), "--branch", branch]) == 0
    assert main(argv + [str(tmp_path / "0.obj")]) == 0
    assert (tmp_path / "k.obj").read_bytes() != (tmp_path / "0.obj").read_bytes()


@pytest.mark.parametrize("spec", ["r1", "r3@theta=0.5", "conv(1*r1,0.5*r3)",
                                  "ruled(1,0.5,0.3,0.2)",
                                  "field:hyperbolic(a2=1,c1=0.5)",
                                  "field:elliptic(c1=1,d1=0.5)"])
def test_a_branch_is_refused_without_an_elliptic_term(tmp_path, capsys, spec):
    # it would shift nothing: the OBJ would be the one of branch 0; an
    # elliptic(...) term with a1..a4 all zero has no Arctan term to shift
    out = tmp_path / "x.obj"
    assert main(["generate", "--surface", spec, "--grid", "10x10",
                 "--range", "-2,2,-2,2", "--branch", "3", "-o", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("spec error: branch 3 shifts the Arctan")
    assert err.count("spec error:") == 1
    # r1's field has an Arctan term: a block spec is refused as a spec
    # other than field:, not for a field without one
    assert ("only field: specs take a branch, not %r" % spec in err) == (
        not spec.startswith("field:"))
    assert not out.exists()


def test_a_branch_shifts_a_sum_with_one_arctan_term(tmp_path):
    argv = ["generate", "--surface",
            "field:sum(1*elliptic(c1=1),1*elliptic(a1=1,a3=-1))",
            "--grid", "10x10", "--range", "-2,2,-2,2", "-o"]
    assert main(argv + [str(tmp_path / "k.obj"), "--branch", "3"]) == 0
    assert main(argv + [str(tmp_path / "0.obj")]) == 0
    assert (tmp_path / "k.obj").read_bytes() != (tmp_path / "0.obj").read_bytes()


@pytest.mark.parametrize("depth", [500, 1000])
def test_specs_nested_too_deep_are_an_error_exit(capsys, depth):
    spec = "field:" + _nested("poly(x)", 1, depth)
    assert main(["verify", "--surface", spec, "--checks", "biharmonic"]) == 2
    lines = capsys.readouterr().err.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error: RecursionError: ")


def test_verify_parses_its_spec_once_for_all_its_checks(monkeypatch, tmp_path):
    calls = []

    def counting(spec, **kw):
        calls.append(spec)
        return parse(spec, **kw)

    parse = lagmin.grammar.parse_surface
    monkeypatch.setattr(lagmin.grammar, "parse_surface", counting)
    spec = "conv(1*r1,0.5*r2,0.3*r3@theta=0.2)"
    code = main(["verify", "--surface", spec, "--checks",
                 "biharmonic,gaussmap,ruling,curvature,stationarity",
                 "--report", str(tmp_path / "r.json")])
    assert code == 0
    assert len(json.loads((tmp_path / "r.json").read_text())) == 5
    assert calls == [spec]


@pytest.mark.parametrize("argv", [
    ["ruled", "--A", "1", "--B", "0.5", "--C", "0.3", "--D", "0.2",
     "--phi-range", "0,3", "--lambda-range", "-1,1", "-o", "{tmp}/x.obj"],
    ["classify-pencil", "--input", "{tmp}/circles.json"],
    ["gallery", "-o", "{tmp}/out"],
])
def test_commands_that_read_no_config_refuse_it(tmp_path, capsys, argv):
    cfg = tmp_path / "c.cfg"
    cfg.write_text("guard=0.5\n")
    argv = [a.format(tmp=tmp_path) for a in argv]
    assert main(argv + ["--config", str(cfg)]) == 2
    assert "unrecognized arguments: --config" in capsys.readouterr().err
    assert os.listdir(tmp_path) == ["c.cfg"]


@pytest.mark.parametrize("spec", ["field:poly(x^99999)", "r2"])
def test_curvature_check_fails_where_normals_are_undefined(tmp_path, capsys,
                                                          spec):
    # too few samples with a defined normal resolve: a failed check, not
    # an error
    rep = tmp_path / "r.json"
    assert main(["verify", "--surface", spec, "--checks", "curvature",
                 "--report", str(rep)]) == 1
    (record,) = json.loads(rep.read_text())
    assert record["check"] == "curvature-fd" and record["pass"] is False
    assert record["samples"] < 20
    assert capsys.readouterr().err == ""


@pytest.mark.parametrize("check", ["biharmonic", "stationarity"])
def test_field_checks_refuse_a_ruled_patch(capsys, check):
    code = main(["verify", "--surface", "ruled(1,0.5,0.3,0.2)",
                 "--checks", check])
    assert code == 2
    assert capsys.readouterr().err.startswith(
        "usage error: check needs a field-backed surface, not ruled(...)\n")


@pytest.mark.parametrize("argv, flag", [
    (_GENERATE + ["--surface", "r1", "--range", "1,1,0,1"], "--range"),
    (_GENERATE + ["--surface", "r1", "--range", "0,1,-2,-2"], "--range"),
    (_GENERATE + ["--surface", "r1", "--range", "-1e308,1e308,0,1"],
     "--range"),
    (_GENERATE + ["--surface", "r1", "--range", "0,1,1e308,-1e308"],
     "--range"),
    (_RULED + ["--phi-range", "0,0"], "--phi-range"),
    (_RULED + ["--phi-range", "1e308,-1e308"], "--phi-range"),
    (_RULED[:10] + ["0.5,0.5"] + _RULED[11:] + ["--phi-range", "0,1"],
     "--lambda-range"),
])
def test_degenerate_windows_are_usage_errors(tmp_path, capfd, argv, flag):
    # equal endpoints would mesh zero-area quads, and a span past the
    # largest float overflows the grid spacing
    out = tmp_path / "x.obj"
    assert main(argv + ["-o", str(out)]) == 2
    err = capfd.readouterr().err
    assert err.startswith("usage error: %s wants " % flag)
    assert "Warning" not in err
    assert not out.exists()


@pytest.mark.parametrize("argv", [
    _GENERATE + ["--surface", "r1", "--range", "2,-2,2,-2"],
    _RULED + ["--phi-range", "1,-1"],
])
def test_reversed_windows_still_mesh(tmp_path, argv):
    out = tmp_path / "x.obj"
    assert main(argv + ["-o", str(out)]) == 0
    verts, faces, _ = read_obj(out)
    assert len(verts) > 0 and len(faces) > 0


def test_rulings_refuse_conoid_terms_of_two_rotations(capsys):
    # a1*r1 + a2*r2 + a3*r3@theta has one theta; two conoid terms turned
    # by different angles have no common ruling family
    code = main(["verify", "--surface", "conv(1*r3@theta=0.1,1*r3@theta=0.2)",
                 "--checks", "ruling"])
    err = capsys.readouterr().err
    assert code == 2
    assert err == "error: ProvenanceMismatch: mixed conoid rotations\n"


@pytest.mark.parametrize("spec", ["r1@theta=0.5", "conv(1*r2@theta=-0.3)",
                                  "conv(1*r1@theta=0.5,1*r3@theta=0.5)"])
def test_rulings_refuse_a_turned_helicoid_or_cycloid_term(capsys, spec):
    # the family a1*r1 + a2*r2 + a3*r3@theta turns its conoid term only:
    # unturned rulings measured against a turned r1 would fail it (5.28)
    code = main(["verify", "--surface", spec, "--checks", "ruling"])
    err = capsys.readouterr().err
    term = "r2@theta=-0.3" if "r2" in spec else "r1@theta=0.5"
    assert code == 2
    assert err == ("error: ProvenanceMismatch: surface %r is not a term of "
                   "the family a1*r1 + a2*r2 + a3*r3@theta\n" % term)
    assert main(["verify", "--surface", "r3@theta=0.5",
                 "--checks", "ruling"]) == 0


@pytest.mark.parametrize("spec, checks", [
    ("r8@theta=0.7", "biharmonic,stationarity"),
    ("conv(1*r5@theta=0.7,1*r1)", "biharmonic")])
def test_field_checks_run_on_every_rotated_block(capsys, spec, checks):
    # every block's field turns, so no rotated spec lacks a field
    assert main(["verify", "--surface", spec, "--checks", checks]) == 0
    assert capsys.readouterr().out.count(": pass") == checks.count(",") + 1


def test_three_equal_circles_are_a_degenerate_family(tmp_path, capsys):
    # rank 1: three copies of one cycle span less than a pencil, and they
    # are not a rank-3 family (not-a-pencil) either
    src = tmp_path / "circles.json"
    src.write_text('{"center":[0,0],"radius":1}\n' * 3)
    assert main(["classify-pencil", "--input", str(src)]) == 0
    assert capsys.readouterr().out == "tag: degenerate\n"


@pytest.mark.parametrize("lines", [["guard=0.3", "guard=0.5"],
                                   ["biharmonic=1e-9", "# looser", "",
                                    "biharmonic=1"]])
def test_a_config_key_set_twice_is_a_usage_error(tmp_path, capsys, lines):
    # the last value used to win silently, even one that loosens a check
    cfg = tmp_path / "c.cfg"
    cfg.write_text("\n".join(lines) + "\n")
    rep = tmp_path / "r.json"
    key = lines[0].partition("=")[0]
    code = main(["verify", "--surface", "r1", "--checks", "biharmonic",
                 "--config", str(cfg), "--report", str(rep)])
    assert code == 2
    assert capsys.readouterr().err.startswith(
        "usage error: config line %d: key %r is set more than once\n"
        % (len(lines), key))
    assert not rep.exists()


def test_the_parser_is_built_on_the_first_main_call_only(tmp_path):
    script = (
        "import sys\n"
        "from lagmin import cli\n"
        "built = cli._build_parser.cache_info\n"
        "assert built().misses == 0\n"
        "for _ in range(3):\n"
        "    assert cli.main(sys.argv[1:]) == 0\n"
        "assert built().misses == 1 and built().hits == 2\n"
    )
    src = os.path.dirname(os.path.dirname(lagmin.__file__))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p))
    proc = subprocess.run(
        [sys.executable, "-c", script, "generate", "--surface", "r1",
         "--grid", "4x4", "--range", "0.5,1,0.5,1",
         "-o", str(tmp_path / "x.obj")],
        capture_output=True, text=True, env=env, timeout=120)
    assert proc.returncode == 0, proc.stderr


# glibc's mallopt parameters and the values the CLI sets: M_TRIM_THRESHOLD
# 256 MiB and M_MMAP_THRESHOLD 32 MiB
ALLOCATOR_SETTING = [(-1, 268435456), (-3, 33554432)]


@pytest.fixture
def libc(monkeypatch):
    """A libc handle for the CLI that records each mallopt call as
    (param, value) in `.calls` and returns `.returns`; the allocator
    setting starts and ends unmade."""
    libc = SimpleNamespace(calls=[], returns=1)

    def mallopt(param, value):
        libc.calls.append((param, value))
        return libc.returns

    monkeypatch.setattr(lagmin.cli.ctypes, "CDLL",
                        lambda name: SimpleNamespace(mallopt=mallopt))
    _keep_freed_memory.cache_clear()
    yield libc
    _keep_freed_memory.cache_clear()


def _main_quietly(tmp_path, capsys):
    """Exit code of a small `generate` run, checking that it warned and
    printed nothing."""
    with warnings.catch_warnings(record=True) as seen:
        warnings.simplefilter("always")
        code = main(["generate", "--surface", "r1", "--grid", "4x4",
                     "--range", "0.5,1,0.5,1", "-o", str(tmp_path / "x.obj")])
    assert seen == [] and capsys.readouterr() == ("", "")
    return code


def test_the_allocator_is_set_once_per_process(tmp_path, capsys, libc):
    assert _main_quietly(tmp_path, capsys) == 0
    assert _main_quietly(tmp_path, capsys) == 0
    assert libc.calls == ALLOCATOR_SETTING


def test_a_refused_allocator_setting_changes_nothing(tmp_path, capsys, libc):
    libc.returns = 0
    assert _main_quietly(tmp_path, capsys) == 0
    assert libc.calls == ALLOCATOR_SETTING


def _raising(error):
    def confstr(name):
        raise error(name)
    return confstr


# os.confstr raises ValueError for a name the C library lacks (macOS),
# OSError where the C library refuses it (musl), and is missing on Windows
@pytest.mark.parametrize("confstr", [_raising(ValueError), _raising(OSError),
                                     lambda name: None, None],
                         ids=["ValueError", "OSError", "undefined", "missing"])
def test_without_glibc_the_allocator_is_left_alone(tmp_path, capsys,
                                                   monkeypatch, libc, confstr):
    if confstr is None:
        monkeypatch.delattr(lagmin.cli.os, "confstr")
    else:
        monkeypatch.setattr(lagmin.cli.os, "confstr", confstr)
    assert _main_quietly(tmp_path, capsys) == 0
    assert libc.calls == []


def test_importing_lagmin_leaves_the_allocator_alone(tmp_path):
    script = (
        "import ctypes, sys, types\n"
        "import numpy\n"
        "calls = []\n"
        "libc = types.SimpleNamespace(mallopt=lambda *a: calls.append(a) or 1)\n"
        "ctypes.CDLL = lambda name: libc\n"
        "import lagmin, lagmin.cli\n"
        "assert calls == [], calls\n"
        "assert lagmin.cli._keep_freed_memory.cache_info().currsize == 0\n"
        "assert lagmin.cli.main(sys.argv[1:]) == 0\n"
        "assert len(calls) == 2, calls\n"
    )
    src = os.path.dirname(os.path.dirname(lagmin.__file__))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p))
    proc = subprocess.run(
        [sys.executable, "-c", script, "generate", "--surface", "r1",
         "--grid", "4x4", "--range", "0.5,1,0.5,1",
         "-o", str(tmp_path / "x.obj")],
        capture_output=True, text=True, env=env, timeout=120)
    assert proc.returncode == 0, proc.stderr


@pytest.mark.parametrize("check", ["curvature", "ruling", "biharmonic"])
def test_a_negative_seed_is_refused_for_every_check_naming_the_flag(
        capsys, check):
    # numpy's seeding named no flag, and checks that draw no samples
    # accepted the seed and passed
    code = main(["verify", "--surface", "r1", "--checks", check,
                 "--seed", "-5"])
    out, err = capsys.readouterr()
    assert code == 2 and out == ""
    assert err == ("error: ValueError: --seed wants a non-negative integer, "
                   "got -5\n")
