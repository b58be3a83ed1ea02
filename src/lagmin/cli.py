"""Command-line front end.

Subcommands: generate, ruled, verify, classify-pencil, isotropic,
gallery.  Exit codes: 0 success (and all checks passing), 1 check
failure (reports are still written), 2 usage error (the spec grammar
is printed) or error, running out of memory or of stack included.  All
outputs are deterministic for fixed argv and seed.

Each command parses its spec string once, by `grammar.parse_surface`,
and every check of `verify` reads that one surface.  Field checks read
its `.field` (every surface in Gauss coordinates carries one), and the
tangency check reads the block name from it.  Numbers on the command
line and in config files are read by `grammar.parse_number`, in the
syntax of spec numbers.  Only `generate`, `verify` and `isotropic` take
a `--config` file and a `--branch`, which shifts elliptic(...) fields.
"""

from __future__ import annotations

import argparse
import functools
import math
import os
import re
import sys

import numpy as np

from . import grammar, meshing, pencils, verify
from .errors import GrammarError, LagminError
from .reconstruct import GaussMappedSurface, _isotropic_rows
from .surfaces import RuledPatch, building_block, kinematic_rulings

CHECK_NAMES = ("biharmonic", "gaussmap", "ruling", "curvature",
               "stationarity", "tangency")

_CONFIG_KEYS = CHECK_NAMES + ("guard",)


class _UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def __init__(self, *a, **kw):
        super().__init__(*a, **kw)
        # accept comma-joined negative numerics like "-2,2,-2,2" as values,
        # and -inf / -nan too, so that they meet the finite-number checks
        self._negative_number_matcher = re.compile(r"^-(?:[\d.]|inf|nan)",
                                                   re.IGNORECASE)

    def error(self, message):
        raise _UsageError(message)


def _parse_grid(text):
    m = re.match(r"^(\d+)x(\d+)$", text)
    if not m:
        raise _UsageError("--grid wants NxM, got %r" % (text,))
    shape = (int(m.group(1)), int(m.group(2)))
    if shape[0] < 2 or shape[1] < 2:
        raise _UsageError("--grid must be at least 2x2")
    return shape


def _parse_window(text, count, flag):
    """`count` comma-separated finite numbers, read as (lo, hi) pairs that
    each span a nonzero, finite width; a reversed pair is fine."""
    parts = text.split(",")
    if len(parts) != count:
        raise _UsageError("%s wants %d comma-separated numbers, got %r"
                          % (flag, count, text))
    try:
        values = tuple(_finite_float(p) for p in parts)
    except argparse.ArgumentTypeError as exc:
        raise _UsageError("%s %s" % (flag, exc))
    for lo, hi in zip(values[::2], values[1::2]):
        if lo == hi:
            raise _UsageError("%s wants distinct endpoints, got %r"
                              % (flag, text))
        if not math.isfinite(hi - lo):
            raise _UsageError("%s wants a span that is a finite number, got %r"
                              % (flag, text))
    return values


def _finite_float(text):
    """argparse type: a finite number in the spec grammar's syntax, with
    surrounding whitespace ignored."""
    try:
        return grammar.parse_number(text.strip(), "")
    except GrammarError:
        raise argparse.ArgumentTypeError("wants a finite number, got %r" % (text,))


def _branch(text):
    """argparse type: an integer k whose branch shift k*pi is a finite float."""
    try:
        k = int(text)
        if math.isfinite(float(k) * math.pi):
            return k
    except (ValueError, OverflowError):
        pass
    raise argparse.ArgumentTypeError("wants an integer k with k*pi finite, got %r"
                                     % (text,))


def _load_config(path):
    try:
        with open(path, encoding="utf-8") as fh:
            text = fh.read()
    except OSError as exc:
        raise _UsageError("cannot read config: %s" % (exc,))
    cfg = {}
    for lineno, line in enumerate(text.splitlines(), 1):
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        if "=" not in line:
            raise _UsageError("config line %d: expected key=value" % lineno)
        key, _, val = line.partition("=")
        key = key.strip()
        if key not in _CONFIG_KEYS:
            raise _UsageError(
                "config line %d: unknown key %r (allowed: %s)"
                % (lineno, key, ", ".join(_CONFIG_KEYS))
            )
        try:
            value = _finite_float(val.strip())
        except argparse.ArgumentTypeError as exc:
            raise _UsageError("config line %d: %s %s" % (lineno, key, exc))
        if value <= 0.0:
            raise _UsageError("config line %d: %s wants a positive number, got %r"
                              % (lineno, key, val.strip()))
        cfg[key] = value
    return cfg


# -- surfaces and checks ----------------------------------------------


def _surface(args, cfg):
    """The surface of --surface, parsed once per command."""
    return grammar.parse_surface(args.surface, branch=args.branch,
                                 guard=cfg.get("guard"))


def _run_check(name, S, seed, cfg):
    """Reports of one named check on the parsed surface S; `name` is one
    of CHECK_NAMES."""
    kw = {"tolerance": cfg[name]} if name in cfg else {}
    if name in ("biharmonic", "stationarity"):
        if not isinstance(S, GaussMappedSurface):
            raise _UsageError("check needs a field-backed surface, not ruled(...)")
        check = (verify.biharmonic_residual if name == "biharmonic"
                 else verify.stationarity_check)
        return [check(S.field, seed=seed, **kw)]
    if name == "tangency":
        if S.name is None:
            raise _UsageError("tangency plans exist for unrotated blocks only")
        return verify.tangency_check(S, **kw)
    if name == "gaussmap":
        return [verify.gaussmap_identity_residual(S, **kw)]
    if name == "ruling":
        return [verify.ruling_residual(S, **kw)]
    return [verify.fd_curvature_check(S, seed=seed, **kw)]


# -- meshing helpers ---------------------------------------------------


def _merge_meshes(parts):
    """Concatenate (mesh, x-offset) pairs into one vertex/face soup."""
    verts = []
    faces = []
    base = 0
    for mesh, dx in parts:
        moved = mesh.vertices.copy()
        moved[:, 0] += dx
        verts.append(moved)
        faces.append(mesh.faces + base)
        base += len(mesh.vertices)
    return meshing.Mesh(
        vertices=np.concatenate(verts) if verts else np.zeros((0, 3)),
        faces=np.concatenate(faces) if faces else np.zeros((0, 4), np.int64),
        nonfinite=sum(mesh.nonfinite for mesh, _ in parts),
    )


def _write_mesh(mesh, path, **kw):
    """Write the OBJ; say on stderr how many grid points were dropped
    for non-finite coordinates (overflow, invalid values), if any."""
    if mesh.nonfinite:
        print("note: dropped %d grid point(s) with non-finite coordinates"
              % mesh.nonfinite, file=sys.stderr)
    meshing.write_obj(mesh, path, **kw)


def _ruling_polylines(family, phis, lo, hi):
    """The segment between the point spheres lo and hi of the ruling
    `family.line(phi)` of each phi; as in the grid walk, overflow shows as
    non-finite coordinates."""
    polys = []
    with np.errstate(over="ignore", invalid="ignore"):
        for phi in phis:
            line = family.line(phi)
            polys.append(np.stack([line.sphere(lo).m, line.sphere(hi).m]))
    return polys


# -- subcommands -------------------------------------------------------


def _cmd_generate(args, cfg):
    S = _surface(args, cfg)
    shape = _parse_grid(args.grid)
    window = _parse_window(args.range, 4, "--range")
    mesh = meshing.surface_mesh(S, window, shape)
    _write_mesh(mesh, args.output,
                comment="surface %s grid %s range %s"
                % (args.surface, args.grid, args.range))
    return 0


def _cmd_ruled(args, cfg):
    S = RuledPatch(args.A, args.B, args.C, args.D)
    p0, p1 = _parse_window(args.phi_range, 2, "--phi-range")
    l0, l1 = _parse_window(args.lambda_range, 2, "--lambda-range")
    window = (p0, p1, l0, l1)
    mesh = meshing.surface_mesh(S, window, _parse_grid(args.grid))
    polys = _ruling_polylines(S.rulings, np.linspace(p0, p1, 9), l0, l1)
    _write_mesh(mesh, args.output, polylines=polys,
                comment="ruled A=%g B=%g C=%g D=%g"
                % (args.A, args.B, args.C, args.D))
    return 0


def _cmd_verify(args, cfg):
    checks = [c for c in args.checks.split(",") if c]
    if not checks:
        raise _UsageError("--checks wants a comma list from: %s"
                          % (", ".join(CHECK_NAMES),))
    for c in checks:
        if c not in CHECK_NAMES:
            raise _UsageError("unknown check %r (allowed: %s)"
                              % (c, ", ".join(CHECK_NAMES)))
        if checks.count(c) > 1:
            raise _UsageError("check %r is named more than once" % (c,))
    if args.seed < 0:  # refused before any check, sampling or not
        raise ValueError("--seed wants a non-negative integer, got %d"
                         % (args.seed,))
    reports = []
    # as in the grid walk, overflow shows as non-finite residuals, which
    # fail their check and are written as null
    with np.errstate(over="ignore", invalid="ignore"):
        S = _surface(args, cfg)
        for c in checks:
            reports.extend(_run_check(c, S, args.seed, cfg))
    if args.report:
        verify.write_reports(reports, args.report)
    for rep in reports:
        tag = "pass" if rep.passed else "FAIL"
        print("%s: %s (max %.3g, tol %.3g, n=%d)"
              % (rep.check, tag, rep.max_residual, rep.tolerance, rep.samples))
    return 0 if all(r.passed for r in reports) else 1


def _cmd_classify_pencil(args, cfg):
    try:
        cycles = pencils.read_cycle_file(args.input)
    except OSError as exc:
        raise _UsageError("cannot read input: %s" % (exc,))
    except ValueError as exc:
        raise _UsageError("bad circles file: %s" % (exc,))
    pc = pencils.classify_family(cycles)
    report = pencils.classification_report(pc)
    if args.report:
        meshing.atomic_write_text(args.report, verify.json_text(report) + "\n")
    print("tag:", pc.tag)
    return 0


def _cmd_isotropic(args, cfg):
    S = _surface(args, cfg)

    def image(u, v):
        # undefined and ideal tangent planes come back NaN and are dropped
        return _isotropic_rows(S, u, v, None)

    mesh = meshing.grid_mesh(S.default_window, (100, 100), S.is_safe, image)
    _write_mesh(mesh, args.output,
                comment="isotropic image of %s" % (args.surface,))
    return 0


_GALLERY = (
    ("hyperbolic-general.obj",
     "field:hyperbolic(a2=0.3,c1=0.4,alpha1=1,beta2=0.5,gamma1=0.2)"),
    ("elliptic-blocks.obj", ("r1", "r3", "r1~", "r3~")),
    ("ruled-convolution.obj", "conv(1*r1,0.3*r2,0.6*r3)"),  # and its rulings
    ("hyperbolic-blocks.obj", ("r4", "r5", "r6", "r4~", "r6~")),
    ("parabolic-blocks.obj", ("r7", "r8", "r9", "r10", "r11")),
    ("parabolic-general.obj",
     "field:parabolic(alpha0=1,alpha2=0.4,beta1=0.6,gamma0=0.3,gamma3=0.1)"),
)


def _cmd_gallery(args, cfg):
    outdir = args.output
    os.makedirs(outdir, exist_ok=True)
    for fname, spec in _GALLERY:
        path = os.path.join(outdir, fname)
        if fname == "ruled-convolution.obj":
            S = grammar.parse_surface(spec)
            mesh = meshing.surface_mesh(S, shape=(100, 100))
            polys = _ruling_polylines(kinematic_rulings(S),
                                      np.linspace(-1.2, 1.2, 9), -2.0, 2.0)
            _write_mesh(mesh, path, polylines=polys,
                        comment="convolution a=(1,0.3,0.6) theta=0 "
                                "with rulings phi in [-1.2,1.2]")
        elif isinstance(spec, tuple):
            parts = []
            for k, name in enumerate(spec):
                S = building_block(name)
                parts.append((meshing.surface_mesh(S, shape=(60, 60)),
                              6.0 * k))
            _write_mesh(_merge_meshes(parts), path,
                        comment="blocks %s spaced 6 apart on x"
                        % (", ".join(spec),))
        else:
            S = grammar.parse_surface(spec)
            mesh = meshing.surface_mesh(S, shape=(100, 100))
            _write_mesh(mesh, path, comment=spec)
    print("gallery: wrote %d meshes to %s" % (len(_GALLERY), outdir))
    return 0


# -- argument wiring ---------------------------------------------------


@functools.lru_cache(maxsize=None)
def _build_parser():
    """The argument parser, built on the first `main` call and kept: a
    process that runs many commands builds it once, and importing the
    module builds nothing."""
    top = _Parser(prog="lagmin", description=__doc__)
    sub = top.add_subparsers(dest="command", metavar="command")

    common = _Parser(add_help=False)
    common.add_argument("--config", default=None,
                        help="flat key=value file with tolerances and guard")
    common.add_argument("--branch", type=_branch, default=0, metavar="k",
                        help="shift the Arctan term of elliptic(...) fields "
                             "by k*pi; refused for a spec with none")

    p = sub.add_parser("generate", parents=[common],
                       help="mesh a surface spec to an OBJ file")
    p.add_argument("--surface", required=True)
    p.add_argument("--grid", required=True, help="NxM")
    p.add_argument("--range", required=True, help="u0,u1,v0,v1")
    p.add_argument("-o", "--output", required=True)
    p.set_defaults(func=_cmd_generate)

    p = sub.add_parser("ruled",
                       help="mesh a ruled patch with its rulings")
    p.add_argument("--A", type=_finite_float, required=True)
    p.add_argument("--B", type=_finite_float, required=True)
    p.add_argument("--C", type=_finite_float, required=True)
    p.add_argument("--D", type=_finite_float, required=True)
    p.add_argument("--phi-range", required=True, help="phi0,phi1")
    p.add_argument("--lambda-range", required=True, help="lam0,lam1")
    p.add_argument("--grid", default="100x100", help="NxM")
    p.add_argument("-o", "--output", required=True)
    p.set_defaults(func=_cmd_ruled)

    p = sub.add_parser("verify", parents=[common],
                       help="run residual checks and write a JSON report")
    p.add_argument("--surface", required=True)
    p.add_argument("--checks", required=True,
                   help="comma list from: %s" % (",".join(CHECK_NAMES),))
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--report", default=None)
    p.set_defaults(func=_cmd_verify)

    p = sub.add_parser("classify-pencil",
                       help="classify a circle family from a JSON file")
    p.add_argument("--input", required=True)
    p.add_argument("--report", default=None)
    p.set_defaults(func=_cmd_classify_pencil)

    p = sub.add_parser("isotropic", parents=[common],
                       help="mesh the isotropic-model graph of a surface")
    p.add_argument("--surface", required=True)
    p.add_argument("-o", "--output", required=True)
    p.set_defaults(func=_cmd_isotropic)

    p = sub.add_parser("gallery",
                       help="write the six reference figure meshes")
    p.add_argument("-o", "--output", required=True, help="output directory")
    p.set_defaults(func=_cmd_gallery)

    return top


def main(argv=None) -> int:
    try:
        args = _build_parser().parse_args(argv)
        if getattr(args, "func", None) is None:
            raise _UsageError("a subcommand is required")
        config = getattr(args, "config", None)
        cfg = _load_config(config) if config else {}
        return args.func(args, cfg)
    except _UsageError as exc:
        print("usage error:", exc, file=sys.stderr)
        print(file=sys.stderr)
        print(grammar.GRAMMAR_HELP, file=sys.stderr)
        return 2
    except GrammarError as exc:
        print("spec error:", exc, file=sys.stderr)
        print(file=sys.stderr)
        print(grammar.GRAMMAR_HELP, file=sys.stderr)
        return 2
    except (LagminError, ValueError, RecursionError) as exc:
        # RecursionError: a spec nested too deep for the parser or the
        # field's jet
        print("error: %s: %s" % (type(exc).__name__, exc), file=sys.stderr)
        return 2
    except MemoryError as exc:
        # numpy raises a private subclass; name the builtin
        print("error: MemoryError: %s" % (exc,), file=sys.stderr)
        return 2
    except OSError as exc:
        print("i/o error:", exc, file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
