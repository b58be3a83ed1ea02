"""The benchmark's span table (bench/spans.py) names functions of this
package.  Renaming a traced function, or turning it into something that is
not a function, must fail here, in the plain suite, and not only in a
traced benchmark run."""
import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

_CHILD = """
import spans
tracer = spans.install()
from lagmin.jets import jet_xy
jx, jy = jet_xy(1.0, 2.0, 2)
jx * jy
print(tracer.stats["jets.mul.calls"])
"""


# single-point r2 images, as bench/checks.py samples a grid's points one at
# a time: r2 is nowhere immersed, so each one is a NaN row
_R2_CHILD = """
import numpy as np
import spans
tracer = spans.install()
from lagmin.grammar import parse_surface
from lagmin.reconstruct import isotropic_image
S = parse_surface("r2")
for k in range(7):
    u = np.array([0.3 + 0.1 * k])
    assert np.isnan(isotropic_image(S, u, u - 1.0)).all()
for key in ("jets.mul.calls", "jets.reciprocal.calls", "jets.polynomial.calls",
            "surfaces.frame.calls",
            "reconstruct.isotropic_image.single_point_calls"):
    print(key, tracer.stats[key])
"""


# `lagmin isotropic` on r2, whose tangent planes are all undefined
_R2_CLI_CHILD = """
import sys
import spans
tracer = spans.install()
from lagmin import cli
assert cli.main(["isotropic", "--surface", "r2", "-o", sys.argv[1]]) == 0
for key in ("surfaces.frame.calls",
            "reconstruct.isotropic_image.single_point_calls"):
    print(key, tracer.stats.get(key, 0))
"""


def _run_traced(child, *argv):
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [os.path.join(ROOT, "src"), os.path.join(ROOT, "bench")]))
    proc = subprocess.run([sys.executable, "-c", child, *argv], env=env,
                          cwd=ROOT, capture_output=True, text=True,
                          timeout=120)
    assert proc.returncode == 0, proc.stderr
    return proc.stdout.split()


def test_every_span_resolves_in_a_fresh_interpreter():
    assert _run_traced(_CHILD) == ["1"]


def test_single_point_r2_images_keep_their_traced_counts():
    # the per-layer counts of r2's single-point calls: each jet operation
    # the builders call is one span call
    counts = _run_traced(_R2_CHILD)
    assert dict(zip(counts[::2], map(int, counts[1::2]))) == {
        "jets.mul.calls": 70, "jets.reciprocal.calls": 14,
        "jets.polynomial.calls": 7, "surfaces.frame.calls": 7,
        "reconstruct.isotropic_image.single_point_calls": 7}


def test_isotropic_maps_a_grid_in_one_batch(tmp_path):
    # one frame for the whole grid, and no point retried alone, although
    # no point of r2 has an image
    counts = _run_traced(_R2_CLI_CHILD, str(tmp_path / "r2.obj"))
    assert dict(zip(counts[::2], map(int, counts[1::2]))) == {
        "surfaces.frame.calls": 1,
        "reconstruct.isotropic_image.single_point_calls": 0}
