"""The benchmark's pinned outputs that depend only on block names,
regenerated in-process and compared with the sha256 digests recorded in
bench/digests.json (read, never written), and the outputs that the
benchmark does not pin (the gallery, a ruled patch with its ruling
polylines, and outputs under a `--config` guard), compared with digests
kept here.  The digests hold for the numpy version
they were recorded under; under any other the comparison is skipped."""
import hashlib
import json
from pathlib import Path

import numpy as np
import pytest

from lagmin.cli import main
from lagmin.surfaces import BLOCK_NAMES

ROOT = Path(__file__).resolve().parents[1]
PINS = json.loads((ROOT / "bench" / "digests.json").read_text())

# blocks with a frozen cone-family tangency plan
TANGENCY_BLOCKS = ("r1", "r4", "r5", "r6", "r7", "r8", "r9", "r10", "r11",
                   "r1~", "r3~")
ALL_CHECKS = "biharmonic,gaussmap,ruling,curvature,stationarity"


def _verify(block, checks):
    return ["verify", "--surface", block, "--checks", checks, "--report"]


def _jobs():
    """(workload, output file, argv without the output path)."""
    jobs = [("certify", "verify-r1.json", _verify("r1", ALL_CHECKS))]
    for b in BLOCK_NAMES:
        tag = b.replace("~", "t")
        jobs.append(("isotropic", "isotropic-%s.obj" % tag,
                     ["isotropic", "--surface", b, "-o"]))
        jobs.append(("certify", "biharmonic-%s.json" % tag,
                     _verify(b, "biharmonic")))
    for b in TANGENCY_BLOCKS:
        jobs.append(("certify", "tangency-%s.json" % b.replace("~", "t"),
                     _verify(b, "tangency")))
    return jobs


JOBS = _jobs()


def test_the_pinned_block_outputs_are_all_covered():
    assert len(JOBS) == 42
    assert len({name for _, name, _ in JOBS}) == 42


@pytest.mark.skipif(np.__version__ != PINS["numpy"],
                    reason="digests recorded under numpy %s" % PINS["numpy"])
@pytest.mark.parametrize("workload, name, argv", JOBS, ids=[j[1] for j in JOBS])
def test_block_output_matches_its_benchmark_pin(tmp_path, workload, name,
                                               argv):
    out = tmp_path / name
    assert main(argv + [str(out)]) == 0
    digest = hashlib.sha256(out.read_bytes()).hexdigest()
    assert digest == PINS["workloads"][workload][name]


# sha256 of the OBJs outside the benchmark, recorded under numpy 2.4.6
# from the one-float-at-a-time "%.17g" writer
OBJ_PINS_NUMPY = "2.4.6"
GALLERY_PINS = {
    "elliptic-blocks.obj":
        "287f9680c2138f59a9b6bc647f078baae6feeb252e04318296fd5f6aa04790e9",
    "hyperbolic-blocks.obj":
        "7469e34691e7ee680702c836fdfa6bed0ad01c6eac463e285acbc31cc5e72161",
    "hyperbolic-general.obj":
        "7726257e9ca3564fe53e3f7a723419aa9074c6a1c821b13e0ec11722c0307a16",
    "parabolic-blocks.obj":
        "40df1d55b8be504cc03191cad81dc19a89766804ca546fe2fffe7b8d2e1865a9",
    "parabolic-general.obj":
        "4243f494f06ea49f9ab46bbd2a64b7b6eba9502fb1109d632ec3c058c6359dd5",
    "ruled-convolution.obj":
        "33f09689ed56057406fafa4acb991edabe7f77e035884a7c9d98164caf4e4a7c",
}
RULED_ARGV = ["ruled", "--A", "1", "--B", "0.5", "--C", "0.3", "--D", "0.2",
              "--phi-range", "0,3", "--lambda-range", "-1,1",
              "--grid", "40x40", "-o"]
RULED_PIN = "f4300188103f22092a8bc89d19656e4c810d7f6c5c9d09fc2aaa91b6e9256422"

_obj_pins = pytest.mark.skipif(
    np.__version__ != OBJ_PINS_NUMPY,
    reason="digests recorded under numpy %s" % OBJ_PINS_NUMPY)


def _sha256(path):
    return hashlib.sha256(path.read_bytes()).hexdigest()


@_obj_pins
def test_gallery_objs_match_their_pins(tmp_path):
    assert main(["gallery", "-o", str(tmp_path)]) == 0
    assert {p.name: _sha256(p) for p in tmp_path.iterdir()} == GALLERY_PINS


@_obj_pins
def test_ruled_obj_with_polylines_matches_its_pin(tmp_path):
    out = tmp_path / "ruled.obj"
    assert main(RULED_ARGV + [str(out)]) == 0
    assert out.read_text().count("\nl ") == 9
    assert _sha256(out) == RULED_PIN


# sha256 of outputs under `--config` holding guard=0.3, recorded under
# numpy 2.4.6; each one differs from its unguarded run, so together they
# pin the guard's path into blocks, rotated blocks, tilde blocks,
# convolutions and field specs
_WINDOW = ["--grid", "60x50", "--range", "-2,2,-1.5,1.5"]
GUARDED_PINS = [
    (["generate", "--surface", "r5"] + _WINDOW + ["-o"],
     "5f32a97b8db973da526364dcb4a6ffc15a2245715a390feb7caa1de0760fa556"),
    (["generate", "--surface", "r6@theta=-0.7"] + _WINDOW + ["-o"],
     "426e8ea3ea444b224d48ed27b623ed0894342b53ffccf8672b2ffd4a13a10d6f"),
    (["generate", "--surface", "r3~@theta=0.2"] + _WINDOW + ["-o"],
     "9f96bbec48ec6ea0cb7522cbf6851df6e2363dd9abb988cac1790bc9ebf6de61"),
    (["generate", "--surface", "conv(1*r1,0.5*r3@theta=0.3,0.3*r5)"]
     + _WINDOW + ["-o"],
     "3f71fbc349895cd91c908926f45c2d0d57680d17e7ab9725619b46eee015b674"),
    (["generate", "--surface", "field:sum(1*hyperbolic(a2=0.3,c1=0.4,"
      "alpha1=1),0.5*elliptic(a1=1,a3=-1))"] + _WINDOW + ["-o"],
     "482682c1742c0adb7d2c14fd542f2b2db36a6971bba6b7a242dc244408d76880"),
    (["isotropic", "--surface", "r6", "-o"],
     "2d539be57ae044098f72e21ec554376051df638d267b7f9af787811250db8ccf"),
    (_verify("conv(1*r1,0.5*r2,0.4*r3@theta=0.3)", ALL_CHECKS),
     "00b3833dc1e0dd2ceeaedff7f9f278898fa957b8de752c4f991b733fd98232a0"),
]


@_obj_pins
@pytest.mark.parametrize("argv, digest", GUARDED_PINS,
                         ids=[" ".join(a[:3]) for a, _ in GUARDED_PINS])
def test_guarded_output_matches_its_pin(tmp_path, argv, digest):
    cfg = tmp_path / "g.cfg"
    cfg.write_text("guard=0.3\n")
    out = tmp_path / "out"
    assert main(argv[:1] + ["--config", str(cfg)] + argv[1:] + [str(out)]) == 0
    assert _sha256(out) == digest
