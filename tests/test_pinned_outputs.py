"""Every output that the benchmark pins, regenerated in-process from the
seed-0 job lists of bench/workloads.py and compared with the sha256
digests recorded in bench/digests.json (both read, never written), and
the outputs that the benchmark does not pin (the gallery, a ruled patch
with its ruling polylines, and outputs under a `--config` guard),
compared with digests kept here.  The digests hold for the numpy version
they were recorded under; under any other the comparison is skipped."""
import hashlib
import importlib.util
import json
from pathlib import Path

import numpy as np
import pytest

from lagmin.cli import main

ROOT = Path(__file__).resolve().parents[1]
PINS = json.loads((ROOT / "bench" / "digests.json").read_text())

_spec = importlib.util.spec_from_file_location(
    "bench_workloads", ROOT / "bench" / "workloads.py")
workloads = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(workloads)

# (workload, job, the workload's input files) of every seed-0 job
JOBS = [(w, job, files) for w in workloads.WORKLOADS
        for jobs, files in [workloads.make_jobs(w, 0)] for job in jobs]


def test_the_compared_outputs_are_exactly_the_pinned_ones():
    compared = [(w, name) for w, job, _ in JOBS for name in job["outputs"]]
    pinned = {(w, name) for w, names in PINS["workloads"].items()
              for name in names}
    assert len(set(compared)) == len(compared)
    assert set(compared) == pinned


@pytest.mark.skipif(np.__version__ != PINS["numpy"],
                    reason="digests recorded under numpy %s" % PINS["numpy"])
@pytest.mark.parametrize("workload, job, files", JOBS,
                         ids=[",".join(j["outputs"]) for _, j, _ in JOBS])
def test_block_output_matches_its_benchmark_pin(tmp_path, monkeypatch,
                                               workload, job, files):
    monkeypatch.chdir(tmp_path)
    for fname, text in files.items():
        (tmp_path / fname).write_text(text)
    assert main(job["argv"]) == 0
    for name in job["outputs"]:
        digest = hashlib.sha256((tmp_path / name).read_bytes()).hexdigest()
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
    (["verify", "--surface", "conv(1*r1,0.5*r2,0.4*r3@theta=0.3)",
      "--checks", workloads.ALL_CHECKS, "--report"],
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
