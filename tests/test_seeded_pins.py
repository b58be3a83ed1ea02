"""The benchmark's pinned outputs whose argv or input file the benchmark
seed writes: the three seed-0 exports, the seeded convolution's reports and
the four pencil reports.  Their argv and circle files come from
bench/workloads.py (read, never written), they run in-process, and their
sha256 is compared with bench/digests.json.  With tests/test_pinned_outputs.py
this covers every pinned byte.  The digests hold for the numpy version they
were recorded under; under any other the comparison is skipped."""
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

SEEDED = {
    "export": ("export-conv.obj", "export-hyperbolic.obj", "export-r5.obj"),
    "certify": ("verify-conv.json", "pencil-elliptic.json",
                "pencil-hyperbolic.json", "pencil-parabolic.json",
                "pencil-not-a-pencil.json"),
}


def _jobs():
    """(workload, output file, argv, input files) of each seeded output."""
    out = []
    for workload, names in SEEDED.items():
        jobs, files = workloads.make_jobs(workload, 0)
        by_output = {job["outputs"][0]: job for job in jobs}
        out += [(workload, name, by_output[name]["argv"], files)
                for name in names]
    return out


JOBS = _jobs()


def test_every_pin_but_r2_isotropic_is_compared_in_the_suite():
    # 41 block outputs in tests/test_pinned_outputs.py, 8 seeded ones here
    pinned = {(w, name) for w, names in PINS["workloads"].items()
              for name in names}
    seeded = {(w, name) for w, name, _, _ in JOBS}
    assert len(seeded) == 8 and seeded <= pinned
    assert ("isotropic", "isotropic-r2.obj") in pinned
    assert len(pinned) == 41 + len(seeded) + 1


@pytest.mark.skipif(np.__version__ != PINS["numpy"],
                    reason="digests recorded under numpy %s" % PINS["numpy"])
@pytest.mark.parametrize("workload, name, argv, files", JOBS,
                         ids=[j[1] for j in JOBS])
def test_seeded_output_matches_its_benchmark_pin(tmp_path, monkeypatch,
                                                 workload, name, argv, files):
    monkeypatch.chdir(tmp_path)
    for fname, text in files.items():
        (tmp_path / fname).write_text(text)
    assert main(list(argv)) == 0
    digest = hashlib.sha256((tmp_path / name).read_bytes()).hexdigest()
    assert digest == PINS["workloads"][workload][name]
