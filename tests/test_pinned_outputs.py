"""The benchmark's pinned outputs that depend only on block names,
regenerated in-process and compared with the sha256 digests recorded in
bench/digests.json (read, never written).  The digests hold for the numpy
version they were recorded under; under any other the comparison is
skipped."""
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
        # r2's image takes the single-point path, 10^4 evaluations
        if b != "r2":
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
    assert len(JOBS) == 41
    assert len({name for _, name, _ in JOBS}) == 41


@pytest.mark.skipif(np.__version__ != PINS["numpy"],
                    reason="digests recorded under numpy %s" % PINS["numpy"])
@pytest.mark.parametrize("workload, name, argv", JOBS, ids=[j[1] for j in JOBS])
def test_block_output_matches_its_benchmark_pin(tmp_path, workload, name,
                                               argv):
    out = tmp_path / name
    assert main(argv + [str(out)]) == 0
    digest = hashlib.sha256(out.read_bytes()).hexdigest()
    assert digest == PINS["workloads"][workload][name]
