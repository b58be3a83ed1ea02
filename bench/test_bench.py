"""Self-test of the benchmark: seeded inputs, failure counting, tracing.

    python3 -m pytest -q bench

Takes about two minutes: it runs small passes in child processes and
each workload once on a seed other than the default.
"""

import json
import os
import shutil
import subprocess
import sys

import numpy as np
import pytest

import checks
import run
import workloads

sys.path.insert(0, run.SRC)

OTHER_SEED = 7


def _generate_job(spec, out, grid=(40, 30)):
    window = [-2.0, 2.0, -1.5, 1.5]
    return {"id": "generate-" + spec, "kind": "generate", "spec": spec,
            "grid": list(grid), "window": window, "outputs": [out],
            "argv": ["generate", "--surface", spec,
                     "--grid", "%dx%d" % grid,
                     "--range", ",".join(str(t) for t in window), "-o", out]}


def _failed_frac(verdicts):
    attempted, failed = run.tally({"passes": [{"verdicts": verdicts}]})
    return failed / attempted


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_inputs_follow_the_seed(workload):
    same = workloads.make_jobs(workload, OTHER_SEED)
    assert workloads.make_jobs(workload, OTHER_SEED) == same
    other = workloads.make_jobs(workload, OTHER_SEED + 1)
    assert other != same
    # the seed changes coefficients, not which jobs run
    assert sorted(j["id"] for j in other[0]) == sorted(j["id"] for j in same[0])


def test_corrupt_vertex_and_failing_check_count_as_failures(tmp_path):
    workdir = str(tmp_path)
    good = _generate_job("r5", "r5.obj")
    failing = {"id": "stationarity-x4", "kind": "verify",
               "spec": "field:poly(x^4)", "checks": ["stationarity"],
               "outputs": ["x4.json"],
               "argv": ["verify", "--surface", "field:poly(x^4)",
                        "--checks", "stationarity", "--report", "x4.json"]}
    result = run.run_child(workdir, [good, failing])
    first = run.judge_pass(result, [good, failing], workdir, None,
                           np.random.default_rng(0), None)
    assert first[0]["problems"] == []
    assert first[1]["problems"] == ["exit code 1"]
    assert _failed_frac(first[1:]) == 1.0

    # so does a job that raised in the child
    raised = {"jobs": [{"rc": None, "error": "ValueError: boom"}]}
    verdicts = run.judge_pass(raised, [good], workdir, None,
                              np.random.default_rng(0), None)
    assert verdicts[0]["problems"] == ["raised ValueError: boom"]

    # the report alone also shows the failed check
    assert checks.check_verify(failing, os.path.join(workdir, "x4.json")) == [
        "check stationarity failed"]

    path = os.path.join(workdir, "r5.obj")
    with open(path, encoding="utf-8") as fh:
        lines = fh.read().split("\n")
    k = next(i for i, ln in enumerate(lines) if ln.startswith("v ")) + 500
    x, y, z = (float(t) for t in lines[k].split()[1:])
    lines[k] = "v %.17g %.17g %.17g" % (x * (1 + 1e-9), y, z)
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("\n".join(lines))
    corrupted = run.judge_pass(result, [good], workdir, None,
                               np.random.default_rng(0), None)
    assert any("vertex 500" in p for p in corrupted[0]["problems"])
    assert _failed_frac(corrupted) == 1.0

    # a later pass that writes other bytes than the first fails too
    later = run.judge_pass(result, [good], workdir, first[:1],
                           np.random.default_rng(0), None)
    assert later[0]["problems"] == ["outputs differ from the first pass"]


def test_obj_reader_rejects_short_records(tmp_path):
    path = tmp_path / "bad.obj"
    path.write_text("v 1 2 3\nv 4 5\nf 1 2 1 2\n")
    with pytest.raises(ValueError):
        checks.read_obj(str(path))


def test_traced_counts_repeat_and_see_every_single_point_call(tmp_path):
    workdir = str(tmp_path)
    jobs = [{"id": "isotropic-r2", "kind": "isotropic", "spec": "r2",
             "grid": [100, 100], "outputs": ["r2.obj"],
             "argv": ["isotropic", "--surface", "r2", "-o", "r2.obj"]},
            _generate_job("conv(1*r1,0.5*r3@theta=0.3)", "conv.obj")]
    spans = [run.run_child(workdir, jobs, trace=True)["spans"]
             for _ in range(2)]
    assert spans[0]["reconstruct.isotropic_image.single_point_calls"] == 10000
    # r2 is not immersed: every point is tried alone and none has an image
    assert spans[0]["meshing.vertices"] == 40 * 30
    assert spans[0]["cli.main.calls"] == 2
    assert spans[0]["jets.mul.calls"] > 0
    counts = [k for k in spans[0] if not k.endswith("_s")]
    assert {k: spans[0][k] for k in counts} == {k: spans[1][k] for k in counts}


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_workload_is_clean_on_another_seed(workload):
    proc = subprocess.run(
        [sys.executable, os.path.join(run.HERE, "run.py"), "--workload",
         workload, "--seed", str(OTHER_SEED), "--seconds", "1"],
        cwd=run.ROOT, capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert result["correct"] and result["failed"] == 0
    assert set(result["metrics"]) == {"setup_s", "wall_s", "peak_rss_mb"}


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copytree(run.HERE, tmp_path / "bench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(os.path.join(run.ROOT, "BENCHMARK.json"), tmp_path)
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "export", "--seed",
         "0", "--seconds", "1"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert proc.stdout == ""


def test_times_are_scaled_by_the_reference_timed_in_the_same_child():
    fast = {"setup_s": 0.2, "wall_s": 3.0, "peak_rss_mb": 100.0,
            "traced": False, "ref_s": [run.REF_NOMINAL_S] * 3}
    slow = dict(fast, setup_s=0.4, wall_s=6.0,
                ref_s=[2 * run.REF_NOMINAL_S] * 3)
    record = {"probes": [fast, slow], "passes": [fast, slow, slow]}
    assert run.end_to_end_values(record) == {
        "setup_s": 0.2, "wall_s": 3.0, "peak_rss_mb": 100.0}
    assert run.end_to_end_values(record, scaled=False)["wall_s"] == 6.0
