"""lagmin benchmark: one workload, closed loop, one child process at a time.

    python3 bench/run.py --workload export --seed 0 --seconds 35 --trace 0

Run from the root of a checkout; the program is imported from ``src``.
Each pass is a fresh interpreter (``child.py``) that imports ``lagmin``
and calls ``lagmin.cli.main(argv)`` for each job in turn, each job
waiting for the one before.  Passes repeat while the next one fits in
``--seconds`` (at least two).  The outputs of the first pass are checked
in full; every later pass must write the same bytes.

``--trace 0`` reports the end-to-end metrics of BENCHMARK.json: medians
over passes of ``wall_s`` and ``peak_rss_mb``, and the median ``setup_s``
over every child started.  ``--trace 1`` alternates traced and untraced
passes and reports the per-layer metrics; every count must repeat
exactly across traced passes.  The last line of standard output is the
result as JSON; the line before it is the run record.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import time

import numpy as np

import checks  # beside this script, so on sys.path
import workloads

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
CHILD = os.path.join(HERE, "child.py")
DIGESTS = os.path.join(HERE, "digests.json")
WORK = os.path.join(ROOT, ".bench_work")

DEFAULT_SEED = 0       # the seed whose output digests are stored
# Median time of child.reference_kernel on the machine named in LAYERS.md.
# Each child's times are reported in reference seconds: scaled by
# REF_NOMINAL_S / (the kernel's median time in that child), which takes out
# the host's drift in speed.  The run record keeps the measured times too.
REF_NOMINAL_S = 0.035
SETUP_PROBES = 8       # import-only children per run, for setup_s
CHILD_TIMEOUT_S = 150


class BenchError(Exception):
    """The benchmark could not measure; no result is printed."""


def child_env():
    """Environment of every child: the program from src, one BLAS thread,
    and no LAGMIN_THREADS, which would switch meshing to a thread pool."""
    env = dict(os.environ)
    env.pop("LAGMIN_THREADS", None)
    env.update(PYTHONPATH=SRC, PYTHONHASHSEED="0", OMP_NUM_THREADS="1",
               OPENBLAS_NUM_THREADS="1", MKL_NUM_THREADS="1")
    return env


def run_child(workdir, jobs, trace=False):
    """Run one child over `jobs` in `workdir` and return its result."""
    jobs_path = os.path.join(workdir, "jobs.json")
    result_path = os.path.join(workdir, "result.json")
    with open(jobs_path, "w", encoding="utf-8") as fh:
        json.dump(jobs, fh)
    if os.path.exists(result_path):
        os.unlink(result_path)
    spawn = time.monotonic()
    try:
        proc = subprocess.run(
            [sys.executable, CHILD, jobs_path, result_path, repr(spawn),
             "1" if trace else "0"],
            cwd=workdir, env=child_env(), stdout=subprocess.DEVNULL,
            stderr=subprocess.PIPE, timeout=CHILD_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        raise BenchError("a pass took more than %d s" % CHILD_TIMEOUT_S)
    if proc.returncode != 0 or not os.path.exists(result_path):
        tail = proc.stderr.decode("utf-8", "replace").strip()[-2000:]
        raise BenchError("child exited with %d: %s" % (proc.returncode, tail))
    with open(result_path, encoding="utf-8") as fh:
        result = json.load(fh)
    result["child_s"] = time.monotonic() - spawn
    return result


def load_digests(workload, seed):
    """(digests the outputs must have, "compared"), or (None, why not)."""
    if seed != DEFAULT_SEED:
        return None, "seed %d has no stored digests" % seed
    try:
        with open(DIGESTS, encoding="utf-8") as fh:
            stored = json.load(fh)
    except OSError:
        return None, "no stored digests"
    if stored.get("numpy") != np.__version__:
        return None, "digests were recorded with numpy %s" % stored.get("numpy")
    if workload not in stored["workloads"]:
        return None, "no stored digests for this workload"
    return stored["workloads"][workload], "compared"


def output_digests(workdir, job):
    out = {}
    for name in job["outputs"]:
        path = os.path.join(workdir, name)
        out[name] = checks.sha256(path) if os.path.exists(path) else None
    return out


def judge_pass(result, jobs, workdir, first, rng, stored):
    """Per job of one pass: problems, and the digests of its outputs.

    The first pass (`first` is None) is checked in full and against the
    stored digests; a later pass must match the first one's bytes."""
    verdicts = []
    for i, (job, res) in enumerate(zip(jobs, result["jobs"])):
        problems = []
        if res["error"] is not None:
            problems.append("raised " + res["error"])
        elif res["rc"] != 0:
            problems.append("exit code %r" % (res["rc"],))
        digests = output_digests(workdir, job)
        if first is None:
            if not problems:
                problems += checks.check_job(job, workdir, rng)
            for name, digest in digests.items():
                if stored is not None and stored.get(name) != digest:
                    problems.append("%s differs from the stored output" % name)
        else:
            if first[i]["digests"] != digests:
                problems.append("outputs differ from the first pass")
            problems += first[i]["problems"]
        verdicts.append({"id": job["id"], "problems": problems,
                         "digests": digests})
    return verdicts


def measure(workload, seed, seconds, trace, workdir, stored):
    """Run the passes of one workload; return the run record.  `stored`
    maps output names to the digests they must have, or is None."""
    jobs, files = workloads.make_jobs(workload, seed)
    for name, text in files.items():
        with open(os.path.join(workdir, name), "w", encoding="utf-8") as fh:
            fh.write(text)

    warm = run_child(workdir, [])           # compiles bytecode, not timed
    probes = [run_child(workdir, []) for _ in range(SETUP_PROBES)]

    # A traced run alternates traced and untraced passes, starting traced,
    # so that it has two traced passes to compare counts and one untraced.
    min_passes = 3 if trace else 2
    passes = []
    first = None
    spent = 0.0                             # in passes; checks not counted
    while True:
        k = len(passes)
        traced = trace and k % 2 == 0
        result = run_child(workdir, jobs, trace=traced)
        result["traced"] = traced
        result["verdicts"] = judge_pass(result, jobs, workdir, first,
                                        np.random.default_rng(seed), stored)
        first = first or result["verdicts"]
        passes.append(result)
        spent += result["child_s"]
        if k + 1 >= min_passes and spent + result["child_s"] > seconds:
            break
    return {"workload": workload, "seed": seed, "jobs": len(jobs),
            "environment": warm["environment"], "probes": probes,
            "passes": passes}


def _speed(child):
    """Factor from a child's seconds to reference seconds, from the
    reference kernel timed in that same child."""
    return REF_NOMINAL_S / statistics.median(child["ref_s"])


def _median(children, key, scaled=True):
    return statistics.median(c[key] * (_speed(c) if scaled else 1.0)
                             for c in children)


def _split(record):
    traced = [p for p in record["passes"] if p["traced"]]
    plain = [p for p in record["passes"] if not p["traced"]]
    return traced, plain


def end_to_end_values(record, scaled=True):
    """setup_s over every child, wall_s and peak_rss_mb over untraced
    passes: medians, times in reference seconds unless not `scaled`."""
    _, plain = _split(record)
    return {"setup_s": _median(record["probes"] + record["passes"],
                               "setup_s", scaled),
            "wall_s": _median(plain, "wall_s", scaled),
            "peak_rss_mb": _median(plain, "peak_rss_mb", scaled=False)}


def layer_values(record, spec):
    """Per-layer metrics from the traced passes: medians of times, and
    counts that must repeat exactly."""
    traced, plain = _split(record)
    values = {"trace.wall_s": _median(traced, "wall_s")}
    values["trace.overhead_s"] = values["trace.wall_s"] - _median(plain,
                                                                  "wall_s")
    for m in spec["per_layer"]:
        name = m["name"]
        if name in values:
            continue
        per_pass = [p["spans"].get(name, 0) * (_speed(p) if m["unit"] == "s"
                                                else 1) for p in traced]
        if m["unit"] != "count":
            values[name] = statistics.median(per_pass)
        elif len(set(per_pass)) == 1:
            values[name] = per_pass[0]
        else:
            raise BenchError("count %s differs across repeats: %s"
                             % (name, per_pass))
    return values


def with_units(values, metrics):
    return {m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
            for m in metrics}


def tally(record):
    """(attempted, failed) jobs over all passes."""
    verdicts = [v for p in record["passes"] for v in p["verdicts"]]
    return len(verdicts), sum(bool(v["problems"]) for v in verdicts)


def summary_lines(record, attempted, failed):
    _, plain = _split(record)
    scaled = end_to_end_values(record)
    measured = end_to_end_values(record, scaled=False)
    walls = sorted(p["wall_s"] for p in plain)
    children = record["probes"] + record["passes"]
    lines = ["workload %s seed %d: %d jobs x %d passes (%d traced)"
             % (record["workload"], record["seed"], record["jobs"],
                len(record["passes"]), len(record["passes"]) - len(plain)),
             "  times in reference seconds; the reference kernel took "
             "%.3f x its nominal time" % (1.0 / statistics.median(
                 _speed(c) for c in children)),
             "  setup_s      %.4f s   (median of %d children; measured %.4f)"
             % (scaled["setup_s"], len(children), measured["setup_s"]),
             "  wall_s       %.4f s   (median of %d passes; measured %.4f, "
             "range %.4f-%.4f)" % (scaled["wall_s"], len(walls),
                                   measured["wall_s"], walls[0], walls[-1]),
             "  peak_rss_mb  %.1f MB" % scaled["peak_rss_mb"],
             "  failed_frac  %.4f    (%d of %d jobs)"
             % (failed / attempted, failed, attempted)]
    seen = set()
    for p in record["passes"]:
        for v in p["verdicts"]:
            for problem in v["problems"]:
                if (v["id"], problem) not in seen:
                    seen.add((v["id"], problem))
                    lines.append("  FAIL %s: %s" % (v["id"], problem))
    return lines


def run_record(record, attempted, failed):
    """What the run measured, on and in which environment, as JSON."""
    out = {k: record[k] for k in ("workload", "seed", "jobs", "environment",
                                  "digests")}
    out["failed_frac"] = failed / attempted
    out["measured"] = end_to_end_values(record, scaled=False)
    out["probes"] = [{"setup_s": c["setup_s"], "ref_s": c["ref_s"]}
                     for c in record["probes"]]
    out["passes"] = [
        {"traced": p["traced"], "wall_s": p["wall_s"], "setup_s": p["setup_s"],
         "peak_rss_mb": p["peak_rss_mb"], "ref_s": p["ref_s"],
         "job_s": [j["elapsed_s"] for j in p["jobs"]],
         "failed_jobs": [v["id"] for v in p["verdicts"] if v["problems"]]}
        for p in record["passes"]]
    return out


def _record_digests(record):
    try:
        with open(DIGESTS, encoding="utf-8") as fh:
            stored = json.load(fh)
    except OSError:
        stored = {}
    if stored.get("numpy") != np.__version__:
        stored = {"numpy": np.__version__, "workloads": {}}
    digests = {}
    for v in record["passes"][0]["verdicts"]:
        digests.update(v["digests"])
    stored["workloads"][record["workload"]] = digests
    with open(DIGESTS, "w", encoding="utf-8") as fh:
        json.dump(stored, fh, indent=1, sort_keys=True)
        fh.write("\n")


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    ap.add_argument("--seed", type=int, default=DEFAULT_SEED)
    ap.add_argument("--seconds", type=float, default=35.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--record-digests", action="store_true",
                    help="store the outputs' digests as the reference "
                         "(default seed only)")
    args = ap.parse_args(argv)
    if args.seed < 0:
        ap.error("--seed must be >= 0")
    if args.record_digests and args.seed != DEFAULT_SEED:
        ap.error("--record-digests needs the default seed %d" % DEFAULT_SEED)
    if not os.path.isfile(os.path.join(SRC, "lagmin", "cli.py")):
        print("error: no lagmin sources under %s" % SRC, file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)     # the checks evaluate references in-process
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)

    # On SIGTERM, unwind: subprocess.run kills and reaps the running child,
    # and the work directory is removed.
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    os.makedirs(WORK, exist_ok=True)
    workdir = tempfile.mkdtemp(prefix=args.workload + "-", dir=WORK)
    stored, note = ((None, "recorded by this run") if args.record_digests
                    else load_digests(args.workload, args.seed))
    try:
        record = measure(args.workload, args.seed, args.seconds,
                         bool(args.trace), workdir, stored)
        record["digests"] = note
        attempted, failed = tally(record)
        metrics = (with_units(layer_values(record, spec), spec["per_layer"])
                   if args.trace else
                   with_units(end_to_end_values(record), spec["end_to_end"]))
    except BenchError as exc:
        print("error:", exc, file=sys.stderr)
        return 3
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    if args.record_digests:
        if failed:
            print("error: digests are recorded only from a clean run",
                  file=sys.stderr)
            return 2
        _record_digests(record)
    print("\n".join(summary_lines(record, attempted, failed)))
    print("record: " + json.dumps(run_record(record, attempted, failed),
                                  sort_keys=True))
    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
