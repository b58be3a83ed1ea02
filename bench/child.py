"""One benchmark pass in a fresh interpreter.

    python3 child.py JOBS_JSON RESULT_JSON SPAWN_TIME TRACE

SPAWN_TIME is the parent's ``time.monotonic()`` just before it started
this process; ``setup_s`` runs from then until ``import lagmin.cli``
returns (CLOCK_MONOTONIC is system-wide on Linux).  The jobs then run
one after another through ``lagmin.cli.main``, between two timings of
a fixed reference kernel that tell how fast the machine ran.  An empty
job list measures set-up and the reference only.  Run with the working
directory holding the inputs.
"""

import sys
import time

REF_REPS = 5            # reference timings before the jobs, and after


def reference_kernel():
    """Fixed work that does not touch lagmin, in the mix the workloads
    run: float formatting, loops building tuples, and numpy operations
    on large and on tiny arrays."""
    import numpy as np

    x = np.linspace(-2.0, 2.0, 100000)
    text = "\n".join("v %.17g %.17g %.17g" % (a, a * a, -a) for a in x[:14000])
    cells = [(int(i), int(i) + 1) for i in np.nonzero(x[:50000] > 0)[0]]
    big = float(np.hypot(np.sin(x), np.cos(x)).sum())
    small = np.ones(3)
    for _ in range(4500):
        small = small * 1.000001 + small[::-1] * 1e-9
    return len(text) + len(cells) + big + float(small.sum())


def time_reference():
    out = []
    for _ in range(REF_REPS):
        t = time.perf_counter()
        reference_kernel()
        out.append(time.perf_counter() - t)
    return out


def _environment():
    import os
    import platform

    import numpy as np

    ld = np.finfo(np.longdouble)
    cpu = platform.machine()
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "longdouble": {"dtype": str(ld.dtype), "precision": int(ld.precision),
                       "nmant": int(ld.nmant), "eps": str(ld.eps)},
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "cpu_model": cpu,
        "LAGMIN_THREADS": os.environ.get("LAGMIN_THREADS"),
        "OPENBLAS_NUM_THREADS": os.environ.get("OPENBLAS_NUM_THREADS"),
    }


def main(spawn_time):
    import lagmin.cli

    setup_s = time.monotonic() - spawn_time
    # Everything else is imported after the set-up measurement.
    import json
    import resource
    import traceback

    with open(sys.argv[1], encoding="utf-8") as fh:
        jobs = json.load(fh)
    tracer = None
    if sys.argv[4] == "1":
        import spans  # beside this script, so on sys.path

        tracer = spans.install()
    ref_s = time_reference()
    results = []
    t0 = time.perf_counter()
    for job in jobs:
        t = time.perf_counter()
        try:
            rc, error = lagmin.cli.main(list(job["argv"])), None
        except Exception:  # a job that raises fails; the pass goes on
            rc, error = None, traceback.format_exc(limit=-3)
        results.append({"rc": rc, "error": error,
                        "elapsed_s": time.perf_counter() - t})
    wall_s = time.perf_counter() - t0
    if jobs:
        ref_s += time_reference()
    out = {
        "setup_s": setup_s,
        "wall_s": wall_s,
        "ref_s": ref_s,
        "peak_rss_mb":
            resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "jobs": results,
        "environment": _environment(),
    }
    if tracer is not None:
        out["spans"] = tracer.metrics()
    with open(sys.argv[2], "w", encoding="utf-8") as fh:
        json.dump(out, fh)


if __name__ == "__main__":
    main(float(sys.argv[3]))
