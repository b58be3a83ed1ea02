"""Seeded job lists for the three benchmark workloads.

A job is the argv handed to ``lagmin.cli.main`` plus what the checker
needs to know about its outputs.  The seed changes only coefficients:
convolution weights and angle, field coefficients, mesh windows and
circle-file geometry.  It never changes which blocks, subcommands or
code paths run.  The block specs of ``isotropic`` take no coefficient
that keeps the code path fixed (rotating r8 or r11 sends them down the
single-point path too), so there the seed only permutes the job order.

Sampling seeds of ``verify`` stay at the CLI default: the program gets
generated inputs, never the benchmark's own seed.
"""

from __future__ import annotations

import json

import numpy as np

WORKLOADS = ("export", "certify", "isotropic")

# Blocks with a frozen cone-family tangency plan (13 families in all).
TANGENCY_BLOCKS = ("r1", "r4", "r5", "r6", "r7", "r8", "r9", "r10", "r11",
                   "r1~", "r3~")

# The 15 names of lagmin.surfaces.BLOCK_NAMES, written out so that the
# job list does not depend on importing the program.
BLOCK_NAMES = ("r1", "r2", "r3", "r4", "r5", "r6", "r7", "r8", "r9", "r10",
               "r11", "r1~", "r3~", "r4~", "r6~")

ALL_CHECKS = "biharmonic,gaussmap,ruling,curvature,stationarity"


def _num(x) -> str:
    # six decimals keep argv short and make it exactly reproducible
    return "%.6f" % float(x)


def _fname(name: str) -> str:
    return name.replace("~", "t")


def _conv_spec(rng) -> str:
    a1, a2, a3 = rng.uniform((0.5, 0.2, 0.2), (1.5, 0.8, 0.8))
    theta = rng.uniform(-1.0, 1.0)
    return "conv(%s*r1,%s*r2,%s*r3@theta=%s)" % (
        _num(a1), _num(a2), _num(a3), _num(theta))


def _hyperbolic_spec(rng) -> str:
    base = (("a2", 0.3), ("c1", 0.4), ("alpha1", 1.0), ("beta2", 0.5),
            ("gamma1", 0.2))
    scale = rng.uniform(0.5, 1.5, len(base))
    return "field:hyperbolic(%s)" % ",".join(
        "%s=%s" % (k, _num(v * s)) for (k, v), s in zip(base, scale))


def _window(rng):
    jitter = rng.uniform(-0.05, 0.05, 4)
    return tuple(float(_num(b + j))
                 for b, j in zip((-2.0, 2.0, -2.0, 2.0), jitter))


def _export(rng):
    jobs = []
    for tag, spec in (("conv", _conv_spec(rng)),
                      ("hyperbolic", _hyperbolic_spec(rng)),
                      ("r5", "r5")):
        window = _window(rng)
        out = "export-%s.obj" % tag
        jobs.append({
            "id": "generate-" + tag, "kind": "generate", "spec": spec,
            "grid": [400, 400], "window": list(window), "outputs": [out],
            "argv": ["generate", "--surface", spec, "--grid", "400x400",
                     "--range", ",".join(_num(t) for t in window),
                     "-o", out],
        })
    return jobs, {}


def _verify_job(jid, spec, checks, report):
    return {"id": jid, "kind": "verify", "spec": spec,
            "checks": checks.split(","), "outputs": [report],
            "argv": ["verify", "--surface", spec, "--checks", checks,
                     "--report", report]}


def _pencils(rng):
    """Circle families of each pencil type, with the tag and base points
    the classifier must report."""
    p = rng.uniform(-1.0, 1.0, 2)
    q = rng.uniform(-1.0, 1.0, 2)
    while np.linalg.norm(p - q) < 0.5:
        q = rng.uniform(-1.0, 1.0, 2)
    d = (q - p) / np.linalg.norm(q - p)
    normal = np.array([-d[1], d[0]])
    mid = 0.5 * (p + q)
    ts = np.sort(rng.uniform(-1.5, 1.5, 5))
    ks = np.concatenate([rng.uniform(0.2, 0.8, 3), rng.uniform(1.3, 3.0, 2)])
    families = {
        # circles through p and q
        "elliptic": ([(mid + t * normal, np.linalg.norm(mid + t * normal - p))
                      for t in ts], [p, q]),
        # Apollonius circles |x - p| = k |x - q|, limit points p and q
        "hyperbolic": ([((p - k * k * q) / (1 - k * k),
                         k * np.linalg.norm(p - q) / abs(1 - k * k))
                        for k in ks], [p, q]),
        # circles tangent to each other at p
        "parabolic": ([(p + t * normal, abs(t)) for t in ts + 0.05 * np.sign(ts)],
                      [p]),
        "not-a-pencil": ([(rng.uniform(-1.0, 1.0, 2), rng.uniform(0.2, 1.0))
                          for _ in range(5)], []),
    }
    files = {}
    jobs = []
    for tag, (circles, base) in families.items():
        src = "circles-%s.jsonl" % tag
        report = "pencil-%s.json" % tag
        files[src] = "".join(
            json.dumps({"center": [float(c[0]), float(c[1])],
                        "radius": float(r)}) + "\n" for c, r in circles)
        jobs.append({"id": "pencil-" + tag, "kind": "pencil", "tag": tag,
                     "base_points": [[float(x) for x in b] for b in base],
                     "outputs": [report],
                     "argv": ["classify-pencil", "--input", src,
                              "--report", report]})
    return jobs, files


def _certify(rng):
    jobs = [_verify_job("verify-r1", "r1", ALL_CHECKS, "verify-r1.json"),
            _verify_job("verify-conv", _conv_spec(rng), ALL_CHECKS,
                        "verify-conv.json")]
    jobs += [_verify_job("tangency-" + b, b, "tangency",
                         "tangency-%s.json" % _fname(b))
             for b in TANGENCY_BLOCKS]
    jobs += [_verify_job("biharmonic-" + b, b, "biharmonic",
                         "biharmonic-%s.json" % _fname(b))
             for b in BLOCK_NAMES]
    pencil_jobs, files = _pencils(rng)
    return jobs + pencil_jobs, files


def _isotropic(rng):
    jobs = []
    for b in rng.permutation(BLOCK_NAMES):
        b = str(b)
        out = "isotropic-%s.obj" % _fname(b)
        jobs.append({"id": "isotropic-" + b, "kind": "isotropic", "spec": b,
                     "grid": [100, 100], "outputs": [out],
                     "argv": ["isotropic", "--surface", b, "-o", out]})
    return jobs, {}


def make_jobs(workload: str, seed: int):
    """(jobs, input files) for a workload; the same seed gives the same
    argv and file contents."""
    builders = {"export": _export, "certify": _certify,
                "isotropic": _isotropic}
    return builders[workload](np.random.default_rng([int(seed), 1011]))
