"""One repetition of a benchmark workload in a fresh interpreter.

Started by run.py with the package's ``src`` directory on PYTHONPATH and
the BLAS/OpenMP thread counts already set in the environment.  The child
imports numpy and every quenchlab submodule, prints ``ready`` (the parent
times set-up up to that line), runs the workload, checks its outputs and
prints one JSON line with the measurements.  Without ``--workload`` it
stops after ``ready``, which gives the parent extra set-up samples.
"""

from __future__ import annotations

import argparse
import hashlib
import importlib
import json
import os
import resource
import sys
import time
import traceback
from pathlib import Path
from types import SimpleNamespace

import numpy

import tracing
import workloads

ROOT = Path(__file__).resolve().parent.parent


def _import_package():
    mods = {layer: importlib.import_module(f"quenchlab.{layer}")
            for layer in tracing.LAYERS}
    where = Path(mods["cli"].__file__).resolve().parent
    if where != ROOT / "src" / "quenchlab":
        raise SystemExit(f"quenchlab imported from {where}, "
                         f"not from {ROOT / 'src' / 'quenchlab'}")
    return mods


def _versions():
    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas['name']} {blas['version']}"
    except (KeyError, TypeError):
        blas = None
    return {"python": sys.version.split()[0], "numpy": numpy.__version__,
            "blas": blas,
            "blas_threads_env": os.environ.get("OPENBLAS_NUM_THREADS")}


def _data_files(data):
    """Size and SHA-256 of every dataset; manifest.json holds wall times."""
    return {p.name: [p.stat().st_size,
                     hashlib.sha256(p.read_bytes()).hexdigest()]
            for p in sorted(data.iterdir()) if p.name != "manifest.json"}


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload")
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--dir")
    ap.add_argument("--trace", type=int, default=0)
    ap.add_argument("--reduced", action="store_true")
    args = ap.parse_args()

    mods = _import_package()
    print("ready", flush=True)
    if args.workload is None:
        return 0

    work = Path(args.dir)
    data = work / "data"
    data.mkdir(parents=True)
    q = SimpleNamespace(**mods)
    run, check = workloads.WORKLOADS[args.workload]
    tracer = tracing.Tracer() if args.trace else None
    if tracer:
        tracer.install(mods)

    error = None
    t0 = time.perf_counter()
    try:
        ctx = run(q, args.seed, args.reduced, work, data)
    except Exception:
        error = traceback.format_exc()
    wall = time.perf_counter() - t0
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    if tracer:
        tracer.uninstall()

    checks = []

    def expect(name, ok, detail=None):
        checks.append({"name": name, "ok": bool(ok), "detail": repr(detail)})

    if error is None:
        try:
            check(q, ctx, data, expect)
        except Exception:
            expect("output checks completed", False, traceback.format_exc())
    else:
        expect("workload completed", False, error)

    files = _data_files(data)
    result = {"wall_s": wall, "peak_rss_mb": peak_rss_mb, "checks": checks,
              "files": files, "versions": _versions()}
    if tracer:
        spans = tracer.export(t0)
        with open(work / "spans.json", "w") as fh:
            json.dump(spans, fh)
        result["layers"] = tracing.layer_metrics(
            spans, sum(size for size, _ in files.values()))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
