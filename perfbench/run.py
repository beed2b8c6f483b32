"""quenchlab benchmark.

    python3 perfbench/run.py --workload presets|wide-chain|oracle-2x2 \\
        [--seed N] [--seconds S] [--trace 0|1]

Run it from the root of a source checkout; the package is imported from
./src, never from an installed copy.  Each repetition of the workload runs
in a fresh child interpreter (child.py), one at a time, so that peak RSS
belongs to one workload.  The BLAS/OpenMP pools are pinned in the child's
environment, before numpy loads, to the number of CPUs this process may
use.  Repetitions start while the median repetition still fits in
--seconds, and the run reports medians:

  --trace 0   wall_s, setup_s and peak_rss_mb, untraced
  --trace 1   the per-layer metrics of traced repetitions, which alternate
              with untraced ones so that trace.overhead_pct compares them

Set-up is also sampled by children that only import, so every run has
several set-up samples.  Every output check of every repetition, and the
byte comparison of each repetition's data files with the first one's,
counts in `attempted` and `failed`; error_rate is failed / attempted.
The last line of standard output is one JSON object with the result.
Run outputs go to .perfbench_runs/ in the checkout.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
CHILD = Path(__file__).resolve().parent / "child.py"
WORKLOADS = ("presets", "wide-chain", "oracle-2x2")
DEFAULT_SEED = 0
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "NUMEXPR_NUM_THREADS")
SETUP_PROBES = 5
MIN_REPS = 3            # untraced; a traced run needs two of each kind
CHILD_TIMEOUT_S = 150


def unit(name):
    for suffix, u in (("_mb_per_s", "MB/s"), ("_per_s", "1/s"),
                      ("_pct", "%"), ("_mb", "MB"), ("_s", "s"),
                      ("bytes_written", "B")):
        if name.endswith(suffix):
            return u
    return "count"


def child_env(threads):
    env = dict(os.environ)
    for var in THREAD_VARS:
        env[var] = str(threads)
    src = str(ROOT / "src")
    env["PYTHONPATH"] = src + os.pathsep + env["PYTHONPATH"] \
        if env.get("PYTHONPATH") else src
    return env


def spawn(env, rep_dir, args=(), trace=False):
    """Run one child; return its set-up time, elapsed time and result.

    result is None when the child failed before reporting.
    """
    rep_dir.mkdir(parents=True)
    cmd = [sys.executable, str(CHILD), "--dir", str(rep_dir),
           "--trace", str(int(trace)), *args]
    t0 = time.perf_counter()
    with open(rep_dir / "stderr.txt", "w") as err:
        proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, stderr=err,
                                env=env, cwd=ROOT, text=True)
        timer = threading.Timer(CHILD_TIMEOUT_S, proc.kill)
        timer.start()
        try:
            ready = proc.stdout.readline()
            setup = time.perf_counter() - t0
            out = proc.stdout.read()
            proc.wait()
        finally:
            timer.cancel()
            proc.kill()
            proc.wait()
    elapsed = time.perf_counter() - t0
    result = None
    lines = out.strip().splitlines()
    if ready.strip() == "ready" and proc.returncode == 0:
        try:
            result = json.loads(lines[-1]) if lines else {}
        except json.JSONDecodeError:
            pass
    return {"setup_s": setup, "elapsed_s": elapsed, "result": result,
            "returncode": proc.returncode}


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0], values[0]
    return tuple(statistics.quantiles(values, n=4, method="inclusive"))


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=DEFAULT_SEED)
    ap.add_argument("--seconds", type=float, default=42.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--reduced", action="store_true",
                    help="small form of the workload, for the self-test")
    args = ap.parse_args(argv)

    if not (ROOT / "src" / "quenchlab" / "__init__.py").is_file():
        print(f"error: no quenchlab sources under {ROOT / 'src'}; run from "
              "the root of a quenchlab checkout", file=sys.stderr)
        return 2

    name = args.workload + ("-reduced" if args.reduced else "")
    out = ROOT / ".perfbench_runs" / f"{name}-trace{args.trace}"
    shutil.rmtree(out, ignore_errors=True)
    threads = len(os.sched_getaffinity(0))
    env = child_env(threads)
    deadline = time.perf_counter() + args.seconds

    # The first child compiles bytecode and warms the file cache.
    probes = [spawn(env, out / f"probe{i}")
              for i in range(SETUP_PROBES + 1)]
    if any(p["result"] is None for p in probes):
        print(f"error: a set-up child failed; see {out}/probe*/stderr.txt",
              file=sys.stderr)
        return 1
    setups = [p["setup_s"] for p in probes[1:]]

    child_args = ["--workload", args.workload, "--seed", str(args.seed)]
    if args.reduced:
        child_args.append("--reduced")
    min_reps = 4 if args.trace else MIN_REPS
    reps, durations, failures = [], [], []
    attempted = failed = 0
    reference = None
    while (len(reps) < min_reps or
           time.perf_counter() + statistics.median(durations) <= deadline):
        i = len(reps)
        traced = bool(args.trace) and i % 2 == 1
        rep_dir = out / f"rep{i}"
        rep = spawn(env, rep_dir, child_args, trace=traced)
        rep["traced"] = traced
        reps.append(rep)
        durations.append(rep["elapsed_s"])
        setups.append(rep["setup_s"])
        res = rep["result"]
        if not res or "checks" not in res:
            attempted += 1
            failed += 1
            failures.append(f"rep{i}: child exited with code "
                            f"{rep['returncode']}; see {rep_dir}/stderr.txt")
            continue
        for c in res["checks"]:
            attempted += 1
            if not c["ok"]:
                failed += 1
                failures.append(f"rep{i}: {c['name']}: {c['detail']}")
        if reference is None:
            reference = res["files"]
        else:
            attempted += 1
            if res["files"] != reference:
                failed += 1
                failures.append(f"rep{i}: data files differ from rep0's")
            shutil.rmtree(rep_dir / "data")

    done = [r for r in reps if r["result"] and "checks" in r["result"]]
    plain = [r["result"] for r in done if not r["traced"]]
    traced = [r["result"] for r in done if r["traced"]]
    if not plain or (args.trace and not traced):
        print("error: no repetition completed:\n  " + "\n  ".join(failures),
              file=sys.stderr)
        return 1

    samples = {"wall_s": [r["wall_s"] for r in plain], "setup_s": setups,
               "peak_rss_mb": [r["peak_rss_mb"] for r in plain]}
    if args.trace:
        samples = {k: [r["layers"][k] for r in traced]
                   for k in traced[0]["layers"]}
        wall_traced = statistics.median(r["wall_s"] for r in traced)
        wall_plain = statistics.median(r["wall_s"] for r in plain)
        samples["trace.overhead_pct"] = [100.0 * (wall_traced / wall_plain
                                                  - 1.0)]
    metrics = {k: {"value": statistics.median(v), "unit": unit(k)}
               for k, v in samples.items()}

    versions = plain[0]["versions"]
    machine = {"nproc": os.cpu_count(), "cpus_usable": threads,
               "python": versions["python"], "numpy": versions["numpy"],
               "blas": versions["blas"],
               "blas_threads_env": versions["blas_threads_env"]}
    print("machine: " + " ".join(f"{k}={v}" for k, v in machine.items()))
    print(f"workload={args.workload} seed={args.seed} trace={args.trace} "
          f"reduced={int(args.reduced)} repetitions={len(reps)} "
          f"({len(traced)} traced)")
    for k, v in samples.items():
        q1, _, q3 = quartiles(v)
        print(f"  {k:30s} {statistics.median(v):14.6g} {unit(k):6s} "
              f"quartiles {q1:.6g} .. {q3:.6g}  n={len(v)}")
    print(f"  {'error_rate':30s} {failed / attempted:14.6g} "
          f"{'1':6s} {failed} failed / {attempted} attempted")
    for line in failures:
        print(f"  FAILED {line}")

    summary = {"correct": failed == 0, "attempted": attempted,
               "failed": failed, "metrics": metrics}
    with open(out / "result.json", "w") as fh:
        json.dump({**summary, "machine": machine, "args": vars(args),
                   "failures": failures, "samples": samples}, fh, indent=2)
    print(json.dumps(summary))
    return 0


if __name__ == "__main__":
    sys.exit(main())
