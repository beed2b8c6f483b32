"""Self-test of the benchmark.

    python3 perfbench/selftest.py

Runs a reduced form of every workload in BENCHMARK.json, untraced and
traced, and checks that each run passes its output checks and reports
exactly the metrics BENCHMARK.json names, with their units.  Then checks
that the benchmark exits non-zero, printing no result, in a directory that
holds only BENCHMARK.json and the benchmark's own files.  Takes about a
minute.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
RESULT_KEYS = {"correct", "attempted", "failed", "metrics"}


def run_bench(cwd, workload, trace):
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload,
           "--seconds", "1", "--trace", str(trace), "--reduced"]
    return subprocess.run(cmd, cwd=cwd, capture_output=True, text=True,
                          timeout=180)


def main():
    with open(ROOT / "BENCHMARK.json") as fh:
        bench = json.load(fh)
    expected = {0: {m["name"]: m["unit"] for m in bench["end_to_end"]},
                1: {m["name"]: m["unit"] for m in bench["per_layer"]}}
    problems = []
    for workload in (w["name"] for w in bench["workloads"]):
        for trace in (0, 1):
            proc = run_bench(ROOT, workload, trace)
            where = f"{workload} --trace {trace}"
            lines = proc.stdout.strip().splitlines()
            if proc.returncode != 0 or not lines:
                problems.append(f"{where}: exit {proc.returncode}\n"
                                f"{proc.stderr}")
                continue
            res = json.loads(lines[-1])
            units = {k: v["unit"] for k, v in res["metrics"].items()}
            if set(res) != RESULT_KEYS:
                problems.append(f"{where}: result keys {sorted(res)}")
            if not (res["correct"] and res["failed"] == 0
                    and res["attempted"] >= 1):
                problems.append(f"{where}: checks failed\n{proc.stdout}")
            if units != expected[trace]:
                problems.append(f"{where}: metrics {units}, "
                                f"expected {expected[trace]}")
            print(f"{where}: {len(units)} metrics, "
                  f"{res['attempted']} checks passed", flush=True)

    bare = ROOT / ".perfbench_runs" / "selftest-bare"
    shutil.rmtree(bare, ignore_errors=True)
    shutil.copytree(ROOT / "perfbench", bare / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", bare)
    proc = run_bench(bare, bench["workloads"][0]["name"], 0)
    if proc.returncode == 0 or '"metrics"' in proc.stdout:
        problems.append("without package sources the benchmark did not "
                        f"fail: exit {proc.returncode}\n{proc.stdout}")
    else:
        print(f"without package sources: exit {proc.returncode}, no result")
    shutil.rmtree(bare)

    for p in problems:
        print("FAIL " + p, file=sys.stderr)
    print("self-test " + ("failed" if problems else "passed"))
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
