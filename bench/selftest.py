#!/usr/bin/env python3
"""Checks of the benchmark's tracing.

    python3 bench/selftest.py [workload ...]

1. BENCHMARK.json declares exactly the workloads and metrics reported.
2. Per workload (default: all), a traced run in a fresh interpreter is
   correct and reports every per-layer metric. A traced run is correct only
   if its stdout matches the reference byte for byte, every group's
   zero-call and busy predictions hold and every original function object
   is put back after the traced pass (run.py's traced_pass).

Exits non-zero on the first failed check.
"""

import json
import subprocess
import sys
from pathlib import Path

from run import E2E, per_layer_names
from workloads import WORKLOADS


def check_traced_run(name):
    run_py = Path(__file__).resolve().parent / "run.py"
    proc = subprocess.run([sys.executable, str(run_py), "--workload", name, "--seed", "0",
                           "--seconds", "1", "--trace", "1"],
                          capture_output=True, text=True, timeout=900)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.splitlines()[-1])
    assert result["correct"] and result["failed"] == 0, (name, proc.stderr)
    assert set(result["metrics"]) == {n for n, _ in per_layer_names()}, name
    print("%s: traced run correct" % name)


def check_benchmark_json():
    doc = json.loads((Path(__file__).resolve().parent.parent / "BENCHMARK.json").read_text())
    assert [w["name"] for w in doc["workloads"]] == list(WORKLOADS)
    assert {m["name"] for m in doc["end_to_end"]} == E2E
    assert [(m["name"], m["unit"]) for m in doc["per_layer"]] == per_layer_names()
    print("BENCHMARK.json matches the workloads and metrics the harness reports")


def main(names):
    check_benchmark_json()
    for name in names or list(WORKLOADS):
        check_traced_run(name)
    print("selftest passed")


if __name__ == "__main__":
    main(sys.argv[1:])
