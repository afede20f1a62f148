#!/usr/bin/env python3
"""Benchmark of the torictate CLI.

    python3 bench/run.py --workload <name|all> --seed N --seconds S --trace 0|1

Runs one workload's fixed CLI commands (bench/workloads.py) on fixtures/
through torictate.cli.main, in this process, one command at a time: a
closed loop with one caller and no threads. Passes over the workload repeat
while they fit into S seconds (at least one pass); the seed permutes
the command order within each pass. Every command's exit code and stdout
are compared byte for byte with bench/reference.json.

--trace 0 reports the end-to-end metrics:
  setup_s      median time, over 15 fresh interpreters started at points
               spread over the run with one BLAS thread, to import torictate
               and parse_input the workload's documents
  pass_s       median wall time of one pass over the commands
  peak_rss_mb  peak resident memory of this process
and prints error_rate (mismatched or raising commands over commands
attempted), per-command times and a host-drift probe alongside them.

--trace 1 adds, after the untraced passes, one pass with every layer of
bench/tracer.py wrapped, and reports per-layer calls, self time and work
counts, each command's median untraced time (cmd.<id>_s) and the tracing
overhead. It also checks each command group's zero-call and busy
predictions and that every original function object is put back.

--workload all runs every workload in its own interpreter and ends with one
JSON line holding all results and the host description.

The last line of stdout is one JSON object with the keys correct, attempted,
failed and metrics.
"""

import argparse
import contextlib
import ctypes
import functools
import gc
import io
import json
import os
import platform
import random
import resource
import statistics
import subprocess
import sys
import time
import traceback
from collections import defaultdict
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
REFERENCE = BENCH / "reference.json"
sys.path.insert(0, str(BENCH))

from workloads import GROUPS, WORKLOADS, all_commands, commands, documents  # noqa: E402

SETUP_SAMPLES = 15
# One BLAS thread in the set-up interpreters. With numpy's default, OpenBLAS
# starts a thread pool at import whose start-up (about 0.07 s) overlapped with
# the import in some periods and not in others, so that set-up read about
# 0.19 s or 0.25 s depending on the period (bench/README.md).
SETUP_ENV = dict(os.environ, OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1")
E2E = {"setup_s", "pass_s", "peak_rss_mb"}
PROBE_REPEATS = 3

# Runs in a fresh interpreter from the checkout root; prints seconds spent.
SETUP_CHILD = """
import json, sys, time
t0 = time.perf_counter()
sys.path.insert(0, "src")
from torictate.cli import parse_input
for path in sys.argv[1:]:
    with open(path) as fh:
        parse_input(json.load(fh))
print(time.perf_counter() - t0)
"""


def drift_probe():
    """Median time of a fixed pure-Python loop. Printed next to the metrics
    so that host drift can be told from a regression; not a metric."""
    times = []
    for _ in range(PROBE_REPEATS):
        t0 = time.perf_counter()
        s = 0
        for i in range(1_000_000):
            s += i * i % 7
        times.append(time.perf_counter() - t0)
    return statistics.median(times)


def setup_time(docs):
    """One fresh interpreter's time to import torictate and parse the docs."""
    proc = subprocess.run([sys.executable, "-c", SETUP_CHILD] + docs, cwd=ROOT, env=SETUP_ENV,
                          capture_output=True, text=True, timeout=120, check=True)
    return float(proc.stdout.strip().splitlines()[-1])


def load_program():
    if not (ROOT / "src" / "torictate" / "cli.py").is_file() or not (ROOT / "fixtures").is_dir():
        raise FileNotFoundError("no torictate checkout at %s (needs src/torictate and fixtures/)" % ROOT)
    sys.path.insert(0, str(ROOT / "src"))
    os.chdir(ROOT)  # the commands name their fixtures relative to the root
    import torictate.cli

    return torictate.cli


def run_command(cli, argv):
    """(exit code, stdout) of one CLI invocation, run in this process."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = cli.main(list(argv))
        except SystemExit as exc:
            code = 0 if exc.code is None else exc.code if isinstance(exc.code, int) else 1
    return code, out.getvalue()


@functools.lru_cache(maxsize=None)
def _malloc_trim():
    try:
        libc = ctypes.CDLL("libc.so.6")
    except OSError:
        return None
    libc.malloc_trim.argtypes = [ctypes.c_size_t]
    libc.malloc_trim.restype = ctypes.c_int
    return libc.malloc_trim


def fresh_heap():
    """Collect garbage and hand freed heap pages back to the OS (glibc only),
    so that each command starts, as a CLI invocation does, from the base heap
    and peak_rss_mb does not depend on the command order."""
    gc.collect()
    trim = _malloc_trim()
    if trim is not None:
        trim(0)


def run_pass(cli, order, reference, cmd_times, tracer=None, before_command=None):
    """Run the commands in order; returns how many failed."""
    failed = 0
    for cid, argv in order:
        if before_command is not None:
            before_command()
        fresh_heap()
        t0 = time.perf_counter()
        try:
            got = run_command(cli, argv)
        except Exception:
            traceback.print_exc()
            got = None
        cmd_times[cid].append(time.perf_counter() - t0)
        if tracer is not None:
            tracer.end_command(cid)
        want = reference[cid]
        if got != (want["exit"], want["stdout"]):
            failed += 1
            print("MISMATCH %s: %s" % (cid, "raised" if got is None else "exit %d" % got[0]),
                  file=sys.stderr)
    return failed


def per_layer_names():
    from tracer import layer_metrics

    names = [(n, u) for n, u, _ in layer_metrics()]
    names += [("cmd.%s_s" % cid, "s") for cid, _ in all_commands()]
    names.append(("trace_overhead_frac", "ratio"))
    return names


def timed_passes(cli, workload, reference, rng, seconds, docs=None):
    """Untraced passes while a typical pass still fits into the window, at
    least one. Given docs, also takes SETUP_SAMPLES set-up times spread over
    the window: before each command as many as are due by then, the rest
    after the passes. Sampling time is kept off the window's clock. Returns
    (pass times, per-command times, set-up times, attempted, failed)."""
    passes, cmd_times, setups = [], defaultdict(list), []
    attempted = failed = 0
    start, sampling = time.perf_counter(), 0.0

    def clock():
        return time.perf_counter() - start - sampling

    def sample(due):
        nonlocal sampling
        t0 = time.perf_counter()
        while docs and len(setups) < due:
            setups.append(setup_time(docs))
        sampling += time.perf_counter() - t0

    def before_command():
        sample(min(SETUP_SAMPLES, 1 + int(clock() / seconds * SETUP_SAMPLES)))

    while not passes or clock() + statistics.median(passes) <= seconds:
        order = commands(workload)
        rng.shuffle(order)
        pass_times = defaultdict(list)
        failed += run_pass(cli, order, reference, pass_times, before_command=before_command)
        passes.append(sum(t for ts in pass_times.values() for t in ts))
        for cid, ts in pass_times.items():
            cmd_times[cid] += ts
        attempted += len(order)
    sample(SETUP_SAMPLES)
    return passes, cmd_times, setups, attempted, failed


def traced_pass(cli, workload, reference, rng):
    """One pass with every layer wrapped. Returns (layer metrics, pass time,
    failed, problems), problems being broken per-group call predictions or
    wrappers left behind or originals not put back."""
    from tracer import Tracer, bindings, leftover_wrappers

    order = commands(workload)
    rng.shuffle(order)
    originals = bindings()
    tracer = Tracer()
    tracer.install()
    times = defaultdict(list)
    try:
        failed = run_pass(cli, order, reference, times, tracer)
    finally:
        tracer.restore()
    problems = ["not restored: %s" % n for n in leftover_wrappers()]
    restored = bindings()
    problems += ["original not put back: %s.%s" % (owner.__name__, attr)
                 for (owner, attr), fn in originals.items() if restored.get((owner, attr)) is not fn]
    for g in workload.groups:
        group = GROUPS[g]
        calls = defaultdict(int)
        for cid, _ in group.commands:
            for layer, n in tracer.command_calls[cid].items():
                calls[layer] += n
        problems += ["%s: %s called %d times, predicted 0" % (g, n, calls[n]) for n in group.zero if calls[n]]
        problems += ["%s: %s never called, predicted busy" % (g, n) for n in group.busy if not calls[n]]
    return tracer.metrics(), sum(t for ts in times.values() for t in ts), failed, problems


def measure(name, seed, seconds, trace):
    workload = WORKLOADS[name]
    cli = load_program()
    probe = drift_probe()
    reference = json.loads(REFERENCE.read_text())
    rng = random.Random(seed)
    docs = None if trace else documents(workload)
    passes, cmd_times, setups, attempted, failed = timed_passes(cli, workload, reference, rng,
                                                                seconds, docs)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    pass_s = statistics.median(passes)
    cmd_s = {cid: statistics.median(cmd_times[cid]) for cid, _ in commands(workload)}

    problems = []
    if trace:
        from tracer import LAYERS

        layer, traced_s, traced_failed, problems = traced_pass(cli, workload, reference, rng)
        attempted += len(commands(workload))
        failed += traced_failed
        for cid, t in cmd_s.items():
            layer["cmd.%s_s" % cid] = t
        layer["trace_overhead_frac"] = traced_s / pass_s - 1.0
        metrics = {n: {"value": layer.get(n, 0), "unit": u} for n, u in per_layer_names()}
        for base in sorted((spec[0] for spec in LAYERS), key=lambda b: -layer[b + ".self_s"]):
            if layer[base + ".calls"]:
                print("%-48s calls %9d  self %9.4f s" % (base, layer[base + ".calls"], layer[base + ".self_s"]))
        print("traced pass %.4f s, untraced pass %.4f s" % (traced_s, pass_s))
    else:
        metrics = {
            "setup_s": {"value": statistics.median(setups), "unit": "s"},
            "pass_s": {"value": pass_s, "unit": "s"},
            "peak_rss_mb": {"value": peak_rss_mb, "unit": "MB"},
        }
        print("setup_s      %.4f s (median of %d fresh interpreters)" % (metrics["setup_s"]["value"], len(setups)))
        print("setups       %s s" % " ".join("%.4f" % t for t in setups))
        # a tail percentile needs ten samples beyond it; runs make 1-3 passes
        print("pass_s       %.4f s (median of %d passes)" % (pass_s, len(passes)))
        print("passes       %s s" % " ".join("%.4f" % t for t in passes))
        print("peak_rss_mb  %.1f MB" % peak_rss_mb)
    for cid, t in cmd_s.items():
        print("cmd.%s_s %.4f s" % (cid, t))
    print("error_rate   %g (%d of %d commands)" % (failed / attempted, failed, attempted))
    print("probe_s      %.4f s (host-drift probe, not a metric)" % probe)
    for p in problems:
        print("PROBLEM %s" % p, file=sys.stderr)
    return {"correct": failed == 0 and not problems, "attempted": attempted,
            "failed": failed, "metrics": metrics}


def host():
    import numpy

    try:
        rev = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                             text=True, timeout=30).stdout.strip() or "unknown"
    except OSError:
        rev = "unknown"
    return {"rev": rev, "nproc": os.cpu_count(), "python": platform.python_version(),
            "numpy": numpy.__version__}


def run_all(args):
    results = {}
    for name in WORKLOADS:
        proc = subprocess.run([sys.executable, str(Path(__file__).resolve()), "--workload", name,
                               "--seed", str(args.seed), "--seconds", str(args.seconds),
                               "--trace", str(args.trace)],
                              cwd=ROOT, capture_output=True, text=True, timeout=900)
        sys.stderr.write(proc.stderr)
        lines = proc.stdout.splitlines()
        if proc.returncode != 0 or not lines:
            print("workload %s exited %d" % (name, proc.returncode), file=sys.stderr)
            return 1
        for line in lines[:-1]:
            print("%-18s %s" % (name, line))
        results[name] = json.loads(lines[-1])
    doc = dict(host(), seed=args.seed, seconds=args.seconds, trace=args.trace, workloads=results)
    print(json.dumps(doc, sort_keys=True))
    return 0


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS) + ["all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args()
    if args.workload == "all":
        return run_all(args)
    try:
        result = measure(args.workload, args.seed, args.seconds, args.trace)
    except FileNotFoundError as exc:
        print("error: %s" % exc, file=sys.stderr)
        return 2
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
