#!/usr/bin/env python3
"""qdpsens benchmark.

Run from the root of a source checkout; the package is imported from
``src/`` and nothing is installed::

    python3 perfbench/run.py --workload certify_long --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --seed 1          # every workload, one after another

One run sets up one workload, warms it up, then runs its op in a closed loop
(the next op starts when the previous one and its correctness gate are done)
until the ops have taken ``--seconds`` of timed wall time. Gates and input
generation run outside the timed region. A raising op, or one whose gate
fails, counts as failed and the loop continues.

With ``--trace 0`` the run reports the end-to-end metrics of BENCHMARK.json.
With ``--trace 1`` it spends the first half of the time untraced and the
second half with every layer in ``workloads.LAYERS`` wrapped, then reports
the per-layer metrics (medians per traced op) and writes the raw spans to
``.perfbench-out/``. Either way, the last line of standard output is one JSON
object with ``correct``, ``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import tempfile
import time
import traceback

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
PACKAGE = "qdpsens"
# One BLAS thread: the default two moved certify_long by ~25% on a 2-CPU
# machine, and a single thread is less exposed to other load on the host.
BLAS_THREADS = 1
BLAS_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
# Set-up repetitions before and after the timed loop: sampling the host at
# both ends of the run steadies the median against slow stretches.
SETUP_REPS = (4, 3)
# Seconds the small reference computation takes on a quiet host of the
# machine described in README.md; set-up times are rescaled to that speed.
REFERENCE_NOMINAL_S = 0.008
TAIL_BEYOND = 10


def load_spec() -> dict:
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        return json.load(fh)


def import_package():
    """Import the package from this checkout's ``src/``; raise if it is not there."""
    if not os.path.isfile(os.path.join(SRC, PACKAGE, "__init__.py")):
        raise SystemExit(f"error: no {PACKAGE} sources under {SRC}")
    if SRC not in sys.path:
        sys.path.insert(0, SRC)
    import qdpsens
    import workloads

    if not os.path.abspath(qdpsens.__file__).startswith(SRC + os.sep):
        raise SystemExit(f"error: imported {qdpsens.__file__}, not the checkout's sources")
    return workloads


def environment(args) -> dict:
    import numpy as np
    import scipy

    def blas(mod):
        return mod.__config__.CONFIG["Build Dependencies"]["blas"].get("version")

    return {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "nproc": len(os.sched_getaffinity(0)),
        "blas_threads": BLAS_THREADS, "processes": 1,
        "python": platform.python_version(), "numpy": np.__version__,
        "scipy": scipy.__version__, "numpy_openblas": blas(np), "scipy_openblas": blas(scipy),
    }


def tail(times):
    """Highest nearest-rank percentile with ``TAIL_BEYOND`` samples above it."""
    n = len(times)
    if n <= TAIL_BEYOND:
        return None
    rank = n - TAIL_BEYOND
    return 100.0 * rank / n, sorted(times)[rank - 1]


def run_loop(wl, budget: float, tracer=None, reference=None):
    """Closed loop until the ops have taken ``budget`` seconds.

    Returns the op times, the reference times (one per op, empty without a
    ``reference``) and the number of failed ops. Only the op itself is timed
    and, with a tracer, traced: ``tracer.op`` is the op's index while it runs
    and ``None`` during draws, gates and the reference.
    """
    times, refs, failed = [], [], 0
    while sum(times) < budget:
        inp = wl.draw()
        if tracer is not None:
            tracer.op = len(times)
        start = time.perf_counter()
        try:
            try:
                out = wl.op(inp)
            finally:
                times.append(time.perf_counter() - start)
                if tracer is not None:
                    tracer.op = None
            wl.gate(inp, out)
        except Exception:  # a failing op or gate is counted, not fatal
            failed += 1
            traceback.print_exc(file=sys.stderr)
        if reference is not None:
            start = time.perf_counter()
            reference.run()
            refs.append(time.perf_counter() - start)
    return times, refs, failed


def set_up(name: str, seed: int, workdir: str):
    """Import the package, build the workload's instance, warm up; return the workload."""
    workloads = import_package()
    cls = workloads.WORKLOADS[name]
    wl = cls(seed, workdir, **cls.SIZE)
    wl.setup()
    warm = cls(seed, workdir, **cls.TINY)
    warm.setup()
    inp = warm.draw()
    warm.gate(inp, warm.op(inp))
    return wl


# One set-up repetition in a fresh interpreter, so the package import is paid
# again each time. It prints its own duration, then the median of three runs
# of the small reference computation that follow it.
SETUP_CHILD = """
import statistics, sys, time
start = time.perf_counter()
sys.path.insert(0, sys.argv[1])
import run
run.set_up(sys.argv[2], int(sys.argv[3]), sys.argv[4])
setup = time.perf_counter() - start
import workloads
reference, refs = workloads.Reference(dense=False), []
for _ in range(3):
    start = time.perf_counter()
    reference.run()
    refs.append(time.perf_counter() - start)
print(setup, statistics.median(refs))
"""


def time_set_up(name: str, seed: int, workdir: str, reps: int) -> list:
    """``(set-up, reference)`` seconds of ``reps`` set-ups, each in a fresh interpreter."""
    times = []
    for _ in range(reps):
        child = subprocess.run([sys.executable, "-c", SETUP_CHILD, HERE, name, str(seed), workdir],
                               stdout=subprocess.PIPE, text=True, check=True)
        setup, ref = child.stdout.strip().splitlines()[-1].split()
        times.append((float(setup), float(ref)))
    return times


def run_workload(args, spec) -> dict:
    for var in BLAS_VARS:
        os.environ[var] = str(BLAS_THREADS)
    workloads = import_package()
    from tracer import Tracer

    print("env " + json.dumps(environment(args)), flush=True)
    with tempfile.TemporaryDirectory(dir=ROOT, prefix=".perfbench-") as workdir:
        if not args.trace:
            before, after = SETUP_REPS
            setups = time_set_up(args.workload, args.seed, workdir, before)
            wl = set_up(args.workload, args.seed, workdir)
            reference = workloads.Reference(dense=wl.DENSE_REFERENCE)
            times, refs, failed = run_loop(wl, args.seconds, reference=reference)
            setups += time_set_up(args.workload, args.seed, workdir, after)
            values = {
                "op_rel_p50": statistics.median(t / r for t, r in zip(times, refs)),
                "setup_s": REFERENCE_NOMINAL_S * statistics.median(s / r for s, r in setups),
                "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
            }
            tail_at = tail(times)
            notes = {
                "ops_per_s": f"{(len(times) - failed) / sum(times):.6g} 1/s",
                "op_p50_s": f"{statistics.median(times):.6g} s",
                "op_best_s": f"{min(times):.6g} s",
                "reference_p50_s": f"{statistics.median(refs):.6g} s",
                "setup_p50_raw_s": f"{statistics.median(s for s, _ in setups):.6g} s",
                "op_tail_s": (f"{tail_at[1]:.6g} s at p{tail_at[0]:.1f} "
                              f"({TAIL_BEYOND} of {len(times)} ops beyond)") if tail_at
                else f"n/a ({len(times)} ops; needs more than {TAIL_BEYOND})",
                "fail_frac": f"{failed / len(times):.6g} ({failed}/{len(times)})",
            }
            kind = "end_to_end"
        else:
            wl = set_up(args.workload, args.seed, workdir)
            plain, _, failed_plain = run_loop(wl, args.seconds / 2.0)
            tracer = Tracer(PACKAGE, workloads.LAYERS)
            with tracer:
                traced, _, failed_traced = run_loop(wl, args.seconds / 2.0, tracer)
            times, failed = plain + traced, failed_plain + failed_traced
            values = tracer.medians(range(len(traced)))
            values["trace.ops_per_s"] = (len(traced) - failed_traced) / sum(traced)
            values["trace.untraced_ops_per_s"] = (len(plain) - failed_plain) / sum(plain)
            out_dir = os.path.join(ROOT, ".perfbench-out")
            os.makedirs(out_dir, exist_ok=True)
            spans = os.path.join(out_dir, f"spans-{args.workload}-seed{args.seed}.jsonl")
            tracer.write(spans)
            notes = {"spans": f"{len(tracer.spans)} written to {os.path.relpath(spans, ROOT)}",
                     "untraced_layers": ", ".join(tracer.missing) or "none"}
            kind = "per_layer"

    metrics = {}
    for entry in spec[kind]:
        name = entry["name"]
        metrics[name] = {"value": values[name], "unit": entry["unit"]}
        print(f"{args.workload} {name} = {values[name]:.6g} {entry['unit']}")
    for name, note in notes.items():
        print(f"{args.workload} {name}: {note}")
    return {"correct": failed == 0, "attempted": len(times), "failed": failed,
            "metrics": metrics}


def run_all(args, spec) -> int:
    """Each workload in a child process, so each has its own peak RSS and import."""
    status = 0
    for name in [w["name"] for w in spec["workloads"]]:
        child = subprocess.run([sys.executable, os.path.abspath(__file__), "--workload", name,
                                "--seed", str(args.seed), "--seconds", str(args.seconds),
                                "--trace", str(args.trace)])
        status = status or child.returncode
    return status


def main(argv=None) -> int:
    spec = load_spec()
    names = [w["name"] for w in spec["workloads"]]
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=names + ["all"], default="all")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=spec["run_seconds"])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not args.seconds > 0:
        parser.error("--seconds must be positive")
    if args.workload == "all":
        return run_all(args, spec)
    result = run_workload(args, spec)
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
