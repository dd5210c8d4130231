"""One benchmark process: set up a workload, then run it as a closed loop.

``run.py`` starts this file with the BLAS thread count already in its
environment, so it holds before numpy is imported.  It prints one JSON
object on its last stdout line.

With ``--probe`` the process stops after set-up and reports only the
set-up time, which ``run.py`` samples several times per run.
"""

import argparse
import hashlib
import json
import math
import os
import resource
import statistics
import sys
import time
import traceback

import numpy as np
import scipy

import hoibc2d
import tracing
import workloads

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def machine_facts():
    def blas(config):
        dep = config.get("Build Dependencies", {}).get("blas", {})
        return dep.get("openblas configuration") or \
            f"{dep.get('name')} {dep.get('version')}"

    return {
        "nproc": len(os.sched_getaffinity(0)),
        "python": sys.version.split()[0],
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "numpy_blas": blas(np.show_config(mode="dicts")),
        "scipy_blas": blas(scipy.show_config(mode="dicts")),
        "blas_threads": int(os.environ["OPENBLAS_NUM_THREADS"]),
    }


def curves_digest(curves):
    h = hashlib.sha256()
    for name in sorted(curves):
        h.update(name.encode())
        h.update(curves[name].tobytes())
    return h.hexdigest()


def attempt(workload, inp, tracer=None):
    """Run one operation; return (seconds, outcome or None, problems)."""
    t0 = time.perf_counter()
    try:
        if tracer is None:
            outcome = workload.operation(inp)
        else:
            with tracing.installed(tracer):
                outcome = workload.operation(inp)
    except Exception:
        seconds = time.perf_counter() - t0
        return seconds, None, [traceback.format_exc()]
    seconds = time.perf_counter() - t0
    problems = list(outcome.problems)
    if not math.isfinite(outcome.rcs_err_dB):
        problems.append(f"oracle error is {outcome.rcs_err_dB}")
    return seconds, outcome, problems


def measure(workload, inp, seconds, trace):
    """Closed loop, one operation at a time, within ``seconds``.

    The loop stops before a step that would, at the mean step time so
    far, end past ``seconds``; it always makes one.  Untraced: a step is
    one plain operation.  Traced: a step is a plain and a traced
    operation, so the tracing overhead is their difference in one process.
    """
    plain, traced, tracers, outcomes, problems = [], [], [], [], []
    start = time.perf_counter()
    while True:
        dt, out, bad = attempt(workload, inp)
        plain.append(dt)
        outcomes.append(out)
        problems.append(bad)
        if trace:
            tracer = tracing.Tracer()
            dt, out, bad = attempt(workload, inp, tracer)
            traced.append(dt)
            tracers.append(tracer)
            outcomes.append(out)
            problems.append(bad)
        elapsed = time.perf_counter() - start
        if elapsed * (len(plain) + 1) / len(plain) > seconds:
            break
    return plain, traced, tracers, outcomes, problems


def layer_report(plain, traced, tracers):
    per_op = [t.layer_metrics() for t in tracers]
    report = {}
    for name in per_op[0]:
        values = [m[name] for m in per_op]
        if name in tracing.COUNTS:
            if len(set(values)) != 1:
                raise RuntimeError(f"count {name} differs between "
                                   f"operations: {values}")
            report[name] = values[0]
        else:
            report[name] = statistics.median(values)
    report["trace.overhead_s"] = statistics.median(traced) - \
        statistics.median(plain)
    report["trace.unattributed_s"] = statistics.median(
        dt - t.top_level_seconds() for dt, t in zip(traced, tracers))
    return report


def main(argv=None):
    p = argparse.ArgumentParser(description=__doc__)
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--spawned-at", type=float, required=True,
                   help="time.monotonic() of the parent just before spawn")
    p.add_argument("--probe", action="store_true")
    args = p.parse_args(argv)

    if not os.path.abspath(hoibc2d.__file__).startswith(
            os.path.join(ROOT, "src") + os.sep):
        raise SystemExit(f"imported {hoibc2d.__file__}, not this checkout")
    workload = workloads.WORKLOADS[args.workload]
    mini = workloads.WARMUPS[args.workload]
    inp = workload.inputs(args.seed)
    warm = mini.inputs(args.seed)
    try:
        mini.operation(warm)
    finally:
        mini.release(warm)
    setup_s = time.monotonic() - args.spawned_at
    if args.probe:
        workload.release(inp)
        print(json.dumps({"setup_s": setup_s}))
        return 0

    try:
        plain, traced, tracers, outcomes, problems = measure(
            workload, inp, args.seconds, args.trace)
    finally:
        workload.release(inp)
    for bad in problems:
        for text in bad:
            print(f"operation failed: {text}", file=sys.stderr)
    good = [o for o, bad in zip(outcomes, problems) if not bad]
    result = {
        "setup_s": setup_s,
        "op_seconds": plain,
        "traced_op_seconds": traced,
        "attempted": len(outcomes),
        "failed": sum(1 for bad in problems if bad),
        "rcs_err_dB": statistics.median(o.rcs_err_dB for o in good)
        if good else None,
        "curves_sha256": sorted({curves_digest(o.curves) for o in good}),
        "peak_rss_mb":
            resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "machine": machine_facts(),
    }
    if args.trace:
        result["layers"] = layer_report(plain, traced, tracers)
        result["spans"] = [t.spans for t in tracers]
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
