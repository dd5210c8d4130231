"""hoibc2d benchmark: time to echo width, oracle error, memory, set-up.

    python3 bench/run.py --workload all          # every workload, 35 s each
    python3 bench/run.py --workload plate-large --seed 3 --seconds 35 --trace 1

Run from the repository root.  Each workload runs as a closed loop: one
client in one worker process, one operation at a time, for ``--seconds``.
The worker gets the BLAS thread count in its environment before it
imports numpy.  The package is imported from ``src/`` of this checkout.

With ``--trace 0`` the result holds the end-to-end metrics; with
``--trace 1`` the per-layer metrics of a traced run (see README.md).
The last stdout line is one JSON object; a table with units goes to
stderr (to stdout for ``--workload all``).  Raw results, machine facts
and spans are written under ``bench/out/``.
"""

import argparse
import json
import os
import signal
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
OUT = os.path.join(HERE, "out")

WORKLOADS = ("orders-cylinder", "monostatic-cylinder", "plate-large")
SETUP_PROBES = 4          # set-up samples besides the measuring worker's
PROBE_TIMEOUT = 60.0
RUN_TIMEOUT = 150.0

END_TO_END_UNITS = {"time_to_rcs_s": "s", "rcs_err_dB": "dB",
                    "peak_rss_mb": "MB", "setup_s": "s"}


def layer_unit(name):
    if name.endswith("_s"):
        return "s"
    if name.endswith("_flops"):
        return "flop"
    if name.endswith("_xmax"):
        return "1"
    return "count"


def blas_threads():
    # two threads where the machine has them; never more than nproc
    return min(2, len(os.sched_getaffinity(0)))


def spawn(argv, env, timeout):
    """Run one worker to completion and parse its last stdout line."""
    cmd = [sys.executable, os.path.join(HERE, "worker.py"), *argv,
           "--spawned-at", repr(time.monotonic())]
    proc = subprocess.run(cmd, env=env, cwd=ROOT, stdout=subprocess.PIPE,
                          timeout=timeout, text=True)
    if proc.returncode != 0:
        raise RuntimeError(f"worker exited with {proc.returncode}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def run_workload(name, seed, seconds, trace):
    threads = str(blas_threads())
    env = dict(os.environ, OPENBLAS_NUM_THREADS=threads,
               OMP_NUM_THREADS=threads,
               PYTHONPATH=os.pathsep.join(
                   p for p in (os.path.join(ROOT, "src"),
                               os.environ.get("PYTHONPATH")) if p))
    argv = ["--workload", name, "--seed", str(seed),
            "--seconds", str(seconds), "--trace", str(trace)]
    setups = [spawn(argv + ["--probe"], env, PROBE_TIMEOUT)["setup_s"]
              for _ in range(SETUP_PROBES)]
    raw = spawn(argv, env, RUN_TIMEOUT)
    setups.append(raw["setup_s"])

    if trace:
        metrics = {k: {"value": v, "unit": layer_unit(k)}
                   for k, v in raw["layers"].items()}
    else:
        values = {"time_to_rcs_s": statistics.median(raw["op_seconds"]),
                  "rcs_err_dB": raw["rcs_err_dB"],
                  "peak_rss_mb": raw["peak_rss_mb"],
                  "setup_s": statistics.median(setups)}
        metrics = {k: {"value": v, "unit": END_TO_END_UNITS[k]}
                   for k, v in values.items()}
    result = {"correct": raw["failed"] == 0 and raw["attempted"] >= 1,
              "attempted": raw["attempted"], "failed": raw["failed"],
              "metrics": metrics}

    os.makedirs(OUT, exist_ok=True)
    with open(os.path.join(OUT, f"{name}-seed{seed}-trace{trace}.json"),
              "w") as fh:
        json.dump({"workload": name, "seed": seed, "seconds": seconds,
                   "result": result, "setup_samples_s": setups, **raw}, fh)
    return result, raw


def table(name, result, raw):
    ops = raw["op_seconds"]
    lines = [f"{name}: {raw['attempted']} operations, {raw['failed']} failed "
             f"(fail_ratio {raw['failed'] / raw['attempted']:.3g}), "
             f"checks {'passed' if result['correct'] else 'FAILED'}"]
    for key, m in result["metrics"].items():
        value = m["value"]
        shown = "n/a" if value is None else f"{value:.6g}"
        lines.append(f"  {key:28s} {shown:>14s} {m['unit']}")
        if key == "time_to_rcs_s":
            lines[-1] += (f"   (median of {len(ops)}; range "
                          f"{min(ops):.4g}-{max(ops):.4g} s)")
    m = raw["machine"]
    lines.append(f"  machine: nproc {m['nproc']}, python {m['python']}, "
                 f"numpy {m['numpy']}, scipy {m['scipy']}, "
                 f"BLAS threads {m['blas_threads']}")
    lines.append(f"  numpy BLAS: {m['numpy_blas']}")
    lines.append(f"  scipy BLAS: {m['scipy_blas']}")
    return "\n".join(lines)


def main(argv=None):
    p = argparse.ArgumentParser(description=__doc__,
                                formatter_class=argparse.RawTextHelpFormatter)
    p.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--seconds", type=float, default=35.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    # a terminated run still kills and reaps its worker (subprocess.run
    # does so when the wait is interrupted by an exception)
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))

    if not os.path.isfile(os.path.join(ROOT, "src", "hoibc2d", "__init__.py")):
        print(f"no hoibc2d sources under {ROOT}/src; run from a checkout",
              file=sys.stderr)
        return 2
    names = WORKLOADS if args.workload == "all" else (args.workload,)
    results = {}
    for name in names:
        result, raw = run_workload(name, args.seed, args.seconds, args.trace)
        report = table(name, result, raw)
        print(report, file=sys.stdout if args.workload == "all" else sys.stderr)
        results[name] = result
    print(json.dumps(results if args.workload == "all" else results[names[0]]))
    return 0


if __name__ == "__main__":
    sys.exit(main())
