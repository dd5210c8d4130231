"""The benchmark's own tests (not part of the package's test suite).

    python3 -m pytest -q bench/selftest.py      # from the repository root

They run every workload at full size, about two minutes in all.
"""

import json
import os
import shutil
import subprocess
import sys
import tempfile

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path[:0] = [os.path.join(ROOT, "src"), HERE]

import run  # noqa: E402
import tracing  # noqa: E402
import worker  # noqa: E402
import workloads  # noqa: E402


def test_names_and_units_match_benchmark_json():
    assert run.WORKLOADS == tuple(workloads.WORKLOADS)
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOADS)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == \
        run.END_TO_END_UNITS
    layers = {m["name"]: m["unit"] for m in spec["per_layer"]}
    assert set(layers) == (set(tracing.SELF_TIME) | set(tracing.DURATION)
                           | set(tracing.COUNTS)
                           | {"trace.overhead_s", "trace.unattributed_s"})
    assert all(run.layer_unit(name) == unit for name, unit in layers.items())


@pytest.mark.parametrize("name", run.WORKLOADS)
def test_seed_repeats_curves_and_counts_do_not_depend_on_it(name):
    w = workloads.WORKLOADS[name]

    def traced_op(seed):
        inp = w.inputs(seed)
        try:
            tracer = tracing.Tracer()
            _, traced, bad = worker.attempt(w, inp, tracer)
            assert bad == []
            _, plain, bad = worker.attempt(w, inp)
            assert bad == []
        finally:
            w.release(inp)
        return tracer.counts, traced, plain

    counts1, traced1, plain1 = traced_op(1)
    assert worker.curves_digest(traced1.curves) == \
        worker.curves_digest(plain1.curves)
    assert traced1.rcs_err_dB == plain1.rcs_err_dB
    counts2, _, _ = traced_op(2)
    assert counts1 == counts2
    assert counts1["specfun.hankel_points"] > 0


class _Probe(workloads.Workload):
    """A small workload that records which wrappers each operation saw."""

    def __init__(self):
        self.inner = workloads.WARMUPS["monostatic-cylinder"]
        self.seen = []

    def inputs(self, seed):
        return self.inner.inputs(seed)

    def operation(self, inp):
        self.seen.append(tracing.installed_wrappers())
        return self.inner.operation(inp)


def _originals():
    return {(m.__name__, a): v for m in tracing._modules()
            for a, v in vars(m).items() if callable(v)}


def test_untraced_run_installs_no_wrapper():
    before = _originals()
    probe = _Probe()
    *_, problems = worker.measure(probe, probe.inputs(0), 0.0, trace=0)
    assert problems == [[]]
    assert probe.seen == [[]]
    assert _originals() == before


def test_traced_run_wraps_every_call_site_and_restores_it():
    before = _originals()
    probe = _Probe()
    *_, problems = worker.measure(probe, probe.inputs(0), 0.0, trace=1)
    assert problems == [[], []]
    untraced, traced = probe.seen
    assert untraced == []
    assert {("hoibc2d.assembly", "hankel2_01_real"),
            ("hoibc2d.analysis", "lu_factor"),
            ("hoibc2d.assembly", "lu_factor"),
            ("hoibc2d.analysis", "build_reduced_system"),
            ("hoibc2d.cli", "fit_coefficients")} <= set(traced)
    assert tracing.installed_wrappers() == []
    assert _originals() == before


def test_fails_without_sources():
    # a copy holding only BENCHMARK.json and bench/, kept inside bench/out
    os.makedirs(os.path.join(HERE, "out"), exist_ok=True)
    bare = tempfile.mkdtemp(prefix="bare-", dir=os.path.join(HERE, "out"))
    try:
        shutil.copytree(HERE, os.path.join(bare, "bench"),
                        ignore=shutil.ignore_patterns("out", "__pycache__"))
        shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
        proc = subprocess.run(
            [sys.executable, "bench/run.py", "--workload", "plate-large",
             "--seed", "0", "--seconds", "1", "--trace", "0"],
            cwd=bare, capture_output=True, text=True, timeout=60,
            env={k: v for k, v in os.environ.items() if k != "PYTHONPATH"})
    finally:
        shutil.rmtree(bare, ignore_errors=True)
    assert proc.returncode != 0
    assert proc.stdout == ""
