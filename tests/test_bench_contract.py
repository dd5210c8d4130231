"""The benchmark tracer's contract with the package.

``bench/tracing.py`` wraps the functions named in its ``TARGETS`` table
and its counters read their call arguments by name, so a refactor that
renames or drops one of them breaks every traced benchmark run.  These
tests read the tracer's source (compiled in memory, so nothing is written
under ``bench/``) and check each target and argument name against the
package.
"""

import ast
import importlib
import inspect
from pathlib import Path

import pytest

TRACING = Path(__file__).resolve().parents[1] / "bench" / "tracing.py"


@pytest.fixture(scope="module")
def tracer():
    source = TRACING.read_text(encoding="utf-8")
    namespace = {"__name__": "bench_tracing"}
    exec(compile(source, str(TRACING), "exec"), namespace)
    return ast.parse(source), namespace


def _argument_keys(tree, counter):
    """The string keys that ``counter`` reads from its argument mapping,
    its second parameter: every ``a["name"]`` in its body."""
    func = next(node for node in ast.walk(tree)
                if isinstance(node, ast.FunctionDef) and node.name == counter)
    args = func.args.args
    if len(args) < 2:
        return set()
    mapping = args[1].arg
    return {node.slice.value for node in ast.walk(func)
            if isinstance(node, ast.Subscript)
            and isinstance(node.value, ast.Name) and node.value.id == mapping
            and isinstance(node.slice, ast.Constant)}


def _target(module, name):
    return getattr(importlib.import_module(f"hoibc2d.{module}"), name, None)


def test_every_traced_target_exists(tracer):
    _, namespace = tracer
    missing = [f"{module}.{name}" for module, name, _ in namespace["TARGETS"]
               if not callable(_target(module, name))]
    assert not missing, missing


def test_every_counted_argument_is_a_parameter(tracer):
    tree, namespace = tracer
    read = set()
    for module, name, counter in namespace["TARGETS"]:
        if counter is None:
            continue
        keys = _argument_keys(tree, counter.__name__)
        params = inspect.signature(_target(module, name)).parameters
        assert keys <= set(params), (f"{module}.{name}", keys - set(params))
        read |= keys
    # the counters read arguments at all, so the walk above found them
    assert read, "no counter reads a call argument"


SELFTEST = TRACING.with_name("selftest.py")


def _wrapped_call_sites():
    """The (module, name) pairs that the selftest's traced run must find
    wrapped: the literal set in
    ``test_traced_run_wraps_every_call_site_and_restores_it``, read without
    importing the selftest."""
    tree = ast.parse(SELFTEST.read_text(encoding="utf-8"))
    test = next(node for node in ast.walk(tree)
                if isinstance(node, ast.FunctionDef) and node.name
                == "test_traced_run_wraps_every_call_site_and_restores_it")
    sites = set()
    for node in ast.walk(test):
        if isinstance(node, ast.Set):
            sites |= ast.literal_eval(node)
    return sites


def test_selftest_call_sites_bind_the_traced_functions(tracer):
    """Each call site the selftest expects wrapped holds, under its name,
    the function that the tracer wraps in its defining module, so a
    refactor that drops such an import fails here and not only in the
    benchmark's own selftest."""
    _, namespace = tracer
    defining = {name: module for module, name, _ in namespace["TARGETS"]}
    sites = _wrapped_call_sites()
    assert ("hoibc2d.analysis", "lu_factor") in sites
    for module, name in sorted(sites):
        bound = getattr(importlib.import_module(module), name, None)
        assert bound is _target(defining[name], name), (module, name)
