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
