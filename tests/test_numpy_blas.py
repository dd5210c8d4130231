"""numpy-BLAS guard: no matrix product of numpy (``@``, ``np.dot``,
``np.matmul``, ``np.inner``, ``np.tensordot``, or the ``.dot`` method) in
the package outside a short allowlist.

numpy and scipy each bundle their own OpenBLAS with its own thread pool;
a numpy product wakes numpy's pool, whose threads then compete for the
cores with scipy's LU and triangular solves (linsolve's notes).  Threaded
BLAS therefore goes through ``scipy.linalg`` alone.  The allowlist names
each function that keeps a numpy product and the test that depends on it
as it is."""

import ast
import pathlib

SRC = pathlib.Path(__file__).resolve().parent.parent / "src" / "hoibc2d"
TESTS = pathlib.Path(__file__).resolve().parent

BANNED_CALLS = {"dot", "matmul", "inner", "tensordot"}

# module.function -> the test (file::function) that depends on its product
ALLOWED = {
    # the dense Schur complement, an oracle of the banded elimination
    "assembly.reduce_system":
        "test_assembly.py::test_reduced_equals_schur_complement",
    # harm @ modes: the frozen oracle CSV is pinned to its summation order
    "analysis._pattern_from_modes":
        "test_cli.py::test_oracle_frozen_paper_curve",
}


def _is_product(node):
    if isinstance(node, (ast.BinOp, ast.AugAssign)):
        return isinstance(node.op, ast.MatMult)
    if isinstance(node, ast.Call):
        func = node.func
        name = func.attr if isinstance(func, ast.Attribute) else \
            getattr(func, "id", None)
        return name in BANNED_CALLS
    return False


def _products():
    """(module.function, line) of every numpy matrix product in the
    package, by the top-level function or class that holds it."""
    found = []
    for path in sorted(SRC.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        for top in tree.body:
            where = f"{path.stem}.{getattr(top, 'name', '<module>')}"
            found.extend((where, node.lineno) for node in ast.walk(top)
                         if _is_product(node))
    return found


def test_no_numpy_products_outside_the_allowlist():
    stray = [(where, line) for where, line in _products()
             if where not in ALLOWED]
    assert stray == [], "numpy matrix products outside the allowlist"


def test_allowlist_is_current():
    # an entry whose function holds no product any more is stale
    assert set(ALLOWED) == {where for where, _ in _products()}
    for where in ALLOWED.values():
        file, _, func = where.partition("::")
        tree = ast.parse((TESTS / file).read_text(encoding="utf-8"))
        assert any(isinstance(node, ast.FunctionDef) and node.name == func
                   for node in tree.body), f"{where} does not exist"


def test_guard_sees_each_product_form():
    forms = ("a @ b", "a @= b", "np.dot(a, b)", "a.dot(b)", "np.matmul(a, b)",
             "np.inner(a, b)", "np.tensordot(a, b)")
    for form in forms:
        assert any(_is_product(node) for node in ast.walk(ast.parse(form))), \
            form
    assert not any(_is_product(node)
                   for node in ast.walk(ast.parse("np.einsum('ij,j', a, b)")))
