"""Public-surface guard: every public module-level function or class in the
package is either called from the package itself or is a reference that a
named test checks the package against, and so is every public method or
property of a public class (called as an attribute from the package).  A
name that is neither is library surface nobody runs; delete it or name the
test that needs it here."""

import ast
import pathlib

SRC = pathlib.Path(__file__).resolve().parent.parent / "src" / "hoibc2d"
TESTS = pathlib.Path(__file__).resolve().parent

# module.name -> the test (file::function) that uses it as a reference
ORACLES = {
    "analysis.optical_theorem_residual":
        "test_acceptance.py::test_accept_09_series_self_checks",
    "analysis.scattered_field":
        "test_analysis.py::test_far_field_near_field_extrapolation",
    "analysis.series_coated_cylinder":
        "test_analysis.py::test_series_independent_of_bessel_library",
    "analysis.series_impedance_cylinder":
        "test_analysis.py::test_bem_matches_impedance_series_higher_order",
    "analysis.series_pec_cylinder":
        "test_cli.py::test_oracle_pec_degeneration",
    "assembly.build_full_system":
        "test_acceptance.py::test_accept_05_full_vs_reduced",
    "assembly.reduce_system":
        "test_assembly.py::test_reduced_equals_schur_complement",
    "impedance.max_fit_error":
        "test_acceptance.py::test_accept_01_first_order_fit_band",
    "impedance.taylor_coefficients":
        "test_acceptance.py::test_accept_03_pade_order_conditions",
    "specfun.hankel2":
        "test_specfun.py::test_hankel2_01_real_matches_scalar",
}


def _public_and_referenced():
    public, methods, names, attributes = set(), set(), set(), set()
    for path in sorted(SRC.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        for node in tree.body:
            if not isinstance(node, (ast.FunctionDef, ast.ClassDef)) \
                    or node.name.startswith("_"):
                continue
            public.add(f"{path.stem}.{node.name}")
            if isinstance(node, ast.ClassDef):
                methods.update(f"{path.stem}.{node.name}.{item.name}"
                               for item in node.body
                               if isinstance(item, ast.FunctionDef)
                               and not item.name.startswith("_"))
        for node in ast.walk(tree):
            if isinstance(node, ast.Name):
                names.add(node.id)
            elif isinstance(node, ast.Attribute):
                names.add(node.attr)
                attributes.add(node.attr)
            elif isinstance(node, ast.ImportFrom):
                names.update(alias.name for alias in node.names)
    return public, methods, names, attributes


def test_every_public_name_is_used_or_an_oracle():
    public, methods, names, attributes = _public_and_referenced()
    unused = {name for name in public if name.split(".")[1] not in names}
    # a method or property is used only as an attribute: obj.name
    unused |= {name for name in methods
               if name.rsplit(".", 1)[1] not in attributes}
    assert unused - set(ORACLES) == set(), "public names nothing uses"
    # an entry for a name the package calls, or no longer defines, is stale
    assert set(ORACLES) - unused == set(), "stale ORACLES entries"


def test_every_oracle_names_a_test_that_uses_it():
    for name, where in ORACLES.items():
        file, _, func = where.partition("::")
        tree = ast.parse((TESTS / file).read_text(encoding="utf-8"))
        test = next((node for node in tree.body
                     if isinstance(node, ast.FunctionDef)
                     and node.name == func), None)
        assert test is not None, f"{where} does not exist"
        used = {node.id if isinstance(node, ast.Name) else node.attr
                for node in ast.walk(test)
                if isinstance(node, (ast.Name, ast.Attribute))}
        assert name.rsplit(".", 1)[1] in used, f"{where} does not use {name}"
