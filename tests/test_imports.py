"""Module dependency edges: oracles share no code with the recursions they check."""

import ast
import pathlib

import pytest

import qdpsens as qs
from qdpsens import riccati, verify

SRC = pathlib.Path(qs.__file__).parent
ORACLE_NAMES = ("closed_form_p", "materialize_influence", "_closed_loop_table", "_product",
                "closed_loop_product_norm")


def imports_of(module: str) -> set:
    """(qdpsens module, imported name) pairs of every import in a module, nested ones included.

    ``from . import riccati`` and ``import qdpsens.riccati`` give (riccati, "*").
    """
    tree = ast.parse((SRC / f"{module}.py").read_text())
    edges = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom):
            if node.level == 0 and not (node.module or "").startswith("qdpsens"):
                continue
            target = (node.module or "").removeprefix("qdpsens").lstrip(".")
            for alias in node.names:
                if target:
                    edges.add((target, alias.name))
                else:
                    edges.add((alias.name, "*"))
        elif isinstance(node, ast.Import):
            for alias in node.names:
                if alias.name.startswith("qdpsens."):
                    edges.add((alias.name.removeprefix("qdpsens."), "*"))
    return edges


def modules_imported_by(module: str) -> set:
    return {target.partition(".")[0] for target, _ in imports_of(module)}


def test_helper_sees_nested_and_package_imports():
    edges = imports_of("sensitivity")
    assert ("verify", "newton_equality_solve") in edges  # imported inside a function
    assert ("riccati", "backward_pass") in edges


def test_convexify_takes_only_the_kernel_from_riccati():
    edges = imports_of("convexify")
    assert {name for target, name in edges if target == "riccati"} == {"_sweep"}
    assert "verify" not in modules_imported_by("convexify")
    assert ("model", "eval_qdp_objective") not in edges


@pytest.mark.parametrize("checked", ["riccati", "convexify", "sensitivity", "estimator", "cli"])
def test_verify_imports_nothing_it_checks(checked):
    assert checked not in modules_imported_by("verify")


def test_closed_form_oracles_live_in_verify():
    for name in ORACLE_NAMES:
        assert not hasattr(riccati, name), name
        assert hasattr(verify, name), name
    for name in ("closed_form_p", "materialize_influence", "closed_loop_product_norm",
                 "verify_equivalence", "EquivalenceReport"):
        assert getattr(qs, name) is getattr(verify, name)


def test_curvature_imports_nothing_from_nullspace():
    assert "nullspace" not in modules_imported_by("curvature")


def test_only_verify_imports_nullspace():
    """The dense constraint code is an oracle: besides the package's re-exports, only
    ``verify`` imports it, and ``sensitivity`` keeps no binding of the dense gamma."""
    importers = {path.stem for path in SRC.glob("*.py")
                 if "nullspace" in modules_imported_by(path.stem)}
    assert importers == {"verify", "__init__"}
    assert not hasattr(qs.sensitivity, "reduced_hessian_gamma")


def test_only_nullspace_calls_the_dense_gamma():
    """``reduced_hessian_gamma`` is the tests' oracle: no other module calls it."""
    callers = set()
    for path in SRC.glob("*.py"):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Call):
                func = node.func
                name = func.attr if isinstance(func, ast.Attribute) else getattr(func, "id", None)
                if name == "reduced_hessian_gamma":
                    callers.add(path.stem)
    assert callers <= {"nullspace"}
    assert qs.reduced_hessian_gamma is qs.nullspace.reduced_hessian_gamma
