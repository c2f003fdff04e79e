"""The package's public surface, its module layering and the README's library example."""

import ast
import re
from pathlib import Path

import numpy as np

import expdelay

README = Path(__file__).parent.parent / "README.md"
MODULES = ("history", "phi", "quadrature", "tableau", "stepper", "problems", "harness")
SOURCES = MODULES + ("cli", "__init__")


def _tree(module: str) -> ast.Module:
    return ast.parse((Path(expdelay.__file__).parent / f"{module}.py").read_text())


def _siblings(module: str) -> set:
    """The package modules that ``module`` imports."""
    found = set()
    for node in ast.walk(_tree(module)):
        if isinstance(node, ast.ImportFrom) and node.level == 1:
            found |= {node.module} if node.module else {alias.name for alias in node.names}
        elif isinstance(node, ast.ImportFrom) and (node.module or "").startswith("expdelay."):
            found.add(node.module.split(".")[1])
        elif isinstance(node, ast.Import):
            found |= {a.name.split(".")[1] for a in node.names if a.name.startswith("expdelay.")}
    return found


def _names(module: str) -> tuple:
    """The names ``module`` defines (functions, classes, methods, assignments)
    and the names it imports."""
    defined, imported = set(), set()
    for node in ast.walk(_tree(module)):
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            defined.add(node.name)
        elif isinstance(node, ast.Name) and isinstance(node.ctx, ast.Store):
            defined.add(node.id)
        elif isinstance(node, (ast.Import, ast.ImportFrom)):
            imported |= {alias.asname or alias.name for alias in node.names}
    return defined, imported


def test_public_surface_is_pinned():
    assert sorted(expdelay.__all__) == [
        "CoupledProblem", "DEGREE", "HistoryState", "IntegrationDiverged", "MeshError",
        "OrderReport", "Pointwise", "Problem", "StageView", "Tableau", "TrajectoryRecorder",
        "__version__", "belzen", "builtin", "builtin_names", "check_order", "converge",
        "daphnia", "estimate_order", "gauss_legendre", "initial_state", "integrate",
        "integrate_view", "norm_diff", "observed_values", "phi_combine", "phi_matrices",
        "phi_matrix_action", "phi_scalar", "psi_a", "psi_b", "quadratic_re",
        "simulate", "step",
    ]
    # each name is listed once, in the module that exports it
    listed = [name for module in MODULES for name in getattr(expdelay, module).__all__]
    assert len(listed) == len(set(listed))
    namespace = {}
    exec("from expdelay import *", namespace)
    assert set(namespace) - {"__builtins__"} == set(expdelay.__all__)


def test_module_layering():
    # history holds the states and imports no sibling; quadrature cuts windows
    # over them; only the CLI and the package reach the harness
    imports = {module: _siblings(module) for module in SOURCES}
    assert imports["history"] == set()
    assert imports["quadrature"] == {"history"}
    assert {module for module in SOURCES if "harness" in imports[module]} == {"cli", "__init__"}


def test_window_cuts_rules_and_norms_live_in_one_module_each():
    defined = {module: _names(module)[0] for module in MODULES}
    for owner, name in (
        ("quadrature", "_window_plan"), ("quadrature", "gauss_legendre"), ("harness", "norm_diff")
    ):
        assert [module for module in MODULES if name in defined[module]] == [owner]
    moved = {"_window_plan", "_Plan", "_ENDS", "_pieces", "gauss_legendre", "_grid", "_blocks",
             "_BLOCK", "_SUP_S", "_L1_S", "_L1_W", "norm_diff"}
    assert not moved & set().union(*_names("history"))


def test_log_sums_have_one_reader():
    # one HistoryState method slices the log's stored sums, for windows and
    # j_integrate alike, so the window offset is computed in one place
    callers = [
        module
        for module in SOURCES
        for node in ast.walk(_tree(module))
        if isinstance(node, ast.Call)
        and isinstance(node.func, ast.Attribute)
        and node.func.attr == "slot_sums"
    ]
    assert callers == ["history"]
    assert not any("_segment_sum" in _names(module)[0] for module in SOURCES)


def test_readme_library_example_runs(capsys):
    text = README.read_text()
    section = text[text.index("## Library usage") :]
    code = re.search(r"```python\n(.*?)```", section, re.S).group(1)
    namespace = {}
    exec(code, namespace)
    assert np.isfinite(namespace["final"].head).all()
    assert capsys.readouterr().out  # the example prints the head and a past value
