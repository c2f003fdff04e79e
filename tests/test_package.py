"""The package's public surface and the README's library example."""

import re
from pathlib import Path

import numpy as np

import expdelay

README = Path(__file__).parent.parent / "README.md"
MODULES = ("history", "phi", "quadrature", "tableau", "stepper", "problems", "harness")


def test_public_surface_is_pinned():
    assert sorted(expdelay.__all__) == [
        "CoupledProblem", "DEGREE", "HistoryState", "IntegrationDiverged", "MeshError",
        "OrderReport", "Pointwise", "Problem", "StageView", "Tableau", "TrajectoryRecorder",
        "__version__", "belzen", "builtin", "builtin_names", "check_order", "converge",
        "daphnia", "estimate_order", "gauss_legendre", "initial_state", "integrate",
        "integrate_view", "norm_diff", "observed_values", "phi_combine", "phi_matrices",
        "phi_matrix_action", "phi_scalar", "psi_a", "psi_b", "quadratic_re",
        "semilinear_plan", "simulate", "step",
    ]
    # each name is listed once, in the module that exports it
    listed = [name for module in MODULES for name in getattr(expdelay, module).__all__]
    assert len(listed) == len(set(listed))
    namespace = {}
    exec("from expdelay import *", namespace)
    assert set(namespace) - {"__builtins__"} == set(expdelay.__all__)


def test_readme_library_example_runs(capsys):
    text = README.read_text()
    section = text[text.index("## Library usage") :]
    code = re.search(r"```python\n(.*?)```", section, re.S).group(1)
    namespace = {}
    exec(code, namespace)
    assert np.isfinite(namespace["final"].head).all()
    assert capsys.readouterr().out  # the example prints the head and a past value
