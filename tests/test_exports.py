"""Every exported name resolves: star imports work and ``__all__`` lists no stale name,
and the README's library example runs as written."""

import ast
import importlib
import inspect
from pathlib import Path

import pytest

import qpump
from qpump import errors

MODULES = ["bathtub", "cli", "matcore", "models", "optimal", "report", "shift", "transport"]


@pytest.mark.parametrize("name", MODULES)
def test_module_all_resolves(name):
    module = importlib.import_module(f"qpump.{name}")
    missing = [attr for attr in module.__all__ if not hasattr(module, attr)]
    assert missing == []
    namespace = {}
    exec(f"from qpump.{name} import *", namespace)
    assert set(module.__all__) <= set(namespace)


def test_package_exports_resolve_and_are_declared():
    namespace = {}
    exec("from qpump import *", namespace)
    public = {attr for attr, value in vars(qpump).items()
              if not attr.startswith("_") and not inspect.ismodule(value)}
    assert public <= set(namespace)
    # each re-export is declared by its module (errors, which has no __all__,
    # defines exception classes only), so walkers of __all__ see the whole API
    declared = {attr for name in MODULES
                for attr in importlib.import_module(f"qpump.{name}").__all__}
    declared |= {attr for attr, value in vars(errors).items()
                 if inspect.isclass(value) and issubclass(value, Exception)}
    assert sorted(public - declared) == []


def test_package_front_is_pinned():
    # growing or shrinking the front is a deliberate edit of this list
    public = {attr for attr, value in vars(qpump).items()
              if not attr.startswith("_") and not inspect.ismodule(value)}
    assert sorted(public) == sorted([
        "ConfigError", "NumericalFailure", "PumpError",
        "R_K", "CycleGrid", "Tolerances",
        "ModelConfig", "PumpModel", "build",
        "energy_shift_cycle",
        "instant_report", "winding_charge",
        "optimality_verdict",
        "greedy_minimize", "linear_dispersion", "verify_bound",
        "analyze", "dumps", "instant_document",
    ])


#: Each module's ``__all__``, in order: adding a name to the product, or
#: dropping one, is a deliberate edit of this table.
MODULE_SURFACES = {
    "bathtub": ["DispersionGrid", "linear_dispersion", "quadratic_dispersion", "Filling",
                "greedy_minimize", "analytic_minimum", "thermal_step", "BoundCheck",
                "verify_bound"],
    "cli": ["main"],
    "matcore": ["R_K", "Tolerances", "DEFAULT_TOLERANCES", "CycleGrid", "unitarize",
                "frobenius_norm", "unitarity_defect", "hermitian_part", "spectral_derivative"],
    "models": ["uniform_stream", "PumpModel", "ModelConfig", "ParamInfo", "ModelInfo",
               "REGISTRY", "build"],
    "optimal": ["offdiag_ratio", "OptimalityVerdict", "optimality_verdict",
                "diagonal_decomposition"],
    "report": ["SPEC_VERSION", "ADIABATICITY_WARN", "format_float", "dumps", "AnalysisResult",
               "analyze", "instant_document"],
    "shift": ["HARD_HERM_LIMIT", "cycle_scale", "energy_shift_cycle", "energy_shift_at"],
    "transport": ["instantaneous_current", "cycle_integral", "winding_charge", "InstantReport",
                  "instant_report"],
}


@pytest.mark.parametrize("name", MODULES)
def test_module_surface_is_pinned(name):
    assert importlib.import_module(f"qpump.{name}").__all__ == MODULE_SURFACES[name]


def test_readme_library_use_runs_as_its_comments_state():
    # the first python block under *Library use*, run statement by statement;
    # each bare expression's value is kept by the call it starts with
    readme = (Path(__file__).resolve().parent.parent / "README.md").read_text(encoding="utf-8")
    code = readme.split("\n## Library use\n", 1)[1].split("```python\n", 1)[1].split("\n```", 1)[0]
    namespace, stated = {}, {}
    for stmt in ast.parse(code).body:
        if isinstance(stmt, ast.Expr):
            value = eval(compile(ast.Expression(stmt.value), "README.md", "eval"), namespace)
            stated[ast.get_source_segment(code, stmt.value).split("(", 1)[0]] = value
        else:
            exec(compile(ast.Module([stmt], []), "README.md", "exec"), namespace)
    assert stated["qp.winding_charge"].tolist() == [-2, 2]
    assert stated["qp.analyze"] == [-2, 2]
    assert stated["qp.verify_bound"] == 0
    pump, grid = stated["config.pump, config.grid"]
    assert isinstance(pump, qpump.PumpModel) and isinstance(grid, qpump.CycleGrid)
    assert namespace["samples"].shape == namespace["shifts"].shape == (256, 2, 2)
    assert namespace["verdict"].ratios.shape == (256,)
    instants = namespace["instants"]
    assert instants.qdot.shape == instants.total_dissipation.shape == (256, 2)
