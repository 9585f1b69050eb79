"""Every exported name resolves: star imports work and ``__all__`` lists no stale name."""

import importlib
import inspect

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
