import importlib
import inspect
import pkgutil

import pytest

import qpart

MODULES = [qpart] + [importlib.import_module(f"qpart.{m.name}")
                     for m in pkgutil.iter_modules(qpart.__path__)]


@pytest.mark.parametrize("module", [m for m in MODULES if hasattr(m, "__all__")],
                         ids=lambda m: m.__name__)
def test_all_lists_exactly_the_public_functions(module):
    missing = [name for name in module.__all__ if not hasattr(module, name)]
    unlisted = [name for name, obj in vars(module).items()
                if inspect.isfunction(obj) and obj.__module__ == module.__name__
                and not name.startswith("_") and name not in module.__all__]
    assert (missing, unlisted) == ([], [])
