import importlib
import inspect
import pkgutil

import pytest

import qpart
from qpart import qspecial

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


# residuals the library keeps outside qpart.checks, each for a caller of its own
CHECK_EXEMPT = {
    "qpart.oppainleve.tau_relation_check": "an operation of the benchmark",
    "qpart.oppainleve.recurrence_residuals": "the residual column of `qpart painleve`",
}


@pytest.mark.parametrize("module", [m for m in MODULES if m.__name__ != "qpart.checks"],
                         ids=lambda m: m.__name__)
def test_comparisons_live_in_checks(module):
    public = set(getattr(module, "__all__", ())) | {
        name for name, obj in vars(module).items()
        if inspect.isfunction(obj) and obj.__module__ == module.__name__
        and not name.startswith("_")}
    found = {f"{module.__name__}.{name}" for name in public
             if name.endswith(("_check", "_checks", "_residual", "_residuals"))}
    assert found <= set(CHECK_EXEMPT)


def test_qspecial_keeps_no_reference():
    # the circle-weight evaluator and the plane-partition series live in
    # qpart.checks, beside their readers, and the product form in the tests;
    # M itself overflowed near q = 1, where log_macmahon does not
    assert not {"macmahon", "macmahon_series_coefficient", "circle_weight", "WEIGHTS",
                "np", "numpy"} & set(vars(qspecial))
    assert "macmahon" not in qpart.__all__ and not hasattr(qpart, "macmahon")
