"""Each library module's `__all__` names what it defines, no more and no less."""

import importlib
import inspect

import pytest

MODULES = ("linalg", "fields", "gauge", "blade", "em", "darboux", "dynamics", "embedded",
           "scenarios")


@pytest.mark.parametrize("name", MODULES)
def test_all_lists_exactly_the_public_definitions(name):
    module = importlib.import_module(f"bladegauge.{name}")
    assert [n for n in module.__all__ if not hasattr(module, n)] == []
    defined = [n for n, obj in vars(module).items()
               if not n.startswith("_") and (inspect.isfunction(obj) or inspect.isclass(obj))
               and obj.__module__ == module.__name__]
    assert [n for n in defined if n not in module.__all__] == []
