"""No public name of the package looks like a test to pytest.

pytest collects every module-level name that starts with ``test`` (functions)
or ``Test`` (classes), imported ones included, so a helper with such a name
would run as a test in every test module that imports it.
"""

from __future__ import annotations

import importlib
import pkgutil

import maxacc


def test_no_public_name_starts_with_test():
    modules = [maxacc] + [
        importlib.import_module(f"maxacc.{info.name}") for info in pkgutil.iter_modules(maxacc.__path__)
    ]
    assert len(modules) > 5
    names = sorted(
        f"{module.__name__}.{name}"
        for module in modules
        for name in vars(module)
        if name.startswith(("test", "Test"))
    )
    assert names == []
