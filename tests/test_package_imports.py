"""No module of the package imports a name it never uses.

An import left behind by a refactor still runs at import time and still reads
as a dependency, so each module's imports are checked against the names its
code reads. ``__init__.py`` is skipped: its imports are the public API.
"""

from __future__ import annotations

import ast
from pathlib import Path

import maxacc

# bench/spans.py wraps modelfile.validate_model by name, so modelfile keeps the
# import. The exception goes when ROADMAP item 12's benchmark PR makes the
# bench read the package's own counters instead of wrapping names.
ALLOWED = {"modelfile.validate_model"}


def unused_imports(source: str) -> list[str]:
    """Names bound by the module's import statements that no other code reads."""
    tree = ast.parse(source)
    imported = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported.update(alias.asname or alias.name.split(".")[0] for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported.update(alias.asname or alias.name for alias in node.names)
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return sorted(imported - used)


def test_no_module_imports_an_unused_name():
    modules = sorted(Path(maxacc.__file__).parent.glob("*.py"))
    assert len(modules) > 5
    unused = [
        f"{path.stem}.{name}"
        for path in modules
        if path.name != "__init__.py"
        for name in unused_imports(path.read_text(encoding="utf-8"))
    ]
    assert sorted(set(unused) - ALLOWED) == []


def test_the_scan_sees_a_dead_import():
    source = "import os\nimport numpy as np\nfrom json import dumps, loads\n\nprint(np.pi, loads)\n"
    assert unused_imports(source) == ["dumps", "os"]


def test_the_allowed_exception_is_still_needed():
    """Once modelfile stops importing validate_model, the exception must go too."""
    source = (Path(maxacc.__file__).parent / "modelfile.py").read_text(encoding="utf-8")
    assert unused_imports(source) == ["validate_model"]
