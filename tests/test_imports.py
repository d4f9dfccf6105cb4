"""Every module-level import in the package, its tests and its tools is used
by its module.

The package's ``__init__.py`` is exempt (its imports are the public
re-exports), and so is any import line marked ``# noqa`` (a name kept for a
lookup by name).
"""
import ast
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
MODULES = (sorted(p for p in (ROOT / "src" / "nltariff").glob("*.py") if p.name != "__init__.py")
           + sorted((ROOT / "tests").glob("*.py")) + sorted((ROOT / "tools").glob("*.py")))


def unused_imports(source):
    """(line, name) of each module-level import never referenced by name."""
    tree = ast.parse(source)
    lines = source.splitlines()
    bound = []
    for node in tree.body:
        if not isinstance(node, (ast.Import, ast.ImportFrom)) or "# noqa" in lines[node.lineno - 1]:
            continue
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        for alias in node.names:
            bound.append((node.lineno, (alias.asname or alias.name).split(".")[0]))
    used = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    return [(line, name) for line, name in bound if name not in used]


def test_unused_import_is_found():
    assert unused_imports("import os\nimport sys  # noqa\nfrom a import b, c as d\nd()\n") == [(1, "os"), (3, "b")]


@pytest.mark.parametrize("path", MODULES, ids=[p.name for p in MODULES])
def test_module_has_no_unused_imports(path):
    assert unused_imports(path.read_text()) == []
