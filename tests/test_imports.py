"""Every module-level import in the package, its tests and its tools is used
by its module, the package imports at module level only, every top-level
function and class of the package has a caller in it, the oracle and the
test referee stay independent of the closed forms they audit, and ``model``
reads tabulated samples (``np.interp``) only inside its ``Table``.

The package's ``__init__.py`` is exempt (its imports are the public
re-exports), and so is any import line marked ``# noqa`` (a name kept for a
lookup by name).
"""
import ast
import re
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
ORACLES = (ROOT / "src" / "nltariff" / "oracle.py", ROOT / "tests" / "referee.py")
SOLVER_MODULES = ("solver_const_h", "solver_typed_h", "closed_form")
PACKAGE = sorted((ROOT / "src" / "nltariff").glob("*.py"))
MODULES = ([p for p in PACKAGE if p.name != "__init__.py"]
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


def function_imports(source):
    """(line, outermost function) of each import inside a function body."""
    found = {}
    for fn in ast.walk(ast.parse(source)):
        if isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef)):
            for node in ast.walk(fn):
                if isinstance(node, (ast.Import, ast.ImportFrom)):
                    found.setdefault(node.lineno, fn.name)
    return sorted(found.items())


def test_function_import_is_found():
    source = ("import os\n"
              "def f():\n"
              "    def g():\n"
              "        from . import a\n"
              "    import sys\n")
    assert function_imports(source) == [(4, "f"), (5, "f")]


@pytest.mark.parametrize("path", PACKAGE, ids=[p.name for p in PACKAGE])
def test_package_imports_at_module_level(path):
    assert function_imports(path.read_text()) == []


# public helpers that the README and the tests call, with no caller in the package
PUBLIC_ONLY = {"canonical_params", "eval_utility"}


def uncalled_definitions(sources):
    """(module, name) of each top-level function or class of the modules
    ``sources`` ({module: source}) that no other top-level statement of
    any of them names."""
    named = []
    for module, source in sources.items():
        for node in ast.parse(source).body:
            names = {n.id if isinstance(n, ast.Name) else n.attr if isinstance(n, ast.Attribute) else n.name
                     for n in ast.walk(node) if isinstance(n, (ast.Name, ast.Attribute, ast.alias))}
            named.append((module, node, names))
    return [(module, node.name) for module, node, _ in named
            if isinstance(node, (ast.FunctionDef, ast.ClassDef))
            and not any(node.name in names for _, other, names in named if other is not node)]


def test_uncalled_definition_is_found():
    sources = {"a.py": "def f():\n    return f()\ndef g():\n    pass\nclass C:\n    pass\n",
               "b.py": "from .a import g\nx = 1\n",
               "c.py": "def h(a):\n    return a.C\n"}
    assert uncalled_definitions(sources) == [("a.py", "f"), ("c.py", "h")]


def test_every_package_function_has_a_caller():
    """The package's ``__init__.py`` re-exports do not count as callers."""
    sources = {p.name: p.read_text() for p in PACKAGE if p.name != "__init__.py"}
    assert [name for _, name in uncalled_definitions(sources) if name not in PUBLIC_ONLY] == []


def solver_mentions(source):
    """(line, text) of each line that names a solver module or the closed-form
    core."""
    pattern = re.compile(r"\b(%s)\b" % "|".join(SOLVER_MODULES))
    return [(i, line) for i, line in enumerate(source.splitlines(), 1) if pattern.search(line)]


def test_solver_mention_is_found():
    source = ('"""Audits nltariff.closed_form."""\n'
              "from . import solver_typed_h\n"
              "def scale(params):\n"
              "    from .solver_const_h import capacity_A\n")
    assert [line for line, _ in solver_mentions(source)] == [1, 2, 4]


def test_oracle_names_no_solver():
    assert {p.name: solver_mentions(p.read_text()) for p in ORACLES} == {p.name: [] for p in ORACLES}


def interp_reads(source, owner="Table"):
    """(line, top-level definition) of each ``np.interp`` in ``source``,
    called or passed on, outside the top-level class ``owner``."""
    found = []
    for node in ast.parse(source).body:
        if isinstance(node, ast.ClassDef) and node.name == owner:
            continue
        for ref in ast.walk(node):
            if isinstance(ref, ast.Attribute) and ref.attr == "interp":
                found.append((ref.lineno, getattr(node, "name", None)))
    return found


def test_interp_read_is_found():
    source = ("import numpy as np\n"
              "class Table:\n"
              "    def __call__(self, x):\n"
              "        return np.interp(x, self.x, self.values)\n"
              "class Cost:\n"
              "    h = partial(np.interp, xp=[0, 1], fp=[0, 1])\n"
              "def cost(c):\n"
              "    return np.interp(c, [0, 1], [0, 1])\n")
    assert interp_reads(source) == [(6, "Cost"), (8, "cost")]


def test_model_reads_every_table_in_table():
    """g, F, H and K tables are read by one rule, ``Table``'s."""
    assert interp_reads((ROOT / "src" / "nltariff" / "model.py").read_text()) == []
