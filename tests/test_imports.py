"""Every name a module of ``src/favlab``, the tests' oracle or a script
imports is used in it: referenced as a name anywhere in the module, or
listed in its ``__all__``."""

import ast
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
MODULES = sorted((ROOT / "src" / "favlab").glob("*.py")) + [ROOT / "tests" / "oracle.py"] + sorted(
    (ROOT / "scripts").glob("*.py"))


def unused_imports(source):
    """The (line, name) of each imported name the module never references."""
    tree = ast.parse(source)
    imported = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported += [(node.lineno, a.asname or a.name.split(".")[0]) for a in node.names]
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported += [(node.lineno, a.asname or a.name) for a in node.names]
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets):
            used.update(ast.literal_eval(node.value))
    return [(line, name) for line, name in imported if name not in used]


def test_the_guard_sees_an_unused_import():
    source = "import math\nimport numpy as np\nfrom .errors import A, B\n__all__ = ['B']\nnp.pi\n"
    assert unused_imports(source) == [(1, "math"), (3, "A")]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_unused_import(path):
    assert unused_imports(path.read_text(encoding="utf-8")) == []
