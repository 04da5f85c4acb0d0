"""Every name a module under ``src/dbpeq`` or ``tests`` imports is read there.

An import counts as read if its bound name appears as a name anywhere in
the same file (an attribute chain starts with one), or, for a package
``__init__``, if ``__all__`` exports it. ``from __future__`` imports are
compiler directives and pass.
"""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
FILES = sorted([*(ROOT / "src" / "dbpeq").glob("*.py"), *(ROOT / "tests").glob("*.py")])


def _unused(path: Path) -> list[str]:
    tree = ast.parse(path.read_text(encoding="utf-8"))
    imported, read = [], set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported += [(a.asname or a.name.split(".")[0], node.lineno) for a in node.names]
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported += [(a.asname or a.name, node.lineno) for a in node.names]
        elif isinstance(node, ast.Name):
            read.add(node.id)
        elif (isinstance(node, ast.Assign)
              and any(isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets)):
            read.update(ast.literal_eval(node.value))
    return [f"{path.relative_to(ROOT)}:{line} {name}" for name, line in imported
            if name not in read]


def test_every_import_is_read():
    assert [u for path in FILES for u in _unused(path)] == []
