"""One scipy binding: only ``numerics`` imports from scipy, and nothing imports ``scipy.linalg``.

``scipy/linalg/__init__.py`` clones numpy's namespace and loads about 300
modules that the package never calls. ``numerics`` loads the compiled
BLAS and LAPACK extensions it needs from their files, and every other
module takes those routines from ``numerics``. Every import statement
under ``src/dbpeq`` is found by walking the AST: a module other than
``numerics.py`` that imports anything from ``scipy`` fails, and so does
any module that imports ``scipy.linalg`` or a name from it.
"""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src" / "dbpeq"


def _scipy_imports(path: Path):
    """(line, module) of each import of a scipy module in ``path``."""
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        if isinstance(node, ast.Import):
            names = [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            names = [node.module] + [f"{node.module}.{alias.name}" for alias in node.names]
        else:
            continue
        for name in names:
            if name == "scipy" or name.startswith("scipy."):
                yield node.lineno, name


def _found():
    return [(path.name, line, name) for path in sorted(SRC.glob("*.py"))
            for line, name in _scipy_imports(path)]


def test_only_numerics_imports_scipy():
    assert [f"{module}:{line} {name}" for module, line, name in _found()
            if module != "numerics.py"] == []


def test_no_module_imports_scipy_linalg():
    assert [f"{module}:{line} {name}" for module, line, name in _found()
            if name == "scipy.linalg" or name.startswith("scipy.linalg.")] == []
