"""A numeric failure becomes a FAIL in one place: ``dbpnet.run_cell``.

Every ``except`` clause under ``src/dbpeq`` that names ``NumericsError``,
or one of its subclasses in ``numerics``, is found by walking the AST, with
the function it sits in. Only ``run_cell`` may hold one; every other caller
reads the ``Cell`` it returns.
"""

import ast
from pathlib import Path

from dbpeq import numerics

SRC = Path(__file__).resolve().parents[1] / "src" / "dbpeq"
ERRORS = {name for name, value in vars(numerics).items()
          if isinstance(value, type) and issubclass(value, numerics.NumericsError)}


def _clauses(node, where):
    """(module, function) of each clause under ``node`` that names one of ERRORS."""
    for child in ast.iter_child_nodes(node):
        inner = where
        if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
            inner = (where[0], child.name)
        elif isinstance(child, ast.ExceptHandler) and child.type is not None:
            named = {n.id if isinstance(n, ast.Name) else n.attr
                     for n in ast.walk(child.type) if isinstance(n, (ast.Name, ast.Attribute))}
            if named & ERRORS:
                yield where
        yield from _clauses(child, inner)


def test_only_run_cell_catches_numerics_errors():
    # a copy run from elsewhere finds no package and must fail, not pass vacuously
    assert {"numerics.py", "ledger.py"} <= {p.name for p in SRC.glob("*.py")}, SRC
    found = [clause for path in sorted(SRC.glob("*.py"))
             for clause in _clauses(ast.parse(path.read_text(encoding="utf-8")),
                                    (path.name, None))]
    assert found == [("dbpnet.py", "run_cell")]
