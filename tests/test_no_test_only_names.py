"""Every function and class in the package has a reader outside the tests.

A name defined under ``src/dbpeq`` passes if the package itself uses it
(a name or attribute anywhere in ``src/dbpeq`` besides its definition),
if a file under ``benchmarks/`` mentions it, or if it is exported in
``dbpeq.__all__``. Dunder methods are called by Python and pass. A
helper that only its own test calls fails here: delete it, or inline
it into the test.
"""

import ast
import re
from pathlib import Path

import dbpeq

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src" / "dbpeq"


def _definitions_and_uses():
    defs, uses = [], set()
    for path in sorted(SRC.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                defs.append((path.name, node.name))
            elif isinstance(node, ast.Name):
                uses.add(node.id)
            elif isinstance(node, ast.Attribute):
                uses.add(node.attr)
    return defs, uses


def _benchmark_text() -> str:
    return "\n".join(p.read_text(encoding="utf-8", errors="replace")
                     for p in sorted((ROOT / "benchmarks").rglob("*")) if p.is_file())


def test_no_name_is_read_only_by_tests():
    defs, uses = _definitions_and_uses()
    bench_text = _benchmark_text()
    unread = [f"{module}:{name}" for module, name in defs
              if not (name.startswith("__") and name.endswith("__"))
              and name not in uses
              and name not in dbpeq.__all__
              and not re.search(rf"\b{re.escape(name)}\b", bench_text)]
    assert unread == []
