"""Every function and class in the package has a reader outside the tests.

A name defined under ``src/dbpeq`` passes if the package itself reads
it, if a file under ``benchmarks/`` mentions it, or if it is exported in
``dbpeq.__all__``. A method or property is read only through an
attribute access (``x.name``); any other definition through an attribute
access or a load of the bare name. A local variable bound under the same
name is not a read. Dunder methods are called by Python and pass. A
helper that only its own test calls fails here: delete it, or inline
it into the test.
"""

import ast
import re
from pathlib import Path

import dbpeq

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src" / "dbpeq"


def _definitions_and_reads():
    """(module, name, is_method) of each definition; attribute names read; names loaded."""
    defs, attrs, loads = [], set(), set()
    for path in sorted(SRC.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        methods = {id(node) for cls in ast.walk(tree) if isinstance(cls, ast.ClassDef)
                   for node in cls.body}
        for node in ast.walk(tree):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                defs.append((path.name, node.name, id(node) in methods))
            elif isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                loads.add(node.id)
            elif isinstance(node, ast.Attribute):
                attrs.add(node.attr)
    return defs, attrs, loads


def _benchmark_text() -> str:
    return "\n".join(p.read_text(encoding="utf-8", errors="replace")
                     for p in sorted((ROOT / "benchmarks").rglob("*")) if p.is_file())


def test_no_name_is_read_only_by_tests():
    # a copy run from elsewhere finds no package and must fail, not pass vacuously
    assert {"numerics.py", "ledger.py"} <= {p.name for p in SRC.glob("*.py")}, SRC
    defs, attrs, loads = _definitions_and_reads()
    bench_text = _benchmark_text()
    unread = [f"{module}:{name}" for module, name, is_method in defs
              if not (name.startswith("__") and name.endswith("__"))
              and name not in (attrs if is_method else attrs | loads)
              and name not in dbpeq.__all__
              and not re.search(rf"\b{re.escape(name)}\b", bench_text)]
    assert unread == []
