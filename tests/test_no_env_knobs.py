"""No module of the package reads or writes the process environment.

A setting that an environment variable changes is an option that no
flag, config key or help text shows, and one that a reader of the CSV
cannot see was set. Every setting goes through the CLI's ``SETTINGS``
or a function parameter instead. This fails on any ``os.environ``,
``os.getenv`` or ``os.putenv`` under ``src/dbpeq``, and on those names
imported from ``os``.
"""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src" / "dbpeq"
ENV_NAMES = {"environ", "getenv", "putenv"}


def _env_uses(path: Path):
    """(line, text) of each use of an environment name of ``os`` in ``path``."""
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        if (isinstance(node, ast.Attribute) and node.attr in ENV_NAMES
                and isinstance(node.value, ast.Name) and node.value.id == "os"):
            yield node.lineno, f"os.{node.attr}"
        elif isinstance(node, ast.ImportFrom) and node.module == "os":
            for alias in node.names:
                if alias.name in ENV_NAMES:
                    yield node.lineno, f"from os import {alias.name}"


def test_no_module_reads_the_environment():
    # a copy run from elsewhere finds no package and must fail, not pass vacuously
    assert {"numerics.py", "ledger.py"} <= {p.name for p in SRC.glob("*.py")}, SRC
    found = [f"{path.name}:{line}: {text}"
             for path in sorted(SRC.glob("*.py")) for line, text in _env_uses(path)]
    assert found == []
