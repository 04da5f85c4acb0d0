"""Only the CLI writes files: ``dbpeq.cli`` owns every output path.

Every call of the builtin ``open`` under ``src/dbpeq`` is found by walking
the AST, with its mode. A mode with ``w``, ``a``, ``x`` or ``+``, or one
that is not a string literal, is a write; only ``cli.py`` may hold one,
so ``bench.run_sweep`` returns its report and writes nothing.
"""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src" / "dbpeq"


def _mode(call: ast.Call):
    """The mode of an ``open`` call: a string, or None if it is not a literal."""
    given = call.args[1:2] + [k.value for k in call.keywords if k.arg == "mode"]
    if not given:
        return "r"
    return given[0].value if isinstance(given[0], ast.Constant) else None


def _writers():
    """The module of each ``open`` call that may write."""
    for path in sorted(SRC.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Call) and isinstance(node.func, ast.Name) \
                    and node.func.id == "open":
                mode = _mode(node)
                if mode is None or set(mode) & set("wax+"):
                    yield path.name


def test_only_the_cli_opens_files_for_writing():
    # a copy run from elsewhere finds no package and must fail, not pass vacuously
    assert {"numerics.py", "ledger.py"} <= {p.name for p in SRC.glob("*.py")}, SRC
    assert set(_writers()) == {"cli.py"}
