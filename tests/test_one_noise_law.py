"""One noise law: only ``scenario.colored_noise`` turns a trial's draws into noise.

The colored-noise law sqrt(beta*Es)*Hbar@w + sqrt(N0)*z needs the powers
of :func:`scenario.derive_powers`, so every call of it under
``src/dbpeq`` is found by walking the AST, with the qualified name of the
function it sits in. ``scenario.colored_noise`` must be the only caller
that scales a draw; ``verify.check_lrd`` scales a synthetic rank-r
interference matrix, not a trial, and is the one exemption.
"""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src" / "dbpeq"


def _power_calls(node, scope):
    """The scope of each call of a name or attribute ``derive_powers`` under ``node``."""
    for child in ast.iter_child_nodes(node):
        inner = scope
        if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            inner = f"{scope}.{child.name}"
        elif isinstance(child, ast.Call) and "derive_powers" in (
                getattr(child.func, "id", None), getattr(child.func, "attr", None)):
            yield scope
        yield from _power_calls(child, inner)


def test_only_colored_noise_applies_the_powers():
    # a copy run from elsewhere finds no package and must fail, not pass vacuously
    assert {"numerics.py", "ledger.py"} <= {p.name for p in SRC.glob("*.py")}, SRC
    found = [where for path in sorted(SRC.glob("*.py"))
             for where in _power_calls(ast.parse(path.read_text(encoding="utf-8")), path.stem)]
    assert [where for where in found if where != "verify.check_lrd"] == ["scenario.colored_noise"]
