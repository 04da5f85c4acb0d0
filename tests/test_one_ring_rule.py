"""One ring rule: only ``Topology.next`` applies ``%`` to an attribute named ``C``.

The daisy chain's hop, DU c -> DU c % C + 1, is stated once. Every ``%``
under ``src/dbpeq`` with an operand that is an attribute named ``C``
(``c % self.C``, ``c % fabric.C``) is found by walking the AST, with the
qualified name of the function it sits in; ``Topology.next`` must be the
only one, so a protocol or the link check asks it where a hop goes.
"""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src" / "dbpeq"


def _ring_rules(node, scope):
    """The scope of each ``% <x>.C`` under ``node``."""
    for child in ast.iter_child_nodes(node):
        inner = scope
        if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            inner = f"{scope}.{child.name}"
        elif (isinstance(child, ast.BinOp) and isinstance(child.op, ast.Mod)
              and any(isinstance(side, ast.Attribute) and side.attr == "C"
                      for side in (child.left, child.right))):
            yield scope
        yield from _ring_rules(child, inner)


def test_only_topology_next_states_the_ring_rule():
    # a copy run from elsewhere finds no package and must fail, not pass vacuously
    assert {"numerics.py", "ledger.py"} <= {p.name for p in SRC.glob("*.py")}, SRC
    found = [where for path in sorted(SRC.glob("*.py"))
             for where in _ring_rules(ast.parse(path.read_text(encoding="utf-8")), path.stem)]
    assert found == ["dbpnet.Topology.next"]
