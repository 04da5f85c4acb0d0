"""One counting path: a single function under ``src/dbpeq`` charges the ledger.

Every function is searched by walking the AST. It counts the ledger if it
stores into a subscript of a name or attribute ending in ``phases``
(``phases[p] = ...``, ``ledger.phases[p] += ...``) or calls ``update``,
``setdefault`` or ``__setitem__`` on one, and it logs if it constructs a
``Message(``. One function must do both and no other may do either, so a
route or a protocol cannot grow a second path that counts or logs apart.
"""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src" / "dbpeq"
WRITES = {"update", "setdefault", "__setitem__"}


def _is_phases(node) -> bool:
    name = node.attr if isinstance(node, ast.Attribute) else getattr(node, "id", "")
    return name.endswith("phases")


class _Finder(ast.NodeVisitor):
    """Maps the qualified name of each innermost scope to what it does."""

    def __init__(self, module: str):
        self.scope = [module]
        self.found: dict[str, set] = {}

    def _enter(self, node):
        self.scope.append(node.name)
        self.generic_visit(node)
        self.scope.pop()

    visit_FunctionDef = visit_AsyncFunctionDef = visit_ClassDef = _enter

    def _mark(self, what: str):
        self.found.setdefault(".".join(self.scope), set()).add(what)

    def visit_Subscript(self, node):
        if isinstance(node.ctx, (ast.Store, ast.Del)) and _is_phases(node.value):
            self._mark("counts")
        self.generic_visit(node)

    def visit_Call(self, node):
        f = node.func
        if isinstance(f, ast.Name) and f.id == "Message":
            self._mark("logs")
        elif isinstance(f, ast.Attribute) and f.attr in WRITES and _is_phases(f.value):
            self._mark("counts")
        self.generic_visit(node)


def test_one_function_counts_and_logs_every_message():
    # a copy run from elsewhere finds no package and must fail, not pass vacuously
    assert {"numerics.py", "ledger.py"} <= {p.name for p in SRC.glob("*.py")}, SRC
    found = {}
    for path in sorted(SRC.glob("*.py")):
        finder = _Finder(path.stem)
        finder.visit(ast.parse(path.read_text(encoding="utf-8")))
        found.update(finder.found)
    assert len(found) == 1, found
    assert list(found.values()) == [{"counts", "logs"}], found
