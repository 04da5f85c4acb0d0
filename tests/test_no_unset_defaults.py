"""Every defaulted parameter in the package is set by some call.

For each function, method and class under ``src/dbpeq``, a parameter
with a default passes if a call anywhere in ``src/dbpeq``, ``tests/`` or
``benchmarks/`` passes it, by keyword or by position. Calls are matched
by the called name (``f(...)`` or ``x.f(...)``); a call of a class
counts for its ``__init__``, and a method's ``self`` takes no position.
A call with ``*args`` passes every position from there on, one with
``**kwargs`` every keyword. A default that no caller sets is a code path
nothing runs on purpose: delete the parameter.
"""

import ast
from collections import defaultdict
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src" / "dbpeq"
CALLERS = sorted([*SRC.glob("*.py"), *(ROOT / "tests").glob("*.py"),
                  *(ROOT / "benchmarks").rglob("*.py")])


def _defaulted(path: Path):
    """(module, called name, parameter, position or None) of each defaulted parameter."""
    tree = ast.parse(path.read_text(encoding="utf-8"))
    classes = {id(node): cls.name for cls in ast.walk(tree) if isinstance(cls, ast.ClassDef)
               for node in cls.body}
    for node in ast.walk(tree):
        if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            continue
        args = node.args
        positional = args.posonlyargs + args.args
        static = any(isinstance(d, ast.Name) and d.id == "staticmethod"
                     for d in node.decorator_list)
        skip = 1 if id(node) in classes and not static else 0
        name = classes[id(node)] if node.name == "__init__" and id(node) in classes else node.name
        first = len(positional) - len(args.defaults)
        for i, arg in enumerate(positional[first:], first):
            yield path.name, name, arg.arg, i - skip
        for arg, default in zip(args.kwonlyargs, args.kw_defaults):
            if default is not None:
                yield path.name, name, arg.arg, None


def _calls():
    """Called name -> (most positions passed, keywords passed; None stands for any)."""
    positions, keywords = defaultdict(int), defaultdict(set)
    for path in CALLERS:
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if not isinstance(node, ast.Call):
                continue
            func = node.func
            name = func.id if isinstance(func, ast.Name) else getattr(func, "attr", None)
            if name is None:
                continue
            starred = any(isinstance(a, ast.Starred) for a in node.args)
            positions[name] = max(positions[name], float("inf") if starred else len(node.args))
            keywords[name].update(k.arg for k in node.keywords)
    return positions, keywords


def test_every_default_is_set_by_some_call():
    # a copy run from elsewhere finds no package and must fail, not pass vacuously
    assert {"numerics.py", "ledger.py"} <= {p.name for p in SRC.glob("*.py")}, SRC
    positions, keywords = _calls()
    unset = [f"{module}:{name}({param}=)"
             for path in sorted(SRC.glob("*.py"))
             for module, name, param, pos in _defaulted(path)
             if not (param in keywords[name] or None in keywords[name]
                     or (pos is not None and positions[name] > pos))]
    assert unset == []
