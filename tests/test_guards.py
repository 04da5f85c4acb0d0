"""Design rules of the package, stated once each as a guard over its parsed source.

Each row names a finder, the findings today's source gives, a fragment
of source that breaks the rule and the module the fragment goes into. A
finder is a pure function of the parsed trees, keyed by path relative to
the repository, and returns sorted finding strings without line numbers.
Every row runs twice: today's trees must give exactly ``allowed``, and
with the fragment parsed in memory and appended to ``module``'s tree the
finder must report something outside ``allowed``. The second case shows
that the finder still sees what its rule forbids; a walker that has gone
blind fails it. Nothing is written to a file.
"""

import ast
from collections import defaultdict
from pathlib import Path
from typing import Callable, NamedTuple

import pytest

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = "src/dbpeq/"


@pytest.fixture(scope="session")
def trees() -> dict[str, ast.Module]:
    paths = [*ROOT.glob("src/dbpeq/*.py"), *ROOT.glob("tests/*.py"),
             *ROOT.glob("benchmarks/**/*.py")]
    parsed = {p.relative_to(ROOT).as_posix(): ast.parse(p.read_text(encoding="utf-8"))
              for p in sorted(paths)}
    # a copy run from elsewhere finds no package and must fail, not pass vacuously
    assert {PACKAGE + "numerics.py", PACKAGE + "ledger.py"} <= parsed.keys(), ROOT
    return parsed


def _package(trees):
    """(module name, tree) of each module under ``src/dbpeq``."""
    return [(Path(path).stem, tree) for path, tree in trees.items() if path.startswith(PACKAGE)]


def _nodes(trees):
    """(module name, node) of every node under ``src/dbpeq``."""
    return [(module, node) for module, tree in _package(trees) for node in ast.walk(tree)]


def _scoped(node, scope):
    """(qualified name of the innermost enclosing def or class, node) under ``node``."""
    for child in ast.iter_child_nodes(node):
        yield scope, child
        inner = isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))
        yield from _scoped(child, f"{scope}.{child.name}" if inner else scope)


def _scopes(trees):
    """(qualified scope, node) of every node under ``src/dbpeq``, scopes starting at the module."""
    return [found for module, tree in _package(trees) for found in _scoped(tree, module)]


def _called(node) -> str | None:
    """The called name of a call, ``f`` of ``f(...)`` or ``x.f(...)``."""
    return getattr(node.func, "id", None) or getattr(node.func, "attr", None)


def _exports(tree) -> set:
    """The names a module's ``__all__`` lists."""
    return {name for node in tree.body if isinstance(node, ast.Assign)
            and any(getattr(t, "id", None) == "__all__" for t in node.targets)
            for name in ast.literal_eval(node.value)}


def env_knobs(trees):
    # no setting is an environment variable, which no flag, config key or help text shows
    names = {"environ", "getenv", "putenv"}
    found = [f"{module}: os.{node.attr}" for module, node in _nodes(trees)
             if isinstance(node, ast.Attribute) and node.attr in names
             and getattr(node.value, "id", None) == "os"]
    found += [f"{module}: from os import {alias.name}" for module, node in _nodes(trees)
              if isinstance(node, ast.ImportFrom) and node.module == "os"
              for alias in node.names if alias.name in names]
    return sorted(found)


def unread_names(trees):
    # a function or class needs a reader outside the tests: a load of its bare name (a method
    # or property: an attribute access only) in the package, or ``dbpeq.__all__``; dunders pass
    defs, attrs, loads = [], set(), set()
    for module, tree in _package(trees):
        methods = {id(node) for cls in ast.walk(tree) if isinstance(cls, ast.ClassDef)
                   for node in cls.body}
        for node in ast.walk(tree):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                defs.append((module, node.name, id(node) in methods))
            elif isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                loads.add(node.id)
            elif isinstance(node, ast.Attribute):
                attrs.add(node.attr)
    exported = _exports(trees[PACKAGE + "__init__.py"])
    return sorted(f"{module}:{name}" for module, name, is_method in defs
                  if not (name.startswith("__") and name.endswith("__"))
                  and name not in (attrs if is_method else attrs | loads)
                  and name not in exported)


def unset_defaults(trees):
    # a defaulted parameter is set by some call in the package, the tests or the benchmark,
    # matched by called name; a class call counts for its __init__, where self takes no
    # position; *args passes every position from there on and **kwargs every keyword
    positions, keywords = defaultdict(int), defaultdict(set)
    for tree in trees.values():
        for node in ast.walk(tree):
            if isinstance(node, ast.Call) and _called(node) is not None:
                starred = any(isinstance(a, ast.Starred) for a in node.args)
                name = _called(node)
                positions[name] = max(positions[name], float("inf") if starred else len(node.args))
                keywords[name].update(k.arg for k in node.keywords)
    found = []
    for module, tree in _package(trees):
        classes = {id(node): cls.name for cls in ast.walk(tree) if isinstance(cls, ast.ClassDef)
                   for node in cls.body}
        for node in ast.walk(tree):
            if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                continue
            args = node.args
            positional = args.posonlyargs + args.args
            static = any(getattr(d, "id", None) == "staticmethod" for d in node.decorator_list)
            skip = 1 if id(node) in classes and not static else 0
            name = classes[id(node)] if node.name == "__init__" and id(node) in classes \
                else node.name
            first = len(positional) - len(args.defaults)
            params = [(arg.arg, i - skip) for i, arg in enumerate(positional[first:], first)]
            params += [(arg.arg, None) for arg, default in zip(args.kwonlyargs, args.kw_defaults)
                       if default is not None]
            found += [f"{module}:{name}({param}=)" for param, pos in params
                      if not (param in keywords[name] or None in keywords[name]
                              or (pos is not None and positions[name] > pos))]
    return sorted(found)


def unused_imports(trees):
    # an import in the package or the tests is read as a name in its file (an attribute chain
    # starts with one) or exported by ``__all__``; ``from __future__`` imports pass
    found = []
    for path, tree in trees.items():
        if path.startswith("benchmarks/"):
            continue
        imported, read = [], _exports(tree)
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                imported += [a.asname or a.name.split(".")[0] for a in node.names]
            elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
                imported += [a.asname or a.name for a in node.names]
            elif isinstance(node, ast.Name):
                read.add(node.id)
        found += [f"{path} {name}" for name in imported if name not in read]
    return sorted(found)


def counting_path(trees):
    # one function counts (stores into ``...phases[p]`` or calls update, setdefault or
    # __setitem__ on it) and logs (builds a ``Message(``); no other does either
    def phases(node):
        return (getattr(node, "attr", None) or getattr(node, "id", "")).endswith("phases")

    found = set()
    for scope, node in _scopes(trees):
        if isinstance(node, ast.Subscript) and isinstance(node.ctx, (ast.Store, ast.Del)) \
                and phases(node.value):
            found.add(f"{scope}: counts")
        elif isinstance(node, ast.Call) and getattr(node.func, "id", None) == "Message":
            found.add(f"{scope}: logs")
        elif isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute) \
                and node.func.attr in {"update", "setdefault", "__setitem__"} \
                and phases(node.func.value):
            found.add(f"{scope}: counts")
    return sorted(found)


def fail_rule(trees):
    # a numeric failure becomes a FAIL in one place: only one function has an ``except``
    # that names ``NumericsError`` or one of its subclasses in ``numerics``
    errors = {"NumericsError"}
    for cls in trees[PACKAGE + "numerics.py"].body:
        if isinstance(cls, ast.ClassDef) and any(getattr(b, "id", None) in errors
                                                 for b in cls.bases):
            errors.add(cls.name)
    return sorted(scope for scope, node in _scopes(trees)
                  if isinstance(node, ast.ExceptHandler) and node.type is not None
                  and {getattr(n, "id", None) or getattr(n, "attr", None)
                       for n in ast.walk(node.type)} & errors)


def noise_law(trees):
    # only ``scenario.colored_noise`` scales a trial's draws with ``derive_powers``;
    # ``verify.check_lrd`` scales a synthetic rank-r interference matrix, not a trial
    return sorted(scope for scope, node in _scopes(trees)
                  if isinstance(node, ast.Call) and _called(node) == "derive_powers")


def ring_rule(trees):
    # the daisy hop DU c -> DU c % C + 1 is stated once: one ``%`` by an attribute ``C``
    return sorted(scope for scope, node in _scopes(trees)
                  if isinstance(node, ast.BinOp) and isinstance(node.op, ast.Mod)
                  and any(getattr(side, "attr", None) == "C" for side in (node.left, node.right)))


def cell_roads(trees):
    # ``bench.trial_cells`` is the one road from a trial to its cells: no other scope
    # runs a cell, so the sweep, the bandwidth table and the message log see one trial
    return sorted({scope for scope, node in _scopes(trees)
                   if isinstance(node, ast.Call) and _called(node) == "run_cell"})


def scipy_imports(trees):
    """``<module> <scipy module>`` of each import of scipy under ``src/dbpeq``."""
    found = []
    for module, node in _nodes(trees):
        if isinstance(node, ast.Import):
            names = [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            names = [node.module] + [f"{node.module}.{alias.name}" for alias in node.names]
        else:
            continue
        found += [f"{module} {name}" for name in names
                  if name == "scipy" or name.startswith("scipy.")]
    return sorted(found)


def scipy_outside_numerics(trees):
    # numerics loads scipy's compiled BLAS from its file; every other module asks numerics
    return [found for found in scipy_imports(trees) if not found.startswith("numerics ")]


def scipy_linalg(trees):
    # scipy/linalg/__init__.py clones numpy's namespace and loads about 300 unused modules
    return [found for found in scipy_imports(trees)
            if f"{found.split()[1]}.".startswith("scipy.linalg.")]


def writers(trees):
    # only the CLI writes files: an ``open`` whose mode has w, a, x or + or is not a literal
    def writes(call):
        given = call.args[1:2] + [k.value for k in call.keywords if k.arg == "mode"]
        if not given:  # the default mode, "r"
            return False
        mode = given[0].value if isinstance(given[0], ast.Constant) else None
        return mode is None or bool(set(mode) & set("wax+"))

    return sorted({module for module, node in _nodes(trees)
                   if isinstance(node, ast.Call) and getattr(node.func, "id", None) == "open"
                   and writes(node)})


class Guard(NamedTuple):
    finder: Callable[[dict], list]
    allowed: list
    fragment: str   # source that breaks the rule
    module: str     # the tree the fragment is appended to


GUARDS = {
    "no-env-knobs": Guard(env_knobs, [], "import os\nFAST = os.environ.get('DBPEQ_FAST')",
                          PACKAGE + "bench.py"),
    # the five names only the benchmark reads; ``benchmarks/selftest.py`` fails on a missing one
    "no-test-only-names": Guard(
        unread_names,
        ["dbpnet:replay_totals", "equalizers:bcd_block_update_raw", "equalizers:bcd_init_bdac",
         "equalizers:lrd_auto_rank", "numerics:ridge_retry_count"],
        "def calibrate():\n    return 0", PACKAGE + "numerics.py"),
    "no-unset-defaults": Guard(unset_defaults, [],
                               "def _guard_probe(x, tol=None):\n    return x",
                               PACKAGE + "equalizers.py"),
    "no-unused-imports": Guard(unused_imports, [], "import colorsys", "tests/test_cli.py"),
    "one-counting-path": Guard(
        counting_path, ["ledger._Route.send: counts", "ledger._Route.send: logs"],
        "def _charge(ledger):\n    ledger.phases['iteration'] += 1", PACKAGE + "dbpnet.py"),
    "one-fail-rule": Guard(
        fail_rule, ["dbpnet.run_cell"],
        "def _swallow(f):\n    try:\n        f()\n    except NotPositiveDefinite:\n        pass",
        PACKAGE + "bench.py"),
    "one-noise-law": Guard(noise_law, ["scenario.colored_noise", "verify.check_lrd"],
                           "def _noise(cfg):\n    return derive_powers(cfg)",
                           PACKAGE + "scenario.py"),
    "one-cell-road": Guard(cell_roads, ["bench.trial_cells"],
                           "def _cells(a, rz, y, cfg):\n    return dbpnet.run_cell(a, rz, y, cfg)",
                           PACKAGE + "verify.py"),
    "one-ring-rule": Guard(ring_rule, ["dbpnet.Topology.next"],
                           "def _hop(fabric, c):\n    return c % fabric.C + 1",
                           PACKAGE + "dbpnet.py"),
    "only-numerics-imports-scipy": Guard(scipy_outside_numerics, [],
                                         "from scipy import special", PACKAGE + "bench.py"),
    "no-scipy-linalg": Guard(scipy_linalg, [], "import scipy.linalg", PACKAGE + "numerics.py"),
    "one-writer": Guard(writers, ["cli"], "def _save(p, text):\n    open(p, 'w').write(text)",
                        PACKAGE + "bench.py"),
}


@pytest.mark.parametrize("rule", list(GUARDS))
def test_today_gives_the_allowed_findings(trees, rule):
    row = GUARDS[rule]
    assert row.finder(trees) == row.allowed


@pytest.mark.parametrize("rule", list(GUARDS))
def test_fragment_is_reported(trees, rule):
    row = GUARDS[rule]
    fragment = ast.parse(row.fragment)
    broken = {**trees, row.module: ast.Module(trees[row.module].body + fragment.body, [])}
    assert set(row.finder(broken)) - set(row.allowed), f"{rule} does not see {row.fragment!r}"
