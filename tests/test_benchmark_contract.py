"""The names and parameters the benchmark's tracer relies on.

``benchmarks/tracing.py`` wraps dbpeq functions by module attribute and
binds the BCD solvers' arguments by name. A refactor that renames one of
them breaks the benchmark silently, so this test fails first. The file is
read, never changed.
"""

import ast
import importlib.util
import inspect
import sys
from pathlib import Path

import pytest

import dbpeq
import dbpeq.cli  # noqa: F401  (the package __init__ does not import it)

TRACING = Path(__file__).resolve().parents[1] / "benchmarks" / "tracing.py"


def _load_tracing():
    spec = importlib.util.spec_from_file_location("_dbpeq_bench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    dont_write = sys.dont_write_bytecode
    sys.dont_write_bytecode = True
    try:
        spec.loader.exec_module(module)
    finally:
        sys.dont_write_bytecode = dont_write
    return module


tracing = _load_tracing()


def _bound_names(method) -> set:
    """Every ``p["name"]`` that a SolveProbe wrapper reads."""
    tree = ast.parse(inspect.cleandoc("\n" + inspect.getsource(method)))
    return {node.slice.value for node in ast.walk(tree)
            if isinstance(node, ast.Subscript) and isinstance(node.value, ast.Name)
            and node.value.id == "p" and isinstance(node.slice, ast.Constant)}


@pytest.mark.parametrize("layer,name", [
    (layer, name) for layer, groups in tracing.SPANS.items()
    for names in groups.values() for name in names])
def test_span_name_is_defined(layer, name):
    assert callable(getattr(getattr(dbpeq, layer), name, None))


def test_fabric_methods_are_defined():
    assert callable(dbpeq.dbpnet.Fabric.send)
    assert callable(dbpeq.dbpnet.Fabric.local)


@pytest.mark.parametrize("solver,wrapper", [
    (dbpeq.equalizers.bcd_solve, tracing.SolveProbe._wrap_library),
    (dbpeq.dbpnet.run_bcd_daisy, tracing.SolveProbe._wrap_protocol),
])
def test_solver_has_the_bound_parameters(solver, wrapper):
    names = _bound_names(wrapper)
    assert names, "no bound parameters found"
    assert names <= set(inspect.signature(solver).parameters)


def test_every_cell_builds_its_fabric_through_make_fabric(monkeypatch, capsys):
    # the tracer's ``dbpnet.entries`` sums the ledgers of the fabrics that
    # ``dbpnet.make_fabric`` returns, so every table cell must come from it
    kinds = []
    make_fabric = dbpeq.dbpnet.make_fabric

    def counting(*args, **kwargs):
        kinds.append(args[2])
        return make_fabric(*args, **kwargs)

    monkeypatch.setattr(dbpeq.dbpnet, "make_fabric", counting)
    names = tuple(dbpeq.dbpnet.ALGORITHMS)
    want = [dbpeq.dbpnet.ALGORITHMS[name].topology for name in names]
    cfg = dbpeq.SystemConfig(M=16, K=4, C=4, N=64, n_coh=48, seed=3)
    algos = tuple(dbpeq.bench.default_algo(name, cfg) for name in names)
    dbpeq.bench.run_sweep(dbpeq.bench.RunSpec(cfg=cfg, algorithms=algos,
                                              snr_grid=(10.0,), trials=1))
    assert kinds == want
    kinds.clear()
    assert dbpeq.cli.main(["bandwidth", "--M", "16", "--ncoh", "48"]) == 0
    rows = capsys.readouterr().out.splitlines()[2:]
    assert [ln.split()[0] for ln in rows if not ln.startswith("note:")] == list(names)
    assert kinds == want
