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


def test_tol_sweep_solves_once_per_cell(monkeypatch):
    # SolveProbe records one tolerance-mode run_bcd_daisy call per bcd-conv
    # cell, and the benchmark's checks count cells by those calls
    tols = []
    run_bcd_daisy = dbpeq.dbpnet.run_bcd_daisy
    sig = inspect.signature(run_bcd_daisy)

    def counting(*args, **kwargs):
        tols.append(sig.bind(*args, **kwargs).arguments.get("tol"))
        return run_bcd_daisy(*args, **kwargs)

    monkeypatch.setattr(dbpeq.dbpnet, "run_bcd_daisy", counting)
    cfg = dbpeq.SystemConfig(M=16, K=4, C=4, N=64, n_coh=48, seed=3)
    dbpeq.bench.run_sweep(dbpeq.bench.RunSpec(
        cfg=cfg, algorithms=(dbpeq.bench.AlgoSpec("bcd", tol=1e-3),),
        snr_grid=(0.0, 10.0), trials=2))
    assert tols == [1e-3] * 4


def test_solve_probe_reads_every_tolerance_solve():
    # every e2 round runs this probe, which reads ``du.cache["S"]`` of each DU after
    # a daisy solve; nothing else in the package or the suite reads that entry
    probe = tracing.SolveProbe()
    cfg = dbpeq.SystemConfig(M=16, K=4, C=4, N=64, n_coh=48, seed=3)
    rz = dbpeq.scenario.gen_realization(cfg, 0)
    probe.install(dbpeq)
    try:
        dbpeq.bench.run_sweep(dbpeq.bench.RunSpec(
            cfg=cfg, algorithms=(dbpeq.bench.AlgoSpec("bcd", tol=1e-3),),
            snr_grid=(0.0, 10.0), trials=2))
        res = dbpeq.equalizers.bcd_solve(rz.H_blocks(), rz.noise_blocks(), cfg.Es, tol=1e-3)
    finally:
        probe.uninstall()
    assert probe.missing == []
    assert len(probe.tol_cells) == 4 and probe.tol_solves == 5 and probe.flop_macs > 0
    assert probe.sweeps == sum(sweeps for sweeps, _, _ in probe.tol_cells) + res.iterations
    for sweeps, _, entries in probe.tol_cells:
        assert entries == dbpeq.dbpnet.formula_bcd(cfg.C, cfg.K, cfg.N, sweeps, cfg.n_coh)
