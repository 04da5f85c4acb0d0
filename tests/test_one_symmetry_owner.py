"""Every matrix that ``numerics.hpd_factor`` factors is exactly Hermitian.

``hpd_factor`` checks its input and factors the lower triangle; it does
not symmetrize. The code that forms a Hermitian matrix owns its symmetry
(it calls ``hermitize``). One trial of every algorithm row, and one
tolerance-mode bcd cell, run here with ``hpd_factor`` wrapped in every
module that binds it, and each input must equal its conjugate transpose
bit for bit.
"""

import sys

import numpy as np

from dbpeq import bench, numerics
from dbpeq.bench import AlgoSpec, RunSpec
from dbpeq.dbpnet import ALGORITHMS
from dbpeq.scenario import SystemConfig


def test_every_hpd_input_is_exactly_hermitian(monkeypatch):
    factor = numerics.hpd_factor
    inputs = []

    def spy(a):
        inputs.append(np.array(a, dtype=np.complex128))
        return factor(a)

    for name, module in list(sys.modules.items()):
        if name.split(".")[0] == "dbpeq" and getattr(module, "hpd_factor", None) is factor:
            monkeypatch.setattr(module, "hpd_factor", spy)
    cfg = SystemConfig(M=32, K=4, C=4, N=64, n_coh=48, seed=5)
    algorithms = tuple(bench.default_algo(name, cfg) for name in ALGORITHMS)
    spec = RunSpec(cfg, algorithms + (AlgoSpec("bcd", tol=1e-8, label="bcd-conv"),),
                   snr_grid=(10.0,), trials=1)
    report = bench.run_sweep(spec)
    assert all(row["ser"] != "FAIL" for row in report.rows)
    assert len(inputs) > len(spec.algorithms)
    bad = [i for i, a in enumerate(inputs) if not np.array_equal(a, a.conj().T)]
    assert bad == [], f"{len(bad)} of {len(inputs)} hpd_factor inputs are not exactly Hermitian"
