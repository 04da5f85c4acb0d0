"""Acceptance battery: one test and one printed PASS/FAIL line per criterion.

Criteria covered, in order:
 1. BCD converges to the centralized LMMSE solution (20 realizations, <10 s).
 2. BCD objective is monotonically non-increasing at every block update.
 3. Analytic block gradient matches central finite differences.
 4. Concatenated compression never has a larger MSE matrix than superposition.
 5. Compression Q = P H^H R^-1 with invertible P is lossless.
 6. LRD is exact at the true rank and near-optimal versus a global SVD.
 7. Simulated bandwidth ledgers equal the closed forms in exact arithmetic.
 8. Desk-scale SER ordering across equalizers, within a 5-minute budget.
 9. Degenerate-cluster identities (C=1, and white noise with large N).
10. Byte-identical CSV output across repeat runs and worker counts.

Criteria 01-07 and 09 run the property functions of ``dbpeq.verify``,
the battery that ``dbpeq verify`` runs at desk size, at their own
configurations, seeds and counts; each property is written only there.
"""

import time

import pytest

from dbpeq import verify
from dbpeq.bench import AlgoSpec, RunSpec, paired_ordering_test, run_sweep
from dbpeq.scenario import SystemConfig


def _cfg(**kw):
    base = dict(M=32, K=4, C=4, N=64, snr_db=10.0, iot_db=10.0, seed=11)
    base.update(kw)
    return SystemConfig(**base)


def _emit(capsys, crit, ok, detail):
    with capsys.disabled():
        status = "PASS" if ok else "FAIL"
        print(f"criterion {crit:02d} [{status}] {detail}", flush=True)


def _verdict(capsys, crit, res):
    _emit(capsys, crit, res.passed, res.detail)
    assert res.passed, res.detail


def test_01_bcd_global_convergence(capsys):
    t0 = time.monotonic()
    res = verify.check_bcd_convergence(_cfg(), 20)
    elapsed = time.monotonic() - t0
    ok = res.passed and elapsed < 10.0
    detail = f"{res.detail} in {elapsed:.1f} s"
    _emit(capsys, 1, ok, detail)
    assert ok, detail


def test_02_bcd_monotone_descent(capsys):
    _verdict(capsys, 2, verify.check_bcd_descent(_cfg(seed=100), 50))


def test_03_gradient_finite_differences(capsys):
    _verdict(capsys, 3, verify.check_gradient(_cfg(M=12, C=3, N=32), 10, 6))


def test_04_concatenation_mse_dominates(capsys):
    _verdict(capsys, 4, verify.check_dr_mse_ordering(_cfg(M=16, N=64, seed=40), 100))


def test_05_lossless_compression(capsys):
    _verdict(capsys, 5, verify.check_lossless_compression(_cfg(M=16, K=4, N=64), 20, 50))


def test_06_lrd_exact_and_near_optimal(capsys):
    res = verify.check_lrd(_cfg(M=16, C=4, N=48, n_interf=4), 50, 60, exact_count=10)
    _verdict(capsys, 6, res)


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_07_bandwidth_ledger_equals_formulas(capsys):
    grid = [
        (32, 4, 4, 64, 480, 4, 4),
        (24, 3, 3, 36, 120, 2, 3),
        (128, 8, 8, 192, 480, 2, 8),
    ]
    _verdict(capsys, 7, verify.check_ledger_formulas(_cfg(), grid))


def test_08_desk_scale_ser_ordering(capsys):
    # ten interferers make the noise strongly colored, which is the regime
    # where the decentralized schemes separate cleanly at this array size
    cfg = _cfg(seed=2026, n_coh=480, n_interf=10)
    algos = (
        AlgoSpec("lmmse"),
        AlgoSpec("zf"),
        AlgoSpec("bdac"),
        AlgoSpec("sdr"),
        AlgoSpec("cdr"),
        AlgoSpec("bcd", tol=1e-8, label="bcd-conv"),
        AlgoSpec("bcd", T=1, label="bcd1"),
    )
    spec = RunSpec(cfg=cfg, algorithms=algos,
                   snr_grid=(0.0, 5.0, 10.0, 15.0, 20.0), trials=50)
    t0 = time.monotonic()
    report = run_sweep(spec)
    elapsed = time.monotonic() - t0

    # pool the adjacent pairwise comparisons over the whole chain: the
    # ordering must hold at >= 80% of the qualified (pair, snr) cells
    chain = ("lmmse", "bcd-conv", "bcd1", "cdr", "sdr", "bdac")
    qualified = 0
    held = 0
    per_pair = []
    for a, b in zip(chain, chain[1:]):
        v = paired_ordering_test(report, a, b, min_errors=100, threshold=0.8)
        qualified += v.qualified
        held += v.a_not_worse
        per_pair.append(f"{a}<={b}: {v.a_not_worse}/{v.qualified}")
    fraction = held / qualified
    zf_ok = all(
        report.row("zf", snr)["ser"] > report.row("lmmse", snr)["ser"]
        for snr in (0.0, 5.0, 10.0))
    ok = fraction >= 0.8 and zf_ok and elapsed < 300.0
    detail = (f"chain held at {held}/{qualified} qualified comparisons "
              f"({'; '.join(per_pair)}), zf worse than lmmse at snr<=10: "
              f"{zf_ok}, {elapsed:.0f} s")
    _emit(capsys, 8, ok, detail)
    assert ok, detail


def test_09_degenerate_identities(capsys):
    _verdict(capsys, 9, verify.check_degenerate(_cfg(M=16, C=4, N=64)))


def test_10_deterministic_output(capsys):
    cfg = _cfg(M=16, C=4, K=4, N=48, seed=77, n_coh=96)
    algos = (AlgoSpec("lmmse"), AlgoSpec("sdr"), AlgoSpec("bcd", T=2))
    grid = (5.0, 10.0)

    def csv_for(workers):
        spec = RunSpec(cfg=cfg, algorithms=algos, snr_grid=grid,
                       trials=8, workers=workers)
        return run_sweep(spec).to_csv()

    first = csv_for(1)
    repeat_ok = csv_for(1) == first
    workers_ok = csv_for(8) == first
    ok = repeat_ok and workers_ok
    detail = (f"repeat run byte-identical: {repeat_ok}; workers 1 vs 8 "
              f"byte-identical: {workers_ok}")
    _emit(capsys, 10, ok, detail)
    assert ok, detail
