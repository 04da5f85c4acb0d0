"""Headless property checks for the CLI ``verify`` subcommand.

Small, fast versions of the core correctness properties: BCD descent
and convergence, gradient consistency, the DR MSE-matrix ordering,
lossless compression, LRD exactness, ledger/formula equality, and the
C=1 degenerate identities. The pytest suite runs the full-scale
acceptance versions; this module is for quick in-the-field checks.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from . import dbpnet, equalizers as eq
from .bench import default_algo
from .scenario import SystemConfig, gen_realization, gen_symbol_block, sample_covariance


@dataclass
class CheckResult:
    name: str
    passed: bool
    detail: str


def _desk_cfg(**kw) -> SystemConfig:
    base = dict(M=32, K=4, C=4, N=64, snr_db=10.0, iot_db=10.0, seed=1234)
    base.update(kw)
    return SystemConfig(**base)


def check_bcd_convergence() -> CheckResult:
    worst = 0.0
    for trial in range(3):
        cfg = _desk_cfg()
        rz = gen_realization(cfg, trial)
        rhat = sample_covariance(rz.noise)
        w_ref = eq.lmmse_centralized(rz.H, rhat, cfg.Es).W
        res = eq.bcd_solve(rz.H_blocks(), rz.noise_blocks(), cfg.Es,
                           sweeps=None, tol=1e-12, max_sweeps=50000)
        gap = np.linalg.norm(res.W - w_ref, "fro") / np.linalg.norm(w_ref, "fro")
        worst = max(worst, gap)
    return CheckResult("bcd-convergence", worst < 1e-8,
                       f"max relative gap to centralized LMMSE = {worst:.3e}")


def check_bcd_descent() -> CheckResult:
    violations = 0
    for trial in range(5):
        cfg = _desk_cfg(seed=99)
        rz = gen_realization(cfg, trial)
        hb, nb = rz.H_blocks(), rz.noise_blocks()
        sb = [eq.scaled_samples(n) for n in nb]
        wb, a, b = eq.bdac_state(hb, nb, sb, cfg.Es)
        factors = [eq.BcdBlockFactor(h, s, cfg.Es) for h, s in zip(hb, sb)]
        objs = [eq.objective_sample(np.hstack(wb), rz.H, rz.noise, cfg.Es)]
        # the objective after every block step of 4 sweeps
        eq.bcd_iterate(factors, wb, np.hstack([a, b]), sweeps=4,
                       after=lambda t, i, z: objs.append(eq.objective_sample(
                           np.hstack(wb), rz.H, rz.noise, cfg.Es)))
        violations += sum(o1 > o0 + 1e-12 for o0, o1 in zip(objs, objs[1:]))
    return CheckResult("bcd-descent", violations == 0,
                       f"{violations} objective increases across block updates")


def check_gradient() -> CheckResult:
    rng = np.random.default_rng(7)
    cfg = _desk_cfg(M=12, C=3, N=24)
    rz = gen_realization(cfg, 0)
    s = eq.scaled_samples(rz.noise)
    w = (rng.standard_normal((cfg.K, cfg.M)) + 1j * rng.standard_normal((cfg.K, cfg.M)))
    rows = rz.partition.rows(1)
    g = eq.objective_gradient_block(w, rz.H, s, rows, cfg.Es)
    h = 1e-5
    worst = 0.0
    for _ in range(8):
        i = rng.integers(0, cfg.K)
        j = rng.integers(rows.start, rows.stop)
        for part, ref in ((1.0, g.real), (1j, g.imag)):
            wp, wm = w.copy(), w.copy()
            wp[i, j] += part * h
            wm[i, j] -= part * h
            fd = (eq.objective_from_samples(wp, rz.H, s, cfg.Es)
                  - eq.objective_from_samples(wm, rz.H, s, cfg.Es)) / (2 * h)
            rel = abs(fd - ref[i, j - rows.start]) / max(abs(fd), 1e-12)
            worst = max(worst, rel)
    return CheckResult("gradient-fd", worst < 1e-4,
                       f"max relative FD error = {worst:.3e}")


def check_dr_mse_ordering() -> CheckResult:
    worst = np.inf
    bad = 0
    for trial in range(20):
        cfg = _desk_cfg(M=16, C=2 + 2 * (trial % 2), K=4, N=64, seed=5)
        rz = gen_realization(cfg, trial)
        rhat = sample_covariance(rz.noise)
        hb, nb = rz.H_blocks(), rz.noise_blocks()
        qs = []
        for hc, nc in zip(hb, nb):
            rcc = sample_covariance(nc)
            qs.append(eq.local_compression(hc, rcc))
        q_s = np.hstack(qs)
        from scipy.linalg import block_diag
        q_c = block_diag(*qs)
        e_s = eq.mse_matrix(rz.H, rhat, q_s, cfg.Es)
        e_c = eq.mse_matrix(rz.H, rhat, q_c, cfg.Es)
        diff = 0.5 * ((e_s - e_c) + (e_s - e_c).conj().T)
        lam = np.linalg.eigvalsh(diff).min()
        worst = min(worst, lam)
        if lam < -1e-9 * abs(np.trace(diff).real + 1e-300):
            bad += 1
        if np.trace(e_s).real < np.trace(e_c).real - 1e-12:
            bad += 1
    return CheckResult("dr-mse-ordering", bad == 0,
                       f"min eigenvalue of E_sDR - E_cDR = {worst:.3e}")


def check_lossless_compression() -> CheckResult:
    rng = np.random.default_rng(21)
    cfg = _desk_cfg(M=16, K=4, C=4)
    worst = 0.0
    for trial in range(5):
        rz = gen_realization(cfg, trial)
        block = gen_symbol_block(cfg, rz, trial)
        rhat = sample_covariance(rz.noise)
        ref = eq.lmmse_centralized(rz.H, rhat, cfg.Es).W @ block.Y
        p = rng.standard_normal((cfg.K, cfg.K)) + 1j * rng.standard_normal((cfg.K, cfg.K))
        q = p @ eq.local_compression(rz.H, rhat)
        shat = eq.compressed_estimate(rz.H, rhat, q, block.Y, cfg.Es)
        gap = np.linalg.norm(shat - ref, "fro") / np.linalg.norm(ref, "fro")
        worst = max(worst, gap)
    return CheckResult("lossless-compression", worst < 1e-9,
                       f"max relative estimate gap = {worst:.3e}")


def check_lrd() -> CheckResult:
    # exact-rank recovery on synthetic rank-4 samples
    rng = np.random.default_rng(11)
    m, n, rank = 16, 48, 4
    s = ((rng.standard_normal((m, rank)) + 1j * rng.standard_normal((m, rank)))
         @ (rng.standard_normal((rank, n)) + 1j * rng.standard_normal((rank, n))))
    sb = [s[i * 4:(i + 1) * 4] for i in range(4)]
    g_blocks, _ = eq.lrd_sequential(sb, rank)
    g = np.vstack(g_blocks)
    rhat = s @ s.conj().T
    exact_gap = (np.linalg.norm(rhat - g @ g.conj().T, "fro")
                 / np.linalg.norm(rhat, "fro"))
    # near-optimality at IoT=10dB against the global truncated SVD
    ratios = []
    for trial in range(10):
        cfg2 = _desk_cfg(M=16, C=4, N=48, n_interf=4)
        rz2 = gen_realization(cfg2, trial)
        sb2 = [eq.scaled_samples(n) for n in rz2.noise_blocks()]
        gb, _ = eq.lrd_sequential(sb2, 4)
        g2 = np.vstack(gb)
        rhat2 = sample_covariance(rz2.noise)
        res_seq = np.linalg.norm(rhat2 - g2 @ g2.conj().T, "fro")
        from .numerics import truncated_svd
        s_all = np.vstack(sb2)
        dec = truncated_svd(s_all, 4)
        g_opt = dec.U * dec.S
        res_opt = np.linalg.norm(rhat2 - g_opt @ g_opt.conj().T, "fro")
        ratios.append(res_seq / res_opt)
    ok = exact_gap < 1e-9 and max(ratios) <= 1.1
    return CheckResult("lrd", ok,
                       f"exact-rank gap = {exact_gap:.3e}, "
                       f"max residual ratio = {max(ratios):.4f}")


def check_ledger_formulas() -> CheckResult:
    grid = [
        dict(M=32, K=4, C=4, N=64, n_coh=480, T=2, r=4),
        dict(M=16, K=2, C=2, N=24, n_coh=100, T=1, r=2),
        dict(M=128, K=8, C=8, N=192, n_coh=480, T=2, r=8),
    ]
    for g in grid:
        cfg = _desk_cfg(M=g["M"], K=g["K"], C=g["C"], N=g["N"], n_coh=g["n_coh"])
        rz = gen_realization(cfg, 0)
        block = gen_symbol_block(cfg, rz, 0)
        for name, row in dbpnet.ALGORITHMS.items():
            algo = default_algo(name, cfg, T=g["T"], r=g["r"])
            _, fab = dbpnet.run_cell(algo, rz, block.Y, cfg)
            got = fab.ledger.per_symbol_average()
            want = row.entries(cfg, algo)
            if got != want:
                return CheckResult("ledger-formulas", False,
                                   f"{name} ledger {got} != formula {want} at {g}")
    return CheckResult("ledger-formulas", True,
                       "all simulated ledgers equal closed forms (exact rationals)")


def check_degenerate_single_cluster() -> CheckResult:
    cfg = _desk_cfg(M=16, K=4, C=1, N=64)
    rz = gen_realization(cfg, 0)
    block = gen_symbol_block(cfg, rz, 0)
    rhat = sample_covariance(rz.noise)
    ref = eq.lmmse_centralized(rz.H, rhat, cfg.Es).W @ block.Y
    gaps = []
    _, s_sdr = eq.sdr_mmse(rz.H_blocks(), [block.Y], rz.noise_blocks(), cfg.Es)
    gaps.append(np.linalg.norm(s_sdr - ref) / np.linalg.norm(ref))
    _, s_cdr = eq.cdr_mmse(rz.H_blocks(), [block.Y], rz.noise_blocks(), cfg.Es)
    gaps.append(np.linalg.norm(s_cdr - ref) / np.linalg.norm(ref))
    w_bdac = eq.bdac_mmse(rz.H_blocks(), [rhat], cfg.Es).W
    gaps.append(np.linalg.norm(w_bdac @ block.Y - ref) / np.linalg.norm(ref))
    res = eq.bcd_solve(rz.H_blocks(), rz.noise_blocks(), cfg.Es, sweeps=1)
    gaps.append(np.linalg.norm(res.W @ block.Y - ref) / np.linalg.norm(ref))
    worst = max(gaps)
    return CheckResult("degenerate-single-cluster", worst < 1e-10,
                       f"max relative gap to centralized = {worst:.3e}")


CHECKS: dict[str, Callable[[], CheckResult]] = {
    "bcd-convergence": check_bcd_convergence,
    "bcd-descent": check_bcd_descent,
    "gradient-fd": check_gradient,
    "dr-mse-ordering": check_dr_mse_ordering,
    "lossless-compression": check_lossless_compression,
    "lrd": check_lrd,
    "ledger-formulas": check_ledger_formulas,
    "degenerate-single-cluster": check_degenerate_single_cluster,
}


def run_checks(name_filter: Optional[str] = None) -> list[CheckResult]:
    return [fn() for name, fn in CHECKS.items()
            if not name_filter or name_filter in name]
