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
"""

import time
from fractions import Fraction

import numpy as np
import pytest
from scipy.linalg import block_diag

from dbpeq import dbpnet, equalizers as eq
from dbpeq.bench import AlgoSpec, RunSpec, paired_ordering_test, run_sweep
from dbpeq.numerics import truncated_svd
from dbpeq.scenario import (
    SystemConfig,
    derive_powers,
    gen_realization,
    gen_symbol_block,
    sample_covariance,
)


def _cfg(**kw):
    base = dict(M=32, K=4, C=4, N=64, snr_db=10.0, iot_db=10.0, seed=11)
    base.update(kw)
    return SystemConfig(**base)


def _emit(capsys, crit, ok, detail):
    with capsys.disabled():
        status = "PASS" if ok else "FAIL"
        print(f"criterion {crit:02d} [{status}] {detail}", flush=True)


def _cn(rng, *shape):
    return (rng.standard_normal(shape)
            + 1j * rng.standard_normal(shape)) / np.sqrt(2.0)


def test_01_bcd_global_convergence(capsys):
    cfg = _cfg()
    t0 = time.monotonic()
    gaps = []
    for trial in range(20):
        rz = gen_realization(cfg, trial)
        rhat = sample_covariance(rz.noise)
        w_ref = eq.lmmse_centralized(rz.H, rhat, cfg.Es).W
        res = eq.bcd_solve(rz.H_blocks(), rz.noise_blocks(), cfg.Es,
                           tol=1e-12, max_sweeps=50000)
        gaps.append(np.linalg.norm(res.W - w_ref, "fro")
                    / np.linalg.norm(w_ref, "fro"))
    elapsed = time.monotonic() - t0
    ok = max(gaps) < 1e-8 and elapsed < 10.0
    detail = (f"max relative gap {max(gaps):.3e} over 20 realizations "
              f"in {elapsed:.1f} s")
    _emit(capsys, 1, ok, detail)
    assert ok, detail


def test_02_bcd_monotone_descent(capsys):
    cfg = _cfg(seed=100)
    violations = 0
    updates = 0
    for trial in range(50):
        rz = gen_realization(cfg, trial)
        hb, nb = rz.H_blocks(), rz.noise_blocks()
        sb = [eq.scaled_samples(n) for n in nb]
        wb, a, b = eq.bdac_state(hb, nb, sb, cfg.Es)
        prev = eq.objective_sample(np.hstack(wb), rz.H, rz.noise, cfg.Es)
        for _ in range(4):
            for c in range(cfg.C):
                w_new = eq.bcd_block_update(hb[c], sb[c], a, b, wb[c], cfg.Es)
                a = a + (w_new - wb[c]) @ hb[c]
                b = b + (w_new - wb[c]) @ sb[c]
                wb[c] = w_new
                obj = eq.objective_sample(np.hstack(wb), rz.H, rz.noise,
                                          cfg.Es)
                updates += 1
                if obj > prev + 1e-12:
                    violations += 1
                prev = obj
    ok = violations == 0
    detail = (f"{violations} objective increases beyond 1e-12 across "
              f"{updates} block updates on 50 realizations")
    _emit(capsys, 2, ok, detail)
    assert ok, detail


def test_03_gradient_finite_differences(capsys):
    rng = np.random.default_rng(6)
    cfg = _cfg(M=12, C=3, N=32)
    rz = gen_realization(cfg, 0)
    s = eq.scaled_samples(rz.noise)
    h = 1e-5
    worst = 0.0
    for _ in range(10):
        w = rng.standard_normal((4, 12)) + 1j * rng.standard_normal((4, 12))
        c = int(rng.integers(0, 3))
        rows = rz.partition.rows(c)
        g = eq.objective_gradient_block(w, rz.H, s, rows, cfg.Es)
        i = int(rng.integers(0, 4))
        j = int(rng.integers(rows.start, rows.stop))
        for part, ref in ((1.0, g.real), (1j, g.imag)):
            wp, wm = w.copy(), w.copy()
            wp[i, j] += part * h
            wm[i, j] -= part * h
            fd = (eq.objective_from_samples(wp, rz.H, s, cfg.Es)
                  - eq.objective_from_samples(wm, rz.H, s, cfg.Es)) / (2 * h)
            worst = max(worst, abs(fd - ref[i, j - rows.start])
                        / max(abs(fd), 1e-12))
    ok = worst < 1e-4
    detail = f"max relative gradient error {worst:.3e} at 10 random points"
    _emit(capsys, 3, ok, detail)
    assert ok, detail


def test_04_concatenation_mse_dominates(capsys):
    worst_eig = np.inf
    trace_ok = True
    for trial in range(100):
        cfg = _cfg(M=16, C=2 if trial % 2 else 4, N=64, seed=40)
        rz = gen_realization(cfg, trial)
        rhat = sample_covariance(rz.noise)
        qs = [hc.conj().T @ np.linalg.inv(sample_covariance(nc))
              for hc, nc in zip(rz.H_blocks(), rz.noise_blocks())]
        e_s = eq.mse_matrix(rz.H, rhat, np.hstack(qs), cfg.Es)
        e_c = eq.mse_matrix(rz.H, rhat, block_diag(*qs), cfg.Es)
        diff = 0.5 * ((e_s - e_c) + (e_s - e_c).conj().T)
        scale = abs(np.trace(diff).real) + 1e-300
        worst_eig = min(worst_eig, np.linalg.eigvalsh(diff).min() / scale)
        if np.trace(e_s).real < np.trace(e_c).real - 1e-12:
            trace_ok = False
    ok = worst_eig >= -1e-9 and trace_ok
    detail = (f"min normalized eigenvalue of E_superimposed - E_concatenated "
              f"= {worst_eig:.3e} over 100 instances; trace ordering "
              f"{'held' if trace_ok else 'violated'}")
    _emit(capsys, 4, ok, detail)
    assert ok, detail


def test_05_lossless_compression(capsys):
    rng = np.random.default_rng(50)
    cfg = _cfg(M=16, K=4, N=64)
    worst = 0.0
    for trial in range(20):
        rz = gen_realization(cfg, trial)
        blk = gen_symbol_block(cfg, rz, trial)
        rhat = sample_covariance(rz.noise)
        w_ref = eq.lmmse_centralized(rz.H, rhat, cfg.Es).W
        s_ref = w_ref @ blk.Y
        p = _cn(rng, 4, 4) + 2.0 * np.eye(4)
        q = p @ rz.H.conj().T @ np.linalg.inv(rhat)
        s_hat = eq.compressed_estimate(rz.H, rhat, q, blk.Y, cfg.Es)
        worst = max(worst, np.linalg.norm(s_hat - s_ref)
                    / np.linalg.norm(s_ref))
    ok = worst < 1e-9
    detail = (f"max relative estimate gap {worst:.3e} over 20 random "
              f"invertible mixing matrices")
    _emit(capsys, 5, ok, detail)
    assert ok, detail


def test_06_lrd_exact_and_near_optimal(capsys):
    # exact part: no white-noise floor, so the samples have rank n_interf
    cfg = _cfg(M=16, C=4, N=48, n_interf=4)
    rng = np.random.default_rng(60)
    _, beta = derive_powers(cfg)
    worst_exact = 0.0
    for trial in range(10):
        rz = gen_realization(cfg, trial)
        w = _cn(rng, 4, cfg.N)
        s = np.sqrt(beta * cfg.Es) * rz.Hbar @ w / np.sqrt(cfg.N)
        g_blocks, _ = eq.lrd_sequential(rz.partition.split(s), 4)
        g = np.vstack(g_blocks)
        rhat = s @ s.conj().T
        worst_exact = max(
            worst_exact,
            np.linalg.norm(rhat - g @ g.conj().T, "fro")
            / np.linalg.norm(rhat, "fro"))

    # near-optimal part: sequential residual versus the global truncated SVD
    worst_ratio = 0.0
    for trial in range(50):
        rz = gen_realization(cfg, trial)
        sb = [eq.scaled_samples(n) for n in rz.noise_blocks()]
        g_blocks, _ = eq.lrd_sequential(sb, 4)
        g = np.vstack(g_blocks)
        rhat = sample_covariance(rz.noise)
        res_seq = np.linalg.norm(rhat - g @ g.conj().T, "fro")
        dec = truncated_svd(np.vstack(sb), 4)
        g_opt = dec.U * dec.S
        res_opt = np.linalg.norm(rhat - g_opt @ g_opt.conj().T, "fro")
        worst_ratio = max(worst_ratio, res_seq / res_opt)
    ok = worst_exact < 1e-9 and worst_ratio <= 1.1
    detail = (f"rank-4 covariance gap {worst_exact:.3e}; sequential/global "
              f"residual ratio <= {worst_ratio:.4f} over 50 instances")
    _emit(capsys, 6, ok, detail)
    assert ok, detail


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_07_bandwidth_ledger_equals_formulas(capsys):
    grid = [
        (32, 4, 4, 64, 480, 4, 4),
        (24, 3, 3, 36, 120, 2, 3),
        (128, 8, 8, 192, 480, 2, 8),
    ]
    mismatches = []
    for m, k, c, n, ncoh, t, r in grid:
        cfg = _cfg(M=m, K=k, C=c, N=n, n_coh=ncoh, n_interf=k)
        rz = gen_realization(cfg, 0)
        blk = gen_symbol_block(cfg, rz, 0)
        sizes = rz.partition.sizes

        def ledger(kind, runner):
            fabric = dbpnet.make_fabric(rz, blk.Y, kind, n_coh=ncoh)
            runner(fabric)
            return fabric.ledger.per_symbol_average()

        cases = [
            ("centralized",
             ledger("star", lambda f: dbpnet.run_centralized(f, cfg.Es)),
             dbpnet.formula_centralized(m, k, n, ncoh)),
            ("sdr",
             ledger("star", lambda f: dbpnet.run_sdr_star(f, cfg.Es)),
             dbpnet.formula_dr(c, k, n, ncoh)),
            ("cdr",
             ledger("star", lambda f: dbpnet.run_cdr_star(f, cfg.Es)),
             dbpnet.formula_dr(c, k, n, ncoh)),
            ("bcd",
             ledger("daisy",
                    lambda f: dbpnet.run_bcd_daisy(f, cfg.Es, sweeps=t)),
             dbpnet.formula_bcd(c, k, n, t, ncoh)),
            ("bcd-lrd",
             ledger("daisy",
                    lambda f: dbpnet.run_bcd_daisy(f, cfg.Es, sweeps=t, r=r)),
             dbpnet.formula_bcd_lrd_ledger(sizes, k, n, t, r, ncoh)),
        ]
        for name, got, want in cases:
            if got != want:  # Fraction equality, no tolerance
                mismatches.append((m, k, c, n, name, got, want))
        # aggregate form counts the final rank-r broadcast once, the ring
        # relay delivers it hop by hop; difference is exactly 2*N*r/n_coh
        residual = (dbpnet.formula_bcd_lrd_aggregate(c, m, k, n, t, r, ncoh)
                    - dbpnet.formula_bcd_lrd_ledger(sizes, k, n, t, r, ncoh))
        if residual != Fraction(2 * n * r, ncoh):
            mismatches.append((m, k, c, n, "bcd-lrd-residual", residual, None))

    published = (
        dbpnet.formula_centralized(128, 8, 192, 480) == Fraction(1088, 3)
        and dbpnet.formula_dr(8, 8, 192, 480) == Fraction(544, 3))
    ok = not mismatches and published
    detail = (f"{len(grid) * 5} ledger/formula comparisons exact; "
              f"published per-symbol averages 362.67 and 181.33 reproduced"
              if ok else f"mismatches: {mismatches}; published={published}")
    _emit(capsys, 7, ok, detail)
    assert ok, detail


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
    # C = 1: every decentralized scheme collapses to centralized LMMSE
    cfg = _cfg(M=16, C=1, N=64)
    rz = gen_realization(cfg, 0)
    blk = gen_symbol_block(cfg, rz, 0)
    rhat = sample_covariance(rz.noise)
    ref = eq.lmmse_centralized(rz.H, rhat, cfg.Es)
    s_ref = ref.W @ blk.Y
    hb, yb, nb = [rz.H], [blk.Y], [rz.noise]
    gaps = {
        "sdr": np.linalg.norm(eq.sdr_mmse(hb, yb, nb, cfg.Es)[1] - s_ref),
        "cdr": np.linalg.norm(eq.cdr_mmse(hb, yb, nb, cfg.Es)[1] - s_ref),
        "bdac": np.linalg.norm(
            eq.bdac_mmse(hb, [rhat], cfg.Es).W - ref.W, "fro"),
        "bcd": np.linalg.norm(
            eq.bcd_solve(hb, nb, cfg.Es, sweeps=1).W - ref.W, "fro"),
    }
    single_ok = max(gaps.values()) < 1e-10

    # white noise, many samples: the sample covariance is nearly diagonal,
    # so the block-diagonal approximation is nearly exact
    cfg_w = _cfg(M=16, C=4, K=4, N=4096, iot_db=0.0)
    rz_w = gen_realization(cfg_w, 0)
    rhat_w = sample_covariance(rz_w.noise)
    ref_w = eq.lmmse_centralized(rz_w.H, rhat_w, cfg_w.Es).W
    rb = [sample_covariance(nc) for nc in rz_w.noise_blocks()]
    w_bdac = eq.bdac_mmse(rz_w.H_blocks(), rb, cfg_w.Es).W
    white_gap = (np.linalg.norm(w_bdac - ref_w, "fro")
                 / np.linalg.norm(ref_w, "fro"))
    ok = single_ok and white_gap < 0.05
    detail = (f"C=1 max gap {max(gaps.values()):.3e}; white-noise BDAC "
              f"relative gap {white_gap:.3e} at N=4096")
    _emit(capsys, 9, ok, detail)
    assert ok, detail


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
