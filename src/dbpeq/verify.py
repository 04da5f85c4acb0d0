"""The one property battery, run by ``dbpeq verify`` and the acceptance criteria.

Each property is a function of its configuration (whose ``seed`` draws
the realizations), its instance count and, where it draws more random
numbers, its generator seed; it returns a :class:`CheckResult`.
:data:`CHECKS` binds each to a desk configuration for ``dbpeq verify``;
criteria 01-07 and 09 of ``tests/test_acceptance.py`` call the same
functions at their own scale; :func:`ledger_rows`, the ledger property's
one table of ledgers against closed forms, is what ``dbpeq bandwidth`` prints.
Its cells come from :func:`dbpeq.bench.trial_cells`, the one road to a cell.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import partial
from typing import Callable, Optional

import numpy as np

from . import bench, dbpnet, equalizers as eq
from .bench import RunSpec, default_algo
from .numerics import truncated_svd
from .scenario import (SystemConfig, _cn, derive_powers, gen_realization,
                       gen_symbol_block, sample_covariance)


@dataclass
class CheckResult:
    name: str
    passed: bool
    detail: str


def _gap(x: np.ndarray, ref: np.ndarray) -> float:
    return float(np.linalg.norm(x - ref) / np.linalg.norm(ref))


def check_bcd_convergence(cfg: SystemConfig, count: int) -> CheckResult:
    """Converge-mode BCD (tol 1e-12) lands within 1e-8 of centralized LMMSE."""
    worst = 0.0
    for trial in range(count):
        rz = gen_realization(cfg, trial)
        w_ref = eq.lmmse_centralized(rz.H, sample_covariance(rz.noise), cfg.Es).W
        res = eq.bcd_solve(rz.H_blocks(), rz.noise_blocks(), cfg.Es,
                           tol=1e-12, max_sweeps=50000)
        worst = max(worst, _gap(res.W, w_ref))
    return CheckResult("bcd-convergence", worst < 1e-8,
                       f"max relative gap to centralized LMMSE {worst:.3e} "
                       f"over {count} realizations")


def check_bcd_descent(cfg: SystemConfig, count: int) -> CheckResult:
    """No step of 4 BCD sweeps from BDAC raises the sample objective by over 1e-12.

    Checked for the oracle :func:`bcd_block_update`, the fixed-sweep
    :func:`bcd_sweep_step` and the converge-mode :func:`bcd_newton_step`, which
    steps R = Z - [I | 0] on the Fortran-ordered transposes of R's and D's
    float64 views, as :func:`bcd_iterate` passes them.
    """
    violations = steps = 0
    for trial in range(count):
        rz = gen_realization(cfg, trial)
        hb, nb = rz.H_blocks(), rz.noise_blocks()
        sb = [eq.scaled_samples(n) for n in nb]
        w0, a, b = eq.bdac_state(hb, nb, sb, cfg.Es)
        factors = [eq.BcdBlockFactor(h, s, cfg.Es) for h, s in zip(hb, sb)]
        for f in factors:
            f.newton()
        d = [np.empty((cfg.K, 2 * h.shape[0])) for h in hb]
        for kernel in ("oracle", "fixed-sweep", "newton"):
            wb, z = [w.copy() for w in w0], np.hstack([a, b])
            z = (z - np.eye(*z.shape)).view(np.float64) if kernel == "newton" else z
            prev = eq.objective_sample(np.hstack(wb), rz.H, rz.noise, cfg.Es)
            for _ in range(4):
                for c, (h, s) in enumerate(zip(hb, sb)):
                    if kernel == "oracle":
                        w_new = eq.bcd_block_update(h, s, z[:, :cfg.K], z[:, cfg.K:],
                                                    wb[c], cfg.Es)
                        z += (w_new - wb[c]) @ np.hstack([h, s])
                        wb[c] = w_new
                    elif kernel == "fixed-sweep":  # steps z, writes W_c into wb[c]
                        eq.bcd_sweep_step(factors[c], z, wb[c])
                    else:  # steps z, writes D into d[c], on their transposes
                        eq.bcd_newton_step(factors[c], z.T, d[c].T)
                        wb[c] += d[c].view(np.complex128)
                    obj = eq.objective_sample(np.hstack(wb), rz.H, rz.noise, cfg.Es)
                    violations += obj > prev + 1e-12
                    steps += 1
                    prev = obj
    return CheckResult("bcd-descent", violations == 0,
                       f"{violations} objective increases beyond 1e-12 across {steps} "
                       f"block steps of the oracle, fixed-sweep and Newton kernels "
                       f"on {count} realizations")


def check_gradient(cfg: SystemConfig, count: int, seed: int) -> CheckResult:
    """The analytic block gradient matches central differences to 1e-4 relative."""
    rng = np.random.default_rng(seed)
    rz = gen_realization(cfg, 0)
    s = eq.scaled_samples(rz.noise)
    h, worst = 1e-5, 0.0
    for _ in range(count):
        w = (rng.standard_normal((cfg.K, cfg.M))
             + 1j * rng.standard_normal((cfg.K, cfg.M)))
        rows = rz.partition.rows(int(rng.integers(0, cfg.C)))
        g = eq.objective_gradient_block(w, rz.H, s, rows, cfg.Es)
        i = int(rng.integers(0, cfg.K))
        j = int(rng.integers(rows.start, rows.stop))
        for part, ref in ((1.0, g.real), (1j, g.imag)):
            wp, wm = w.copy(), w.copy()
            wp[i, j] += part * h
            wm[i, j] -= part * h
            fd = (eq.objective_from_samples(wp, rz.H, s, cfg.Es)
                  - eq.objective_from_samples(wm, rz.H, s, cfg.Es)) / (2 * h)
            worst = max(worst, abs(fd - ref[i, j - rows.start]) / max(abs(fd), 1e-12))
    return CheckResult("gradient-fd", worst < 1e-4,
                       f"max relative gradient error {worst:.3e} at {count} random points")


def check_dr_mse_ordering(cfg: SystemConfig, count: int) -> CheckResult:
    """Concatenated compression never has a larger MSE matrix than superimposed.

    Instances alternate between ``cfg.C`` and ``cfg.C // 2`` clusters.
    """
    worst, trace_ok = np.inf, True
    for trial in range(count):
        cfg_t = cfg.with_updates(C=cfg.C // 2 if trial % 2 else cfg.C)
        rz = gen_realization(cfg_t, trial)
        rhat = sample_covariance(rz.noise)
        qs = [eq.local_compression(hc, sample_covariance(nc))
              for hc, nc in zip(rz.H_blocks(), rz.noise_blocks())]
        e_s = eq.mse_matrix(rz.H, rhat, np.hstack(qs), cfg.Es)
        q_cat = np.zeros((cfg_t.C * cfg_t.K, cfg_t.M), dtype=np.complex128)
        row = col = 0
        for q in qs:  # concatenated: each K x M_c block Q_c in its own rows and columns
            q_cat[row:row + q.shape[0], col:col + q.shape[1]] = q
            row, col = row + q.shape[0], col + q.shape[1]
        e_c = eq.mse_matrix(rz.H, rhat, q_cat, cfg.Es)
        diff = 0.5 * ((e_s - e_c) + (e_s - e_c).conj().T)
        scale = abs(np.trace(diff).real) + 1e-300
        worst = min(worst, np.linalg.eigvalsh(diff).min() / scale)
        trace_ok &= bool(np.trace(e_s).real >= np.trace(e_c).real - 1e-12)
    return CheckResult("dr-mse-ordering", worst >= -1e-9 and trace_ok,
                       f"min normalized eigenvalue of E_superimposed - E_concatenated "
                       f"{worst:.3e} over {count} instances; trace ordering "
                       f"{'held' if trace_ok else 'violated'}")


def check_lossless_compression(cfg: SystemConfig, count: int, seed: int) -> CheckResult:
    """Q = P H^H R^-1 with a random invertible P keeps the LMMSE estimate to 1e-9."""
    rng = np.random.default_rng(seed)
    worst = 0.0
    for trial in range(count):
        rz = gen_realization(cfg, trial)
        y = gen_symbol_block(cfg, rz, trial).Y
        rhat = sample_covariance(rz.noise)
        s_ref = eq.lmmse_centralized(rz.H, rhat, cfg.Es).W @ y
        p = _cn(rng, cfg.K, cfg.K) + 2.0 * np.eye(cfg.K)
        q = p @ eq.local_compression(rz.H, rhat)
        worst = max(worst, _gap(eq.compressed_estimate(rz.H, rhat, q, y, cfg.Es), s_ref))
    return CheckResult("lossless-compression", worst < 1e-9,
                       f"max relative estimate gap {worst:.3e} over {count} random "
                       f"invertible mixing matrices")


def check_lrd(cfg: SystemConfig, count: int, seed: int, exact_count: int) -> CheckResult:
    """Sequential LRD at rank n_interf is exact and near the global SVD.

    Exact (gap below 1e-9) on the pure-interference samples of the first
    ``exact_count`` realizations; on the noise of all ``count``, its
    residual is between 1 and 1.1 times the global truncated SVD's.
    """
    rng = np.random.default_rng(seed)
    r = cfg.n_interf
    _, beta = derive_powers(cfg)
    worst_exact, ratios = 0.0, []
    for trial in range(count):
        rz = gen_realization(cfg, trial)
        if trial < exact_count:
            s = np.sqrt(beta * cfg.Es) * rz.Hbar @ _cn(rng, r, cfg.N) / np.sqrt(cfg.N)
            g = np.vstack(eq.lrd_sequential(rz.partition.split(s), r)[0])
            rhat = s @ s.conj().T
            worst_exact = max(worst_exact, _gap(g @ g.conj().T, rhat))
        sb = [eq.scaled_samples(n) for n in rz.noise_blocks()]
        g = np.vstack(eq.lrd_sequential(sb, r)[0])
        dec = truncated_svd(np.vstack(sb), r)
        g_opt = dec.U * dec.S
        rhat = sample_covariance(rz.noise)
        ratios.append(np.linalg.norm(rhat - g @ g.conj().T)
                      / np.linalg.norm(rhat - g_opt @ g_opt.conj().T))
    ok = worst_exact < 1e-9 and 1.0 - 1e-9 <= min(ratios) and max(ratios) <= 1.1
    return CheckResult("lrd", ok,
                       f"rank-{r} covariance gap {worst_exact:.3e}; sequential/global "
                       f"residual ratio in [{min(ratios):.4f}, {max(ratios):.4f}] "
                       f"over {count} instances")


def ledger_rows(cfg: SystemConfig, specs):
    """Yield (spec, closed form, ledger or the failed Cell's error) of each spec on trial
    0 of ``cfg``, from :func:`dbpeq.bench.trial_cells`: the ledger property's one table."""
    spec = RunSpec(cfg, tuple(specs), (cfg.snr_db,), trials=1)
    for _, algo, _, cell, _ in bench.trial_cells(spec, 0):
        yield (algo, dbpnet.ALGORITHMS[algo.name].entries(cfg, algo),
               cell.error or cell.fabric.ledger.per_symbol_average())


def check_ledger_formulas(cfg: SystemConfig, grid) -> CheckResult:
    """Every algorithm row's ledger equals its closed form, in exact rationals.

    ``grid`` holds (M, K, C, N, n_coh, T, r) points, run with n_interf = K.
    Also checked: the bcd-lrd aggregate form exceeds the ledger form by
    2 N r / n_coh, and the published averages 1088/3 and 544/3.
    """
    mismatches = []
    for m, k, c, n, ncoh, t, r in grid:
        cfg_g = cfg.with_updates(M=m, K=k, C=c, N=n, n_coh=ncoh, n_interf=k)
        specs = [default_algo(name, cfg_g, T=t, r=r) for name in dbpnet.ALGORITHMS]
        for algo, want, got in ledger_rows(cfg_g, specs):  # a FAIL's got says why
            if got != want:
                mismatches.append((m, k, c, n, algo.name, got, want))
            # the aggregate form counts the final rank-r broadcast as C + 2 hops, the ring C
            if algo.name == "bcd-lrd":
                excess = dbpnet.formula_bcd_lrd_aggregate(c, m, k, n, t, r, ncoh) - want
                if excess != Fraction(2 * n * r, ncoh):
                    mismatches.append((m, k, c, n, "bcd-lrd-residual", excess, None))
    published = (dbpnet.formula_centralized(128, 8, 192, 480) == Fraction(1088, 3)
                 and dbpnet.formula_dr(8, 8, 192, 480) == Fraction(544, 3))
    ok = not mismatches and published
    return CheckResult("ledger-formulas", ok,
                       f"{len(grid) * len(dbpnet.ALGORITHMS)} ledgers equal their closed "
                       f"forms (exact rationals); published per-symbol averages 362.67 "
                       f"and 181.33 reproduced" if ok
                       else f"mismatches: {mismatches}; published={published}")


def check_degenerate(cfg: SystemConfig) -> CheckResult:
    """At C = 1 every decentralized scheme is centralized LMMSE (gaps below 1e-10);
    with white noise (IoT 0 dB) and N = 4096, BDAC is within 5 % of it."""
    one = cfg.with_updates(C=1)
    rz = gen_realization(one, 0)
    y = gen_symbol_block(one, rz, 0).Y
    rhat = sample_covariance(rz.noise)
    w_ref = eq.lmmse_centralized(rz.H, rhat, cfg.Es).W
    s_ref = w_ref @ y
    hb, yb, nb = [rz.H], [y], [rz.noise]
    single = max(np.linalg.norm(eq.sdr_mmse(hb, yb, nb, cfg.Es)[1] - s_ref),
                 np.linalg.norm(eq.cdr_mmse(hb, yb, nb, cfg.Es)[1] - s_ref),
                 np.linalg.norm(eq.bdac_mmse(hb, [rhat], cfg.Es).W - w_ref),
                 np.linalg.norm(eq.bcd_solve(hb, nb, cfg.Es, sweeps=1).W - w_ref))
    white = cfg.with_updates(N=4096, iot_db=0.0)
    rz = gen_realization(white, 0)
    w_ref = eq.lmmse_centralized(rz.H, sample_covariance(rz.noise), white.Es).W
    rb = [sample_covariance(nc) for nc in rz.noise_blocks()]
    white_gap = _gap(eq.bdac_mmse(rz.H_blocks(), rb, white.Es).W, w_ref)
    return CheckResult("degenerate-single-cluster", single < 1e-10 and white_gap < 0.05,
                       f"C=1 max gap {single:.3e}; white-noise BDAC relative gap "
                       f"{white_gap:.3e} at N={white.N}")


_DESK = SystemConfig(M=32, K=4, C=4, N=64, snr_db=10.0, iot_db=10.0, seed=1234)

CHECKS: dict[str, Callable[[], CheckResult]] = {
    "bcd-convergence": partial(check_bcd_convergence, _DESK, 3),
    "bcd-descent": partial(check_bcd_descent, _DESK.with_updates(seed=99), 5),
    "gradient-fd": partial(check_gradient, _DESK.with_updates(M=12, C=3, N=24), 8, 7),
    "dr-mse-ordering": partial(check_dr_mse_ordering, _DESK.with_updates(M=16, seed=5), 20),
    "lossless-compression": partial(check_lossless_compression, _DESK.with_updates(M=16), 5, 21),
    "lrd": partial(check_lrd, _DESK.with_updates(M=16, N=48), 10, 11, 10),
    "ledger-formulas": partial(check_ledger_formulas, _DESK, [
        (32, 4, 4, 64, 480, 2, 4), (16, 2, 2, 24, 100, 1, 2), (128, 8, 8, 192, 480, 2, 8)]),
    "degenerate-single-cluster": partial(check_degenerate, _DESK.with_updates(M=16)),
}


def run_checks(name_filter: Optional[str] = None) -> list[CheckResult]:
    return [fn() for name, fn in CHECKS.items()
            if not name_filter or name_filter in name]
