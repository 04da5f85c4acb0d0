"""BCD solver properties: descent, convergence, stationarity."""

import numpy as np
import pytest
from scipy.linalg.lapack import zpotrs

from dbpeq import dbpnet, equalizers as eq
from dbpeq.scenario import (ConfigError, SystemConfig, gen_realization, gen_symbol_block,
                            sample_covariance)


def _real(a):
    """The interleaved float64 view that the converge-mode kernel steps on."""
    return np.ascontiguousarray(a).view(float)


def _residual(z):
    """R = Z - [I | 0] = [A - I | B], the state of the converge-mode kernel."""
    return z - np.eye(*z.shape)


def _cfg(**kw):
    base = dict(M=32, K=4, C=4, N=64, snr_db=10.0, iot_db=10.0, seed=21)
    base.update(kw)
    return SystemConfig(**base)


def _converge_per_block(factors, wb, z, tol, max_sweeps):
    """Converge-mode BCD with W_c + D and the stopping sums taken per block.

    The loop as it ran before one W update and one stopping sum per
    sweep replaced it; the additions to W are the same, so W must come
    out bit-identical. Like the loop it steps on R = [A - I | B], formed
    from the starting ``z`` = [A | B], with the operators that
    ``factor.newton()`` has built. Returns (complex W blocks, sweeps run).
    """
    z = _real(_residual(z))
    wb = [_real(w) for w in wb]
    for t in range(max_sweeps):
        change = scale = 0.0
        for i, f in enumerate(factors):
            d = z.dot(f.p)
            wb[i] = wb[i] + d
            z = z + d.dot(f.x)
            change += np.vdot(d, d)
            scale += np.vdot(wb[i], wb[i])
        if change <= tol ** 2 * max(scale, 1e-300):
            return [w.view(complex) for w in wb], t + 1
    return [w.view(complex) for w in wb], max_sweeps


def _sweep_per_block(factors, wb, z, sweeps):
    """Fixed-sweep BCD that makes a new W_c and a new Z = [A | B] at every block step.

    The reference for the loop's in-place state: each step does the same
    arithmetic, so W must come out bit-identical. Returns the W blocks.
    """
    wb = list(wb)
    for _ in range(sweeps):
        for i, f in enumerate(factors):
            k = f.h.shape[1]
            a_others = z[:, :k] - wb[i] @ f.h
            b_others = z[:, k:] - wb[i] @ f.s
            num = f.hh_es - a_others @ f.hh_es - b_others @ f.sh
            w_new = zpotrs(f.chol, num.conj().T, lower=1)[0].conj().T
            z = np.hstack([a_others + w_new @ f.h, b_others + w_new @ f.s])
            wb[i] = w_new
    return wb


class TestBlockUpdate:
    def test_update_is_block_minimizer(self):
        # perturbing the updated block in any direction cannot decrease f
        rng = np.random.default_rng(0)
        cfg = _cfg()
        rz = gen_realization(cfg, 0)
        hb, nb = rz.H_blocks(), rz.noise_blocks()
        sb = [eq.scaled_samples(n) for n in nb]
        wb, a, b = eq.bdac_state(hb, nb, sb, 1.0)
        c = 2
        w_new = eq.bcd_block_update(hb[c], sb[c], a, b, wb[c], 1.0)
        wb2 = list(wb)
        wb2[c] = w_new
        f0 = eq.objective_from_samples(np.hstack(wb2), rz.H, np.vstack(sb), 1.0)
        for _ in range(5):
            d = (rng.standard_normal(w_new.shape)
                 + 1j * rng.standard_normal(w_new.shape))
            wb2[c] = w_new + 1e-4 * d
            f1 = eq.objective_from_samples(np.hstack(wb2), rz.H,
                                           np.vstack(sb), 1.0)
            assert f1 >= f0 - 1e-15

    def test_update_zeroes_block_gradient(self):
        cfg = _cfg()
        rz = gen_realization(cfg, 1)
        hb, nb = rz.H_blocks(), rz.noise_blocks()
        sb = [eq.scaled_samples(n) for n in nb]
        wb, a, b = eq.bdac_state(hb, nb, sb, 1.0)
        c = 1
        w_new = eq.bcd_block_update(hb[c], sb[c], a, b, wb[c], 1.0)
        wb2 = list(wb)
        wb2[c] = w_new
        g = eq.objective_gradient_block(np.hstack(wb2), rz.H, np.vstack(sb),
                                        rz.partition.rows(c), 1.0)
        assert np.max(np.abs(g)) < 1e-9

    def test_raw_and_scaled_updates_agree(self):
        cfg = _cfg()
        rz = gen_realization(cfg, 2)
        hb, nb = rz.H_blocks(), rz.noise_blocks()
        sb = [eq.scaled_samples(n) for n in nb]
        wb, a, b = eq.bdac_state(hb, nb, sb, 1.0)
        rt = np.sqrt(nb[0].shape[1])
        w1 = eq.bcd_block_update(hb[0], sb[0], a, b, wb[0], 1.0)
        w2 = eq.bcd_block_update_raw(hb[0], nb[0], a, b * rt, wb[0], 1.0)
        np.testing.assert_allclose(w1, w2, atol=1e-12)

    def test_sweep_step_matches_block_update(self):
        cfg = _cfg()
        rz = gen_realization(cfg, 3)
        hb, nb = rz.H_blocks(), rz.noise_blocks()
        sb = [eq.scaled_samples(n) for n in nb]
        wb, a, b = eq.bdac_state(hb, nb, sb, 1.0)
        blk = eq.BcdBlockFactor(hb[0], sb[0], 1.0)
        # the kernel steps Z = [A | B] in place and writes W_c into its slot
        z, w_fast = np.hstack([a, b]), wb[0].copy()
        assert eq.bcd_sweep_step(blk, z, w_fast) is None
        w_ref = eq.bcd_block_update(hb[0], sb[0], a, b, wb[0], 1.0)
        np.testing.assert_allclose(w_fast, w_ref, atol=1e-12)
        np.testing.assert_allclose(z[:, :4], a - wb[0] @ hb[0] + w_fast @ hb[0],
                                   atol=1e-12)
        np.testing.assert_allclose(z[:, 4:], b - wb[0] @ sb[0] + w_fast @ sb[0],
                                   atol=1e-12)

    def test_newton_step_matches_block_update(self):
        cfg = _cfg()
        rz = gen_realization(cfg, 3)
        hb, nb = rz.H_blocks(), rz.noise_blocks()
        sb = [eq.scaled_samples(n) for n in nb]
        wb, a, b = eq.bdac_state(hb, nb, sb, 1.0)
        blk = eq.BcdBlockFactor(hb[0], sb[0], 1.0)
        blk.newton()
        # the kernel steps on the float64 view of R = [A - I | B], writes
        # D into the block's buffer and leaves W_c + D to its caller
        d = np.empty((4, 2 * hb[0].shape[0]))
        z = _real(_residual(np.hstack([a, b])))
        assert eq.bcd_newton_step(blk, z, d) is None
        z = z.view(complex)
        z[:, :4] += np.eye(4)
        d = d.view(complex)
        w_new = wb[0] + d
        w_ref = eq.bcd_block_update(hb[0], sb[0], a, b, wb[0], 1.0)
        np.testing.assert_allclose(w_new, w_ref, atol=1e-12)
        np.testing.assert_allclose(d, w_ref - wb[0], atol=1e-12)
        np.testing.assert_allclose(z[:, :4], a - wb[0] @ hb[0] + w_new @ hb[0],
                                   atol=1e-12)
        np.testing.assert_allclose(z[:, 4:], b - wb[0] @ sb[0] + w_new @ sb[0],
                                   atol=1e-12)

    def test_newton_step_writes_the_arrays_it_is_given(self):
        # the BLAS wrapper would copy an operand that is not Fortran-ordered
        # and lose the update, so the step must land in these very arrays:
        # R is a view of a complex state and D a slice of one flat buffer,
        # as in bcd_iterate; for K >= 2 the bits are numpy's gemm bits
        cfg = _cfg()
        rz = gen_realization(cfg, 3)
        hb, nb = rz.H_blocks(), rz.noise_blocks()
        sb = [eq.scaled_samples(n) for n in nb]
        wb, a, b = eq.bdac_state(hb, nb, sb, 1.0)
        blk = eq.BcdBlockFactor(hb[1], sb[1], 1.0)
        blk.newton()
        state = _residual(np.hstack([a, b]))
        r = state.view(float)
        d_all = np.full(3 * wb[1].size, np.nan + 0j)
        d = d_all[wb[1].size:2 * wb[1].size].view(float).reshape(4, -1)
        d_ref = r.dot(blk.p)
        r_ref = r + d_ref.dot(blk.x)
        eq.bcd_newton_step(blk, r, d)
        np.testing.assert_array_equal(d, d_ref)
        np.testing.assert_array_equal(state.view(float), r_ref)
        assert np.isnan(d_all[:wb[1].size]).all() and np.isnan(d_all[2 * wb[1].size:]).all()


class TestDescent:
    def test_monotone_descent_fifty_realizations(self):
        cfg = _cfg(seed=100)
        violations = 0
        for trial in range(50):
            rz = gen_realization(cfg, trial)
            hb, nb = rz.H_blocks(), rz.noise_blocks()
            sb = [eq.scaled_samples(n) for n in nb]
            wb, a, b = eq.bdac_state(hb, nb, sb, 1.0)
            prev = eq.objective_sample(np.hstack(wb), rz.H, rz.noise, 1.0)
            for _ in range(4):
                for c in range(4):
                    w_new = eq.bcd_block_update(hb[c], sb[c], a, b, wb[c], 1.0)
                    a = a + (w_new - wb[c]) @ hb[c]
                    b = b + (w_new - wb[c]) @ sb[c]
                    wb[c] = w_new
                    obj = eq.objective_sample(np.hstack(wb), rz.H, rz.noise, 1.0)
                    if obj > prev + 1e-12:
                        violations += 1
                    prev = obj
        assert violations == 0

    def test_newton_steps_descend_fifty_realizations(self):
        # the converge-mode kernel must keep BCD's per-step descent
        cfg = _cfg(seed=100)
        violations = 0
        for trial in range(50):
            rz = gen_realization(cfg, trial)
            hb, nb = rz.H_blocks(), rz.noise_blocks()
            sb = [eq.scaled_samples(n) for n in nb]
            wb, a, b = eq.bdac_state(hb, nb, sb, 1.0)
            blocks = [eq.BcdBlockFactor(h, s, 1.0) for h, s in zip(hb, sb)]
            for blk in blocks:
                blk.newton()
            z = _real(_residual(np.hstack([a, b])))
            d = [np.empty((4, 2 * h.shape[0])) for h in hb]
            prev = eq.objective_sample(np.hstack(wb), rz.H, rz.noise, 1.0)
            for _ in range(4):
                for c in range(4):
                    eq.bcd_newton_step(blocks[c], z, d[c])
                    wb[c] = wb[c] + d[c].view(complex)
                    obj = eq.objective_sample(np.hstack(wb), rz.H, rz.noise, 1.0)
                    if obj > prev + 1e-12:
                        violations += 1
                    prev = obj
        assert violations == 0


class TestConvergence:
    def test_converges_to_centralized_lmmse(self):
        cfg = _cfg()
        for trial in range(5):
            rz = gen_realization(cfg, trial)
            rhat = sample_covariance(rz.noise)
            w_ref = eq.lmmse_centralized(rz.H, rhat, 1.0).W
            res = eq.bcd_solve(rz.H_blocks(), rz.noise_blocks(), 1.0,
                               sweeps=None, tol=1e-12, max_sweeps=50000)
            gap = (np.linalg.norm(res.W - w_ref, "fro")
                   / np.linalg.norm(w_ref, "fro"))
            assert gap < 1e-8

    def test_zero_init_converges_to_same_point(self):
        # bcd_solve starts from BDAC; the loop itself is driven from W = 0
        cfg = _cfg(M=16, N=64)
        rz = gen_realization(cfg, 0)
        hb, nb = rz.H_blocks(), rz.noise_blocks()
        r1 = eq.bcd_solve(hb, nb, 1.0, sweeps=None, tol=1e-12, max_sweeps=50000)
        sb = [eq.scaled_samples(n) for n in nb]
        k = cfg.K
        wb = [np.zeros((k, h.shape[0]), dtype=np.complex128) for h in hb]
        z = np.zeros((k, k + sb[0].shape[1]), dtype=np.complex128)
        factors = [eq.BcdBlockFactor(h, s, 1.0) for h, s in zip(hb, sb)]
        eq.bcd_iterate(factors, wb, z, 50000, tol=1e-12)
        np.testing.assert_allclose(r1.W, np.hstack(wb), atol=1e-7)
        # a float64 start, as np.zeros gives without a dtype, is cast on entry
        wb = [np.zeros((k, h.shape[0])) for h in hb]
        eq.bcd_iterate(factors, wb, np.zeros(z.shape), 50000, tol=1e-12)
        np.testing.assert_allclose(r1.W, np.hstack(wb), atol=1e-7)

    def test_matches_per_block_reference_loop(self):
        # criterion 01's setting, where the last case stops at the sweep cap;
        # then K = 2 and K = 8, and unequal clusters (sizes 8, 8, 7, 7)
        cases = [(_cfg(seed=11), trial, max_sweeps)
                 for trial, max_sweeps in ((0, 50000), (1, 50000), (2, 50000), (3, 7))]
        cases += [(_cfg(seed=11, **kw), 0, 50000) for kw in (dict(K=2), dict(K=8), dict(M=30))]
        for cfg, trial, max_sweeps in cases:
            rz = gen_realization(cfg, trial)
            hb, nb = rz.H_blocks(), rz.noise_blocks()
            sb = [eq.scaled_samples(n) for n in nb]
            wb, a, b = eq.bdac_state(hb, nb, sb, cfg.Es)
            factors = [eq.BcdBlockFactor(h, s, cfg.Es) for h, s in zip(hb, sb)]
            for f in factors:
                f.newton()
            w_ref, n_ref = _converge_per_block(factors, wb, np.hstack([a, b]),
                                               1e-12, max_sweeps)
            res = eq.bcd_solve(hb, nb, cfg.Es, tol=1e-12, max_sweeps=max_sweeps)
            np.testing.assert_array_equal(res.W, np.hstack(w_ref))
            assert res.iterations == n_ref
            if max_sweeps == 7:
                assert n_ref == 7

    def test_one_user_library_and_protocol_agree(self):
        # at K = 1 numpy would use gemv where the kernel uses gemm, so the
        # per-block reference loop differs in the last bits; library and
        # protocol share the kernel and must not
        cfg = _cfg(K=1, seed=11)
        rz = gen_realization(cfg, 0)
        blk = gen_symbol_block(cfg, rz, 0)
        fab = dbpnet.make_fabric(rz, blk.Y, "daisy", n_coh=cfg.n_coh)
        res_p, _ = dbpnet.run_bcd_daisy(fab, cfg.Es, tol=1e-12, max_sweeps=50000)
        res_l = eq.bcd_solve(rz.H_blocks(), rz.noise_blocks(), cfg.Es, tol=1e-12,
                             max_sweeps=50000)
        np.testing.assert_array_equal(res_p.W, res_l.W)
        assert res_p.iterations == res_l.iterations < 50000
        w_ref = eq.lmmse_centralized(rz.H, sample_covariance(rz.noise), cfg.Es).W
        gap = np.linalg.norm(res_l.W - w_ref, "fro") / np.linalg.norm(w_ref, "fro")
        assert gap < 1e-8

    @pytest.mark.parametrize("sweeps", [0, 1, 4])
    def test_fixed_sweeps_match_per_block_reference_loop(self, sweeps):
        cfg = _cfg(seed=11)
        for trial in range(3):
            rz = gen_realization(cfg, trial)
            hb, nb = rz.H_blocks(), rz.noise_blocks()
            sb = [eq.scaled_samples(n) for n in nb]
            wb, a, b = eq.bdac_state(hb, nb, sb, cfg.Es)
            factors = [eq.BcdBlockFactor(h, s, cfg.Es) for h, s in zip(hb, sb)]
            w_ref = _sweep_per_block(factors, wb, np.hstack([a, b]), sweeps)
            res = eq.bcd_solve(hb, nb, cfg.Es, sweeps=sweeps)
            np.testing.assert_array_equal(res.W, np.hstack(w_ref))
            assert res.iterations == sweeps

    @pytest.mark.parametrize("mode", [dict(limit=30, tol=1e-8), dict(limit=3)])
    def test_one_live_state_and_untouched_inputs(self, mode):
        # both modes step one state in place, so ``after`` gets the same
        # array at every step; the caller's Z and W blocks are never written
        cfg = _cfg(seed=11)
        rz = gen_realization(cfg, 0)
        hb, nb = rz.H_blocks(), rz.noise_blocks()
        sb = [eq.scaled_samples(n) for n in nb]
        wb, a, b = eq.bdac_state(hb, nb, sb, cfg.Es)
        factors = [eq.BcdBlockFactor(h, s, cfg.Es) for h, s in zip(hb, sb)]
        z, w_in = np.hstack([a, b]), list(wb)
        z_copy, w_copies = z.copy(), [w.copy() for w in wb]
        seen = []
        sweeps = eq.bcd_iterate(factors, wb, z, after=lambda t, i, s: seen.append(s),
                                **mode)
        assert len(seen) == 4 * sweeps > 4
        assert all(s is seen[0] for s in seen)
        np.testing.assert_array_equal(z, z_copy)
        for w, w_copy in zip(w_in, w_copies):
            np.testing.assert_array_equal(w, w_copy)

    def test_carried_residual_does_not_drift(self):
        # after thousands of sweeps the R that the loop carries still
        # equals the residual of the W it returns
        cfg = _cfg(seed=11)
        rz = gen_realization(cfg, 0)
        hb, nb = rz.H_blocks(), rz.noise_blocks()
        sb = [eq.scaled_samples(n) for n in nb]
        wb, a, b = eq.bdac_state(hb, nb, sb, cfg.Es)
        factors = [eq.BcdBlockFactor(h, s, cfg.Es) for h, s in zip(hb, sb)]
        seen = {}

        def after(t, i, r):
            # the loop steps one R in place, so keep a copy of it
            seen["steps"] = seen.get("steps", 0) + 1
            seen["r"] = r.copy()

        sweeps = eq.bcd_iterate(factors, wb, np.hstack([a, b]), 50000, tol=1e-12,
                                after=after)
        assert sweeps > 1000 and seen["steps"] == 4 * sweeps
        r_true = _residual(np.hstack(wb) @ np.hstack([rz.H, np.vstack(sb)]))
        np.testing.assert_allclose(seen["r"], r_true, rtol=0, atol=1e-12)

    def test_single_cluster_converges_in_one_sweep(self):
        cfg = _cfg(M=16, C=1)
        rz = gen_realization(cfg, 0)
        rhat = sample_covariance(rz.noise)
        w_ref = eq.lmmse_centralized(rz.H, rhat, 1.0).W
        res = eq.bcd_solve([rz.H], [rz.noise], 1.0, sweeps=1)
        gap = np.linalg.norm(res.W - w_ref, "fro") / np.linalg.norm(w_ref, "fro")
        assert gap < 1e-10

    def test_fixed_sweep_count_is_respected(self):
        rz = gen_realization(_cfg(), 0)
        res = eq.bcd_solve(rz.H_blocks(), rz.noise_blocks(), 1.0, sweeps=3)
        assert res.iterations == 3

    def test_objective_never_below_global_optimum(self):
        rz = gen_realization(_cfg(), 4)
        rhat = sample_covariance(rz.noise)
        w_ref = eq.lmmse_centralized(rz.H, rhat, 1.0).W
        f_star = eq.objective_sample(w_ref, rz.H, rz.noise, 1.0)
        for sweeps in (1, 4, 16):
            res = eq.bcd_solve(rz.H_blocks(), rz.noise_blocks(), 1.0,
                               sweeps=sweeps)
            assert eq.objective_sample(res.W, rz.H, rz.noise, 1.0) >= f_star - 1e-12


class TestSchedule:
    @pytest.mark.parametrize("kw, limit", [
        (dict(), 4), (dict(sweeps=0), 0), (dict(sweeps=7), 7),
        (dict(tol=1e-3), 200), (dict(tol=1e-3, max_sweeps=9), 9),
        (dict(sweeps=3, max_sweeps=1), 3),
    ])
    def test_limit_follows_the_rule(self, kw, limit):
        assert eq.bcd_limit(**kw) == limit

    @pytest.mark.parametrize("kw", [
        dict(sweeps=2, tol=1e-3), dict(sweeps=-1), dict(tol=0.0), dict(tol=-1.0),
        dict(tol=float("nan")), dict(max_sweeps=0), dict(sweeps=True), dict(sweeps=2.0),
        dict(tol="1e-3"), dict(tol=True), dict(tol=1e-3, max_sweeps=10.5),
    ])
    def test_bad_rule_raises_config_error(self, kw):
        with pytest.raises(ConfigError):
            eq.bcd_limit(**kw)

    def test_converge_mode_runs_on_plain_factors(self):
        # the loop builds the converge-mode operators itself; factors made
        # for fixed mode used to fail with AttributeError: no attribute 'p'
        cfg = _cfg(seed=11)
        rz = gen_realization(cfg, 0)
        hb, nb = rz.H_blocks(), rz.noise_blocks()
        sb = [eq.scaled_samples(n) for n in nb]
        wb, a, b = eq.bdac_state(hb, nb, sb, cfg.Es)
        factors = [eq.BcdBlockFactor(h, s, cfg.Es) for h, s in zip(hb, sb)]
        eq.bcd_iterate(factors, wb[:], np.hstack([a, b]), 2)  # they serve fixed mode first
        sweeps = eq.bcd_iterate(factors, wb, np.hstack([a, b]), 5000, tol=1e-8)
        res = eq.bcd_solve(hb, nb, cfg.Es, tol=1e-8, max_sweeps=5000)
        np.testing.assert_array_equal(np.hstack(wb), res.W)
        assert sweeps == res.iterations < 5000


class TestLrdIntegration:
    def test_exact_rank_lrd_reproduces_plain_bcd(self):
        # when G G^H = S S^H exactly, BCD trajectories coincide
        cfg = _cfg(M=16, C=4, N=48)
        rz = gen_realization(cfg, 0)
        sb = [eq.scaled_samples(n) for n in rz.noise_blocks()]
        g_blocks, _ = eq.lrd_sequential(sb, min(16, 48))
        r_plain = eq.bcd_solve(rz.H_blocks(), rz.noise_blocks(), 1.0, sweeps=4)
        r_lrd = eq.bcd_solve(rz.H_blocks(), rz.noise_blocks(), 1.0, sweeps=4,
                             sample_blocks=g_blocks)
        np.testing.assert_allclose(r_lrd.W, r_plain.W, atol=1e-8)
