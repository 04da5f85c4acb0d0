"""BCD solver properties: descent, convergence, stationarity."""

import numpy as np

from dbpeq import equalizers as eq
from dbpeq.scenario import SystemConfig, gen_realization, sample_covariance


def _real(a):
    """The interleaved float64 view that the converge-mode kernel steps on."""
    return np.ascontiguousarray(a).view(float)


def _cfg(**kw):
    base = dict(M=32, K=4, C=4, N=64, snr_db=10.0, iot_db=10.0, seed=21)
    base.update(kw)
    return SystemConfig(**base)


def _converge_per_block(factors, wb, z, tol, max_sweeps):
    """Converge-mode BCD with W_c + D and the stopping sums taken per block.

    The loop as it ran before one W update and one stopping sum per
    sweep replaced it; the additions to W are the same, so W must come
    out bit-identical. Returns (complex W blocks, sweeps run).
    """
    z = _real(z)
    wb = [_real(w) for w in wb]
    for t in range(max_sweeps):
        change = scale = 0.0
        for i, f in enumerate(factors):
            d = f.p_top - z.dot(f.p)
            wb[i] = wb[i] + d
            z = z + d.dot(f.x)
            change += np.vdot(d, d)
            scale += np.vdot(wb[i], wb[i])
        if change <= tol ** 2 * max(scale, 1e-300):
            return [w.view(complex) for w in wb], t + 1
    return [w.view(complex) for w in wb], max_sweeps


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
        w_fast, z, d = eq.bcd_sweep_step(blk, np.hstack([a, b]), wb[0])
        w_ref = eq.bcd_block_update(hb[0], sb[0], a, b, wb[0], 1.0)
        np.testing.assert_allclose(w_fast, w_ref, atol=1e-12)
        np.testing.assert_array_equal(d, w_fast - wb[0])
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
        blk = eq.BcdBlockFactor(hb[0], sb[0], 1.0, newton=True)
        # the kernel steps on the float64 view of Z, writes D into the
        # block's buffer and leaves W_c + D to its caller
        d = np.empty((4, 2 * hb[0].shape[0]))
        z = eq.bcd_newton_step(blk, _real(np.hstack([a, b])), d).view(complex)
        d = d.view(complex)
        w_new = wb[0] + d
        w_ref = eq.bcd_block_update(hb[0], sb[0], a, b, wb[0], 1.0)
        np.testing.assert_allclose(w_new, w_ref, atol=1e-12)
        np.testing.assert_allclose(d, w_ref - wb[0], atol=1e-12)
        np.testing.assert_allclose(z[:, :4], a - wb[0] @ hb[0] + w_new @ hb[0],
                                   atol=1e-12)
        np.testing.assert_allclose(z[:, 4:], b - wb[0] @ sb[0] + w_new @ sb[0],
                                   atol=1e-12)


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
            blocks = [eq.BcdBlockFactor(h, s, 1.0, newton=True)
                      for h, s in zip(hb, sb)]
            z = _real(np.hstack([a, b]))
            d = [np.empty((4, 2 * h.shape[0])) for h in hb]
            prev = eq.objective_sample(np.hstack(wb), rz.H, rz.noise, 1.0)
            for _ in range(4):
                for c in range(4):
                    z = eq.bcd_newton_step(blocks[c], z, d[c])
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
        factors = [eq.BcdBlockFactor(h, s, 1.0, newton=True) for h, s in zip(hb, sb)]
        eq.bcd_iterate(factors, wb, z, tol=1e-12, max_sweeps=50000)
        np.testing.assert_allclose(r1.W, np.hstack(wb), atol=1e-7)
        # a float64 start, as np.zeros gives without a dtype, is cast on entry
        wb = [np.zeros((k, h.shape[0])) for h in hb]
        eq.bcd_iterate(factors, wb, np.zeros(z.shape), tol=1e-12, max_sweeps=50000)
        np.testing.assert_allclose(r1.W, np.hstack(wb), atol=1e-7)

    def test_matches_per_block_reference_loop(self):
        # criterion 01's setting; the last case stops at the sweep cap
        cfg = _cfg(seed=11)
        for trial, max_sweeps in ((0, 50000), (1, 50000), (2, 50000), (3, 7)):
            rz = gen_realization(cfg, trial)
            hb, nb = rz.H_blocks(), rz.noise_blocks()
            sb = [eq.scaled_samples(n) for n in nb]
            wb, a, b = eq.bdac_state(hb, nb, sb, cfg.Es)
            factors = [eq.BcdBlockFactor(h, s, cfg.Es, newton=True)
                       for h, s in zip(hb, sb)]
            w_ref, n_ref = _converge_per_block(factors, wb, np.hstack([a, b]),
                                               1e-12, max_sweeps)
            res = eq.bcd_solve(hb, nb, cfg.Es, tol=1e-12, max_sweeps=max_sweeps)
            np.testing.assert_array_equal(res.W, np.hstack(w_ref))
            assert res.iterations == n_ref
        assert n_ref == 7

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
