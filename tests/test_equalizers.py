"""Equalizer math against hand-built numpy oracles."""

import numpy as np
import pytest
from scipy.linalg import block_diag

from dbpeq import equalizers as eq
from dbpeq.numerics import NotPositiveDefinite
from dbpeq.scenario import (
    SystemConfig,
    gen_realization,
    gen_symbol_block,
    sample_covariance,
)


def _cfg(**kw):
    base = dict(M=16, K=4, C=4, N=64, snr_db=10.0, iot_db=10.0, seed=7)
    base.update(kw)
    return SystemConfig(**base)


def _oracle_lmmse(h, r, es):
    """Direct numpy evaluation of (H^H R^-1 H + I/Es)^-1 H^H R^-1."""
    ri = np.linalg.inv(r)
    k = h.shape[1]
    return np.linalg.inv(h.conj().T @ ri @ h + np.eye(k) / es) @ h.conj().T @ ri


def _local_qs(rz):
    qs = []
    for hc, nc in zip(rz.H_blocks(), rz.noise_blocks()):
        rcc = sample_covariance(nc)
        qs.append(hc.conj().T @ np.linalg.inv(rcc))
    return qs


class TestCentralized:
    def test_lmmse_matches_oracle(self):
        for trial in range(5):
            rz = gen_realization(_cfg(), trial)
            rhat = sample_covariance(rz.noise)
            w = eq.lmmse_centralized(rz.H, rhat, 1.0).W
            np.testing.assert_allclose(w, _oracle_lmmse(rz.H, rhat, 1.0),
                                       atol=1e-10)

    def test_zf_is_pseudoinverse(self):
        rz = gen_realization(_cfg(), 0)
        w = eq.zf_centralized(rz.H).W
        np.testing.assert_allclose(w, np.linalg.pinv(rz.H), atol=1e-10)
        np.testing.assert_allclose(w @ rz.H, np.eye(4), atol=1e-10)

    def test_lmmse_whitens_interference(self):
        # colored-noise LMMSE beats the naive white-noise filter in MSE
        cfg = _cfg(M=32, N=256)
        rz = gen_realization(cfg, 1)
        blk = gen_symbol_block(cfg, rz, 1)
        rhat = sample_covariance(rz.noise)
        w_col = eq.lmmse_centralized(rz.H, rhat, 1.0).W
        w_white = eq.lmmse_centralized(
            rz.H, np.eye(32) * np.trace(rhat).real / 32, 1.0).W
        mse_col = np.mean(np.abs(w_col @ blk.Y - blk.S) ** 2)
        mse_white = np.mean(np.abs(w_white @ blk.Y - blk.S) ** 2)
        assert mse_col < mse_white


class TestBdac:
    def test_oracle_block_diagonal_covariance(self):
        rz = gen_realization(_cfg(), 2)
        r_blocks = [sample_covariance(nc) for nc in rz.noise_blocks()]
        w = eq.bdac_mmse(rz.H_blocks(), r_blocks, 1.0).W
        want = _oracle_lmmse(rz.H, block_diag(*r_blocks), 1.0)
        np.testing.assert_allclose(w, want, atol=1e-10)

    def test_single_cluster_equals_lmmse(self):
        rz = gen_realization(_cfg(C=1), 0)
        rhat = sample_covariance(rz.noise)
        w_bdac = eq.bdac_mmse([rz.H], [rhat], 1.0).W
        w_ref = eq.lmmse_centralized(rz.H, rhat, 1.0).W
        np.testing.assert_allclose(w_bdac, w_ref, atol=1e-12)


class TestDimensionalityReduction:
    def test_sdr_oracle(self):
        rz = gen_realization(_cfg(), 3)
        blk = gen_symbol_block(_cfg(), rz, 3)
        qs = _local_qs(rz)
        q = np.hstack(qs)
        h_eff = q @ rz.H
        n_eff = q @ rz.noise
        y_eff = q @ blk.Y
        r_eff = n_eff @ n_eff.conj().T / n_eff.shape[1]
        w_want = _oracle_lmmse_compressed(h_eff, r_eff, 1.0)
        res, shat = eq.sdr_mmse(rz.H_blocks(), list(rz.partition.split(blk.Y)),
                                rz.noise_blocks(), 1.0)
        np.testing.assert_allclose(res.W, w_want, atol=1e-9)
        np.testing.assert_allclose(shat, w_want @ y_eff, atol=1e-9)

    def test_cdr_oracle(self):
        rz = gen_realization(_cfg(C=2, N=64), 4)
        blk = gen_symbol_block(_cfg(C=2, N=64), rz, 4)
        qs = _local_qs(rz)
        q = block_diag(*qs)
        h_eff = q @ rz.H
        n_eff = q @ rz.noise
        r_eff = n_eff @ n_eff.conj().T / n_eff.shape[1]
        w_want = _oracle_lmmse_compressed(h_eff, r_eff, 1.0)
        res, shat = eq.cdr_mmse(rz.H_blocks(), list(rz.partition.split(blk.Y)),
                                rz.noise_blocks(), 1.0)
        np.testing.assert_allclose(res.W, w_want, atol=1e-9)
        np.testing.assert_allclose(shat, w_want @ (q @ blk.Y), atol=1e-9)

    def test_cdr_rank_deficient_raises(self):
        cfg = _cfg(M=32, C=4, N=8)
        rz = gen_realization(cfg, 0)
        blk = gen_symbol_block(cfg, rz, 0)
        with pytest.raises(NotPositiveDefinite):
            eq.cdr_mmse(rz.H_blocks(), list(rz.partition.split(blk.Y)),
                        rz.noise_blocks(), 1.0)

    def test_single_cluster_sdr_cdr_equal_lmmse_estimate(self):
        cfg = _cfg(C=1)
        rz = gen_realization(cfg, 0)
        blk = gen_symbol_block(cfg, rz, 0)
        rhat = sample_covariance(rz.noise)
        ref = eq.lmmse_centralized(rz.H, rhat, 1.0).W @ blk.Y
        _, s_sdr = eq.sdr_mmse([rz.H], [blk.Y], [rz.noise], 1.0)
        _, s_cdr = eq.cdr_mmse([rz.H], [blk.Y], [rz.noise], 1.0)
        np.testing.assert_allclose(s_sdr, ref, atol=1e-10)
        np.testing.assert_allclose(s_cdr, ref, atol=1e-10)


def _oracle_lmmse_compressed(h_eff, r_eff, es):
    k = h_eff.shape[1]
    ri = np.linalg.inv(r_eff)
    return (np.linalg.inv(h_eff.conj().T @ ri @ h_eff + np.eye(k) / es)
            @ h_eff.conj().T @ ri)


class TestLosslessCompression:
    def test_optimal_q_preserves_estimate(self):
        rng = np.random.default_rng(0)
        cfg = _cfg(M=16, K=4, C=1)
        for trial in range(20):
            rz = gen_realization(cfg, trial)
            blk = gen_symbol_block(cfg, rz, trial)
            rhat = sample_covariance(rz.noise)
            ref = eq.lmmse_centralized(rz.H, rhat, 1.0).W @ blk.Y
            p = (rng.standard_normal((4, 4))
                 + 1j * rng.standard_normal((4, 4)))
            q = p @ rz.H.conj().T @ np.linalg.inv(rhat)
            shat = eq.compressed_estimate(rz.H, rhat, q, blk.Y, 1.0)
            rel = np.linalg.norm(shat - ref) / np.linalg.norm(ref)
            assert rel < 1e-9

    def test_generic_q_is_lossy(self):
        rng = np.random.default_rng(1)
        cfg = _cfg(M=16, K=4, C=1)
        rz = gen_realization(cfg, 0)
        blk = gen_symbol_block(cfg, rz, 0)
        rhat = sample_covariance(rz.noise)
        ref = eq.lmmse_centralized(rz.H, rhat, 1.0).W @ blk.Y
        q = rng.standard_normal((4, 16)) + 1j * rng.standard_normal((4, 16))
        shat = eq.compressed_estimate(rz.H, rhat, q, blk.Y, 1.0)
        assert np.linalg.norm(shat - ref) / np.linalg.norm(ref) > 1e-6


class TestMseMatrix:
    def _direct_mse(self, h, rhat, q, es):
        """E[(shat-s)(shat-s)^H] with the optimal filter on compressed data."""
        qh = q @ h
        qrq = q @ rhat @ q.conj().T
        w = _oracle_lmmse_compressed(qh, qrq, es)
        fit = w @ qh - np.eye(h.shape[1])
        return es * fit @ fit.conj().T + w @ qrq @ w.conj().T

    def test_matches_direct_definition(self):
        rng = np.random.default_rng(2)
        cfg = _cfg(M=16, K=4)
        for trial in range(10):
            rz = gen_realization(cfg, trial)
            rhat = sample_covariance(rz.noise)
            q = (rng.standard_normal((8, 16))
                 + 1j * rng.standard_normal((8, 16)))
            e = eq.mse_matrix(rz.H, rhat, q, 1.0)
            np.testing.assert_allclose(e, self._direct_mse(rz.H, rhat, q, 1.0),
                                       atol=1e-8)

    def test_hermitian_psd(self):
        rng = np.random.default_rng(3)
        rz = gen_realization(_cfg(M=16, K=4), 0)
        rhat = sample_covariance(rz.noise)
        q = rng.standard_normal((6, 16)) + 1j * rng.standard_normal((6, 16))
        e = eq.mse_matrix(rz.H, rhat, q, 1.0)
        np.testing.assert_allclose(e, e.conj().T, atol=1e-10)
        assert np.linalg.eigvalsh(0.5 * (e + e.conj().T)).min() > -1e-10

    def test_sdr_cdr_ordering(self):
        # concatenation never has a larger MSE matrix than superposition
        for trial in range(25):
            cfg = _cfg(M=16, K=4, C=2 if trial % 2 else 4, N=64)
            rz = gen_realization(cfg, trial)
            rhat = sample_covariance(rz.noise)
            qs = _local_qs(rz)
            e_s = eq.mse_matrix(rz.H, rhat, np.hstack(qs), 1.0)
            e_c = eq.mse_matrix(rz.H, rhat, block_diag(*qs), 1.0)
            diff = 0.5 * ((e_s - e_c) + (e_s - e_c).conj().T)
            lam_min = np.linalg.eigvalsh(diff).min()
            assert lam_min >= -1e-9 * abs(np.trace(diff).real + 1e-300)
            assert np.trace(e_s).real >= np.trace(e_c).real - 1e-12


class TestObjectiveAndGradient:
    def test_objective_forms_agree(self):
        rng = np.random.default_rng(4)
        rz = gen_realization(_cfg(), 0)
        w = rng.standard_normal((4, 16)) + 1j * rng.standard_normal((4, 16))
        # objective_sample calls objective_from_samples, so the reference
        # is the definition: Es*||W H - I||^2 + (1/N) sum_i ||W n^i||^2
        fit = np.linalg.norm(w @ rz.H - np.eye(4)) ** 2
        noise = sum(np.linalg.norm(w @ n_i) ** 2 for n_i in rz.noise.T) / rz.noise.shape[1]
        np.testing.assert_allclose(
            eq.objective_sample(w, rz.H, rz.noise, 1.0), fit + noise, rtol=1e-12)

    def test_objective_at_lmmse_below_random(self):
        rng = np.random.default_rng(5)
        rz = gen_realization(_cfg(), 0)
        rhat = sample_covariance(rz.noise)
        w_opt = eq.lmmse_centralized(rz.H, rhat, 1.0).W
        w_rnd = rng.standard_normal(w_opt.shape) + 1j * rng.standard_normal(w_opt.shape)
        assert (eq.objective_sample(w_opt, rz.H, rz.noise, 1.0)
                < eq.objective_sample(w_rnd, rz.H, rz.noise, 1.0))

    def test_gradient_vanishes_at_global_minimum(self):
        rz = gen_realization(_cfg(), 1)
        rhat = sample_covariance(rz.noise)
        w_opt = eq.lmmse_centralized(rz.H, rhat, 1.0).W
        s = eq.scaled_samples(rz.noise)
        for c in range(4):
            g = eq.objective_gradient_block(w_opt, rz.H, s,
                                            rz.partition.rows(c), 1.0)
            assert np.max(np.abs(g)) < 1e-9

    def test_gradient_finite_differences(self):
        rng = np.random.default_rng(6)
        cfg = _cfg(M=12, C=3, N=32)
        rz = gen_realization(cfg, 0)
        s = eq.scaled_samples(rz.noise)
        h = 1e-5
        for _ in range(10):
            w = (rng.standard_normal((4, 12))
                 + 1j * rng.standard_normal((4, 12)))
            c = int(rng.integers(0, 3))
            rows = rz.partition.rows(c)
            g = eq.objective_gradient_block(w, rz.H, s, rows, 1.0)
            i = int(rng.integers(0, 4))
            j = int(rng.integers(rows.start, rows.stop))
            for part, ref in ((1.0, g.real), (1j, g.imag)):
                wp, wm = w.copy(), w.copy()
                wp[i, j] += part * h
                wm[i, j] -= part * h
                fd = (eq.objective_from_samples(wp, rz.H, s, 1.0)
                      - eq.objective_from_samples(wm, rz.H, s, 1.0)) / (2 * h)
                rel = abs(fd - ref[i, j - rows.start]) / max(abs(fd), 1e-12)
                assert rel < 1e-4
