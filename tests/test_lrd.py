"""Sequential low-rank decomposition of the scaled sample matrix."""

import numpy as np

from dbpeq import equalizers as eq
from dbpeq.numerics import truncated_svd
from dbpeq.scenario import SystemConfig, gen_realization, sample_covariance


def _rand_rank(rng, m, n, rank):
    a = rng.standard_normal((m, rank)) + 1j * rng.standard_normal((m, rank))
    b = rng.standard_normal((rank, n)) + 1j * rng.standard_normal((rank, n))
    return a @ b


def _split(x, c):
    step = x.shape[0] // c
    return [x[i * step:(i + 1) * step] for i in range(c)]


class TestShapes:
    def test_block_and_v_shapes(self):
        rng = np.random.default_rng(0)
        sb = _split(_rand_rank(rng, 16, 48, 6), 4)
        g_blocks, v = eq.lrd_sequential(sb, 6)
        assert v.shape == (48, 6)
        assert all(g.shape == (4, 6) for g in g_blocks)

    def test_v_columns_orthonormal(self):
        rng = np.random.default_rng(1)
        sb = _split(rng.standard_normal((16, 48))
                    + 1j * rng.standard_normal((16, 48)), 4)
        _, v = eq.lrd_sequential(sb, 5)
        np.testing.assert_allclose(v.conj().T @ v, np.eye(5), atol=1e-10)

    def test_g_is_s_projected_on_v(self):
        rng = np.random.default_rng(2)
        sb = _split(rng.standard_normal((16, 48))
                    + 1j * rng.standard_normal((16, 48)), 4)
        g_blocks, v = eq.lrd_sequential(sb, 5)
        for g, s in zip(g_blocks, sb):
            np.testing.assert_allclose(g, s @ v, atol=1e-12)


class TestExactness:
    def test_exact_rank_is_lossless(self):
        rng = np.random.default_rng(3)
        for rank in (2, 4, 8):
            s = _rand_rank(rng, 16, 48, rank)
            sb = _split(s, 4)
            g_blocks, _ = eq.lrd_sequential(sb, rank)
            g = np.vstack(g_blocks)
            rel = (np.linalg.norm(s @ s.conj().T - g @ g.conj().T, "fro")
                   / np.linalg.norm(s @ s.conj().T, "fro"))
            assert rel < 1e-9

    def test_pure_interference_covariance_recovered(self):
        # noise with no white component has rank n_interf exactly
        rng = np.random.default_rng(4)
        hbar = rng.standard_normal((16, 4)) + 1j * rng.standard_normal((16, 4))
        w = rng.standard_normal((4, 48)) + 1j * rng.standard_normal((4, 48))
        s = (hbar @ w) / np.sqrt(48)
        sb = _split(s, 4)
        g_blocks, _ = eq.lrd_sequential(sb, 4)
        g = np.vstack(g_blocks)
        rhat = s @ s.conj().T
        rel = (np.linalg.norm(rhat - g @ g.conj().T, "fro")
               / np.linalg.norm(rhat, "fro"))
        assert rel < 1e-9


class TestNearOptimality:
    def test_sequential_close_to_global_svd(self):
        cfg = SystemConfig(M=16, K=4, C=4, N=48, snr_db=10.0, iot_db=10.0,
                           seed=55)
        ratios = []
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
            ratios.append(res_seq / res_opt)
        assert max(ratios) <= 1.1
        assert min(ratios) >= 1.0 - 1e-9   # global SVD is a lower bound


class TestAutoRank:
    def test_counts_dominant_values(self):
        s = np.array([10.0, 5.0, 1.0, 0.3, 0.01])
        assert eq.lrd_auto_rank(s, tau=0.05) == 3
        assert eq.lrd_auto_rank(s, tau=0.2) == 2

    def test_degenerate_input(self):
        assert eq.lrd_auto_rank(np.array([])) == 1
        assert eq.lrd_auto_rank(np.zeros(3)) == 1

    def test_rank_never_below_one(self):
        assert eq.lrd_auto_rank(np.array([1.0]), tau=0.5) == 1
