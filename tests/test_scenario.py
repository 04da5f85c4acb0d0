"""Scenario generation tests: configs, powers, RNG streams, modulation."""

import numpy as np
import pytest

from dbpeq.scenario import (
    ConfigError,
    SystemConfig,
    balanced_partition,
    constellation,
    derive_powers,
    draw_channel,
    draw_symbols,
    gen_realization,
    gen_symbol_block,
    modulate,
    sample_covariance,
    scale_channel,
    scale_symbols,
    slice_symbols,
)


def _cfg(**kw):
    base = dict(M=32, K=4, C=4, N=64)
    base.update(kw)
    return SystemConfig(**base)


class TestConfig:
    def test_defaults(self):
        cfg = _cfg()
        assert cfg.Es == 1.0
        assert cfg.n_interf == cfg.K
        assert cfg.n_coh == 480

    @pytest.mark.parametrize("bad", [
        dict(M=4, K=4),                   # M must exceed K
        dict(K=0),
        dict(C=0),
        dict(C=33),                       # C > M
        dict(N=4),                        # N must exceed K
        dict(iot_db=-1.0),
        dict(modulation="qam64"),
        dict(channel_model="specular"),
        dict(n_interf=-1),
        dict(Es=0.0),
        dict(Es=-1.0),
    ])
    def test_validation(self, bad):
        with pytest.raises(ConfigError):
            _cfg(**bad)

    @pytest.mark.parametrize("bad", [
        # each ended in a TypeError traceback inside numpy
        pytest.param(dict(M=32.0), id="float-M"),
        pytest.param(dict(N=64.5), id="fractional-N"),
        pytest.param(dict(K=True), id="boolean-K"),
        pytest.param(dict(n_interf=2.5), id="fractional-n_interf"),
        # passed here, then failed in gen_symbol_block
        pytest.param(dict(n_coh=48.5), id="fractional-n_coh"),
        # drew the same realizations as seed 1
        pytest.param(dict(seed=1.5), id="fractional-seed"),
        # ended in numpy's "expected non-negative integer" ValueError
        pytest.param(dict(seed=-1), id="negative-seed"),
    ])
    def test_counts_must_be_whole_numbers(self, bad):
        (name, value), = bad.items()
        with pytest.raises(ConfigError, match=f"{name} must be (an integer|>= 0), got {value}"):
            _cfg(**bad)

    @pytest.mark.parametrize("name", ["snr_db", "iot_db", "Es"])
    @pytest.mark.parametrize("value", [float("nan"), float("inf"), float("-inf")])
    def test_non_finite_scalars_raise(self, name, value):
        # a NaN SNR or IoT ran a sweep of rows with ser 0.937 and mse nan
        with pytest.raises(ConfigError, match=f"{name} must be finite"):
            _cfg(**{name: value})

    def test_with_updates(self):
        cfg = _cfg().with_updates(snr_db=3.0)
        assert cfg.snr_db == 3.0
        assert cfg.M == 32

    def test_derived_powers(self):
        # Es=1, SNR=10 dB -> N0 = 0.1; IoT=10 dB -> beta*Es = N0*(10-1)
        n0, beta = derive_powers(_cfg(snr_db=10.0, iot_db=10.0))
        np.testing.assert_allclose(n0, 0.1)
        np.testing.assert_allclose(beta, 0.9)

    def test_derived_powers_white_noise(self):
        n0, beta = derive_powers(_cfg(snr_db=0.0, iot_db=0.0))
        np.testing.assert_allclose(n0, 1.0)
        assert beta == 0.0


class TestPartition:
    def test_balanced_even(self):
        p = balanced_partition(32, 4)
        assert p.sizes == (8, 8, 8, 8)
        assert p.offsets == (0, 8, 16, 24)

    def test_balanced_uneven(self):
        p = balanced_partition(34, 4)
        assert p.sizes == (9, 9, 8, 8)
        assert sum(p.sizes) == 34

    def test_rows_slices_cover_everything(self):
        p = balanced_partition(19, 3)
        idx = np.concatenate([np.arange(19)[p.rows(c)] for c in range(3)])
        np.testing.assert_array_equal(idx, np.arange(19))

    def test_split_roundtrip(self):
        rng = np.random.default_rng(0)
        x = rng.standard_normal((19, 5))
        p = balanced_partition(19, 3)
        np.testing.assert_array_equal(np.vstack(p.split(x)), x)


class TestGeneration:
    def test_shapes(self):
        cfg = _cfg()
        rz = gen_realization(cfg, 0)
        assert rz.H.shape == (32, 4)
        assert rz.Hbar.shape == (32, 4)
        assert rz.noise.shape == (32, 64)
        blocks = rz.H_blocks()
        assert len(blocks) == 4 and blocks[0].shape == (8, 4)

    def test_determinism(self):
        cfg = _cfg(seed=5)
        a, b = gen_realization(cfg, 3), gen_realization(cfg, 3)
        np.testing.assert_array_equal(a.H, b.H)
        np.testing.assert_array_equal(a.noise, b.noise)

    def test_trials_are_independent_streams(self):
        cfg = _cfg(seed=5)
        a, b = gen_realization(cfg, 0), gen_realization(cfg, 1)
        assert not np.array_equal(a.H, b.H)

    def test_seed_changes_everything(self):
        a = gen_realization(_cfg(seed=1), 0)
        b = gen_realization(_cfg(seed=2), 0)
        assert not np.array_equal(a.H, b.H)

    def test_channel_energy_is_unit_per_entry(self):
        # Rayleigh entries are CN(0,1): average |h|^2 over many draws -> 1
        cfg = _cfg(M=64, N=65)
        vals = [np.mean(np.abs(gen_realization(cfg, t).H) ** 2)
                for t in range(20)]
        np.testing.assert_allclose(np.mean(vals), 1.0, rtol=0.05)

    def test_noise_power_budget(self):
        # per-antenna noise power ~ beta*Es*n_interf + N0
        cfg = _cfg(M=64, N=512, snr_db=10.0, iot_db=10.0)
        n0, beta = derive_powers(cfg)
        expected = beta * cfg.Es * cfg.n_interf + n0
        got = np.mean([np.mean(np.abs(gen_realization(cfg, t).noise) ** 2)
                       for t in range(10)])
        np.testing.assert_allclose(got, expected, rtol=0.1)

    def test_white_noise_covariance_is_scaled_identity(self):
        cfg = _cfg(M=16, N=4096, iot_db=0.0, snr_db=0.0)
        rz = gen_realization(cfg, 0)
        rhat = sample_covariance(rz.noise)
        np.testing.assert_allclose(rhat, np.eye(16), atol=0.1)

    def test_white_data_noise_covariance_is_scaled_identity(self):
        # the data follow the pilots' law: Y - H S is the data noise
        cfg = _cfg(M=16, n_coh=4096, iot_db=0.0, snr_db=0.0)
        rz = gen_realization(cfg, 0)
        blk = gen_symbol_block(cfg, rz, 0)
        rhat = sample_covariance(blk.Y - rz.H @ blk.S)
        np.testing.assert_allclose(rhat, np.eye(16), atol=0.1)

    def test_colored_data_noise_covariance(self):
        # the data noise's covariance is beta*Es*Hbar@Hbar^H + N0*I
        cfg = _cfg(M=16, n_coh=8192, snr_db=10.0, iot_db=10.0)
        rz = gen_realization(cfg, 0)
        blk = gen_symbol_block(cfg, rz, 0)
        n0, beta = derive_powers(cfg)
        want = beta * cfg.Es * rz.Hbar @ rz.Hbar.conj().T + n0 * np.eye(16)
        rhat = sample_covariance(blk.Y - rz.H @ blk.S)
        gap = np.linalg.norm(rhat - want) / np.linalg.norm(want)
        assert gap < 0.05, f"data noise covariance is {gap:.3f} from the law (relative Frobenius)"

    def test_sample_covariance_oracle(self):
        rng = np.random.default_rng(1)
        n = rng.standard_normal((6, 40)) + 1j * rng.standard_normal((6, 40))
        want = sum(np.outer(n[:, i], n[:, i].conj()) for i in range(40)) / 40
        np.testing.assert_allclose(sample_covariance(n), want, atol=1e-12)

    def test_one_ring_channel(self):
        cfg = _cfg(channel_model="one_ring")
        rz = gen_realization(cfg, 0)
        assert rz.H.shape == (32, 4)
        assert np.all(np.isfinite(rz.H))
        # spatially correlated: adjacent antennas more alike than Rayleigh
        corr = np.abs(np.vdot(rz.H[:-1, 0], rz.H[1:, 0])) / np.linalg.norm(
            rz.H[:-1, 0]) / np.linalg.norm(rz.H[1:, 0])
        assert corr > 0.5

    @pytest.mark.parametrize("kw", [
        dict(), dict(modulation="qpsk"), dict(channel_model="one_ring"),
        dict(channel_model="one_ring", modulation="qpsk"),
        dict(n_interf=0), dict(C=32),
    ], ids=["rayleigh-qam16", "rayleigh-qpsk", "one_ring-qam16", "one_ring-qpsk",
            "no-interferers", "C=M"])
    def test_one_draw_scales_to_every_snr(self, kw):
        # the draws do not depend on the SNR: one draw, scaled at each SNR,
        # is bit for bit a fresh realization and symbol block at that SNR
        drawn_at = _cfg(snr_db=-7.0, **kw)
        channel, symbols = draw_channel(drawn_at, 2), draw_symbols(drawn_at, 2)
        for snr in (-5.0, 0.0, 3.5, 10.0, 20.0):
            cfg = drawn_at.with_updates(snr_db=snr)
            rz, fresh = scale_channel(cfg, channel), gen_realization(cfg, 2)
            for name in ("H", "Hbar", "noise"):
                np.testing.assert_array_equal(getattr(rz, name), getattr(fresh, name))
            assert rz.partition == fresh.partition
            blk, fresh_blk = scale_symbols(cfg, rz, symbols), gen_symbol_block(cfg, fresh, 2)
            np.testing.assert_array_equal(blk.S, fresh_blk.S)
            np.testing.assert_array_equal(blk.Y, fresh_blk.Y)

    def test_draws_are_read_only(self):
        cfg = _cfg()
        for a in draw_channel(cfg, 0) + draw_symbols(cfg, 0):
            with pytest.raises(ValueError):
                a[(0,) * a.ndim] = 0

    def test_symbol_block(self):
        cfg = _cfg()
        rz = gen_realization(cfg, 0)
        blk = gen_symbol_block(cfg, rz, 0)
        assert blk.S.shape == (4, 480)
        assert blk.Y.shape == (32, 480)
        points = constellation("qam16", 1.0)
        assert np.all(np.isin(blk.S, points))


class TestModulation:
    def test_constellation_energy(self):
        for mod in ("qpsk", "qam16"):
            for es in (1.0, 2.5):
                pts = constellation(mod, es)
                np.testing.assert_allclose(np.mean(np.abs(pts) ** 2), es,
                                           rtol=1e-12)

    def test_constellation_sizes(self):
        assert constellation("qpsk", 1.0).size == 4
        assert constellation("qam16", 1.0).size == 16

    def test_modulate_slice_roundtrip(self):
        rng = np.random.default_rng(2)
        for mod in ("qpsk", "qam16"):
            idx = rng.integers(0, 4 if mod == "qpsk" else 16, size=(3, 50))
            s = modulate(idx, mod, 1.0)
            np.testing.assert_array_equal(slice_symbols(s, mod, 1.0), s)

    @pytest.mark.parametrize("use", [
        lambda mod: constellation(mod, 1.0),
        lambda mod: slice_symbols(np.zeros((1, 1), complex), mod, 1.0),
    ], ids=["constellation", "slice_symbols"])
    def test_unknown_modulation_raises(self, use):
        # slicing once fell back to 16-QAM levels for any unknown name
        with pytest.raises(ConfigError):
            use("bpsk")

    def test_slice_zero_rounds_up(self):
        # the midpoint between levels maps to the higher level
        got = slice_symbols(np.array([[0.0 + 0.0j]]), "qam16", 1.0)
        np.testing.assert_allclose(got, (1 + 1j) / np.sqrt(10), rtol=1e-12)

    @pytest.mark.parametrize("mod", ["qpsk", "qam16"])
    def test_slice_matches_digitize_reference(self, mod):
        es = 2.5
        lv = np.unique(constellation(mod, es).real)
        bounds = 0.5 * (lv[:-1] + lv[1:])

        def reference(x):
            # the slicer as first written: one np.digitize per axis
            x = np.asarray(x)
            return lv[np.digitize(x.real, bounds)] + 1j * lv[np.digitize(x.imag, bounds)]

        edges = np.concatenate([bounds, np.nextafter(bounds, -np.inf),
                                np.nextafter(bounds, np.inf), lv,
                                [0.0, -0.0, np.inf, -np.inf, np.nan, 1e300, -1e300]])
        re, im = np.meshgrid(edges, edges, indexing="ij")
        grid = re.astype(np.complex128)  # re + 1j * im would turn 1j * inf into nan
        grid.imag = im
        rng = np.random.default_rng(4)
        noisy = rng.standard_normal((6, 40)) + 1j * rng.standard_normal((6, 40))
        cases = {
            "edges": grid, "random": noisy, "transposed": noisy.T,
            "strided": noisy[::2, 1::3], "1-D": grid.ravel(), "0-D": np.asarray(grid[1, 2]),
            "scalar": complex(edges[0], edges[-3]), "real": edges, "real-2D": noisy.real,
            "complex64": noisy.astype(np.complex64), "float32": noisy.real.astype(np.float32),
        }
        for name, x in cases.items():
            got, want = slice_symbols(x, mod, es), reference(x)
            assert np.shape(got) == np.shape(want), name
            assert got.dtype == want.dtype == np.complex128, name
            np.testing.assert_array_equal(got, want, err_msg=name)

    def test_slice_nearest_point(self):
        rng = np.random.default_rng(3)
        pts = constellation("qam16", 1.0)
        x = rng.standard_normal((2, 200)) + 1j * rng.standard_normal((2, 200))
        got = slice_symbols(x, "qam16", 1.0)
        dists = np.abs(x[..., None] - pts.reshape(1, 1, -1))
        want = pts[np.argmin(dists, axis=-1)]
        # ignore exact midpoints (measure zero; tie-break differs)
        mids = np.isclose(np.min(dists, axis=-1),
                          np.partition(dists, 1, axis=-1)[..., 1])
        np.testing.assert_array_equal(got[~mids], want[~mids])
