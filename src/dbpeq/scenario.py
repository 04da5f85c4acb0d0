"""Reproducible experiment instances.

Generates everything one Monte-Carlo trial needs: the system
configuration, channel matrices, colored-noise pilot samples, QAM
symbol blocks, and the balanced antenna-cluster partition. Each trial
draws from its own RNG substreams, so trials are order-independent and
safe to run in parallel.

A trial is drawn once and scaled per SNR. :func:`draw_channel` takes the
unit-power channel, interference and pilot-noise draws from the trial's
channel substream, and :func:`draw_symbols` the symbols and data-noise
draws from its symbol substream; neither depends on the SNR, and both
return read-only arrays, since every SNR of the trial shares them.
:func:`scale_channel` and :func:`scale_symbols` turn them into the pilot
noise and the received signals at one SNR and IoT. :func:`gen_realization`
and :func:`gen_symbol_block` are draw then scale.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from numbers import Integral
from typing import Optional

import numpy as np

from .numerics import hermitize

MODULATIONS = ("qpsk", "qam16")
CHANNEL_MODELS = ("rayleigh", "one_ring")

# Substream tags, so channel / pilot-noise / symbol / data-noise draws
# stay decoupled from each other.
_STREAM_CHANNEL = 0
_STREAM_SYMBOLS = 1


class ConfigError(ValueError):
    pass


def whole_number(what: str, n, least: int) -> None:
    """Raise ConfigError unless ``n`` is an integer (not a bool) and ``>= least``."""
    if isinstance(n, bool) or not isinstance(n, Integral):
        raise ConfigError(f"{what} must be an integer, got {n!r}")
    if n < least:
        raise ConfigError(f"{what} must be >= {least}, got {n}")


@dataclass(frozen=True)
class SystemConfig:
    """All scenario scalars for one experiment."""

    M: int
    K: int
    C: int
    N: int
    Es: float = 1.0
    snr_db: float = 10.0
    iot_db: float = 10.0
    n_interf: Optional[int] = None
    n_coh: int = 480
    modulation: str = "qam16"
    channel_model: str = "rayleigh"
    seed: int = 0

    def __post_init__(self):
        if self.n_interf is None:
            object.__setattr__(self, "n_interf", self.K)
        for name, least in (("M", 1), ("K", 1), ("C", 1), ("N", 1), ("n_coh", 1),
                            ("n_interf", 0), ("seed", 0)):
            whole_number(name, getattr(self, name), least)
        if not self.M > self.K:
            raise ConfigError(f"need M > K >= 1, got M={self.M}, K={self.K}")
        if not self.C <= self.M:
            raise ConfigError(f"need 1 <= C <= M, got C={self.C}")
        if self.N <= self.K:
            raise ConfigError(f"need N > K, got N={self.N}, K={self.K}")
        for name in ("Es", "snr_db", "iot_db"):
            if not math.isfinite(getattr(self, name)):
                raise ConfigError(f"{name} must be finite, got {getattr(self, name)}")
        if self.Es <= 0:
            raise ConfigError("Es must be positive")
        if self.iot_db < 0:
            raise ConfigError("iot_db must be >= 0 (0 dB means pure AWGN)")
        if self.modulation not in MODULATIONS:
            raise ConfigError(f"unknown modulation {self.modulation!r}")
        if self.channel_model not in CHANNEL_MODELS:
            raise ConfigError(f"unknown channel model {self.channel_model!r}")

    def with_updates(self, **kw) -> "SystemConfig":
        return replace(self, **kw)


def derive_powers(cfg: SystemConfig) -> tuple[float, float]:
    """Background-noise power N0 and interference power factor beta.

    SNR = 10 log10(Es/N0) and IoT = 10 log10((beta*Es + N0)/N0); this
    inverts both definitions.
    """
    n0 = cfg.Es / 10.0 ** (cfg.snr_db / 10.0)
    beta = n0 * (10.0 ** (cfg.iot_db / 10.0) - 1.0) / cfg.Es
    return n0, beta


@dataclass(frozen=True)
class ClusterPartition:
    """Balanced row partition of the M antennas into C clusters."""

    sizes: tuple[int, ...]
    offsets: tuple[int, ...]

    @property
    def C(self) -> int:
        return len(self.sizes)

    def rows(self, c: int) -> slice:
        return slice(self.offsets[c], self.offsets[c] + self.sizes[c])

    def split(self, a: np.ndarray) -> list[np.ndarray]:
        """Split an array along axis 0 into per-cluster blocks."""
        return [a[self.rows(c)] for c in range(self.C)]


def balanced_partition(m: int, c: int) -> ClusterPartition:
    """First m % c clusters get ceil(m/c) rows, the rest floor(m/c)."""
    base, extra = divmod(m, c)
    sizes = tuple(base + 1 if i < extra else base for i in range(c))
    offsets = tuple(int(x) for x in np.cumsum((0,) + sizes[:-1]))
    return ClusterPartition(sizes=sizes, offsets=offsets)


@dataclass(frozen=True)
class Realization:
    """One channel draw: target channel, interference channel, pilot noise."""

    H: np.ndarray        # M x K
    Hbar: np.ndarray     # M x n_interf
    noise: np.ndarray    # M x N pilot noise samples (columns)
    partition: ClusterPartition

    def H_blocks(self) -> list[np.ndarray]:
        return self.partition.split(self.H)

    def noise_blocks(self) -> list[np.ndarray]:
        return self.partition.split(self.noise)


@dataclass(frozen=True)
class SymbolBlock:
    """Transmitted constellation symbols and the received signals."""

    S: np.ndarray  # K x n_coh
    Y: np.ndarray  # M x n_coh


def _substream(seed: int, trial: int, tag: int) -> np.random.Generator:
    return np.random.default_rng(np.random.SeedSequence([int(seed), int(trial), int(tag)]))


def _cn(rng: np.random.Generator, *shape) -> np.ndarray:
    """Standard circularly-symmetric complex Gaussian draws."""
    return (rng.standard_normal(shape) + 1j * rng.standard_normal(shape)) / np.sqrt(2.0)


def _steering(m: int, angles: np.ndarray) -> np.ndarray:
    """ULA steering vectors (half-wavelength spacing), one column per angle."""
    k = np.arange(m)[:, None]
    return np.exp(1j * np.pi * k * np.sin(angles)[None, :])


def _one_ring_channel(rng: np.random.Generator, m: int, n_ue: int) -> np.ndarray:
    # Per-UE local scattering: mean angle uniform in a 120 deg sector,
    # 20 subpaths with ~2 deg angular spread, unit average entry power.
    n_paths = 20
    spread = np.deg2rad(2.0)
    h = np.zeros((m, n_ue), dtype=np.complex128)
    for u in range(n_ue):
        theta = rng.uniform(-np.pi / 3, np.pi / 3)
        deltas = theta + spread * rng.standard_normal(n_paths)
        gains = _cn(rng, n_paths)
        h[:, u] = _steering(m, deltas) @ gains / np.sqrt(n_paths)
    return h


def _read_only(*arrays: np.ndarray) -> tuple[np.ndarray, ...]:
    # a trial's draws are shared by every SNR; an in-place write must raise
    for a in arrays:
        a.setflags(write=False)
    return arrays


def draw_channel(cfg: SystemConfig, trial: int) -> tuple[np.ndarray, ...]:
    """Unit-power channel-substream draws of (cfg.seed, trial), read-only.

    Returns (H, Hbar, w, z): the target and interference channels, then
    the CN(0, 1) pilot interference symbols w (n_interf x N) and
    background noise z (M x N). None of them depends on the SNR.
    """
    rng = _substream(cfg.seed, trial, _STREAM_CHANNEL)
    if cfg.channel_model == "rayleigh":
        h = _cn(rng, cfg.M, cfg.K)
        hbar = _cn(rng, cfg.M, cfg.n_interf)
    else:
        h = _one_ring_channel(rng, cfg.M, cfg.K)
        hbar = _one_ring_channel(rng, cfg.M, cfg.n_interf)
    w = _cn(rng, cfg.n_interf, cfg.N)
    z = _cn(rng, cfg.M, cfg.N)
    return _read_only(h, hbar, w, z)


def scale_channel(cfg: SystemConfig, draw: tuple[np.ndarray, ...]) -> Realization:
    """The realization of a :func:`draw_channel` draw at cfg's SNR and IoT.

    Pilot noise column i is sqrt(beta*Es)*Hbar@w_i + sqrt(N0)*z_i, so the
    sample covariance converges to beta*Es*Hbar@Hbar^H + N0*I.
    """
    h, hbar, w, z = draw
    n0, beta = derive_powers(cfg)
    noise = np.sqrt(beta * cfg.Es) * (hbar @ w) + np.sqrt(n0) * z
    return Realization(
        H=h, Hbar=hbar, noise=noise, partition=balanced_partition(cfg.M, cfg.C)
    )


def gen_realization(cfg: SystemConfig, trial: int) -> Realization:
    """Deterministic channel + pilot-noise draw for (cfg.seed, trial)."""
    return scale_channel(cfg, draw_channel(cfg, trial))


def draw_symbols(cfg: SystemConfig, trial: int) -> tuple[np.ndarray, ...]:
    """Symbol-substream draws of (cfg.seed, trial), read-only.

    Returns (S, w, z): the K x n_coh constellation symbols, then the
    CN(0, 1) data interference symbols w and background noise z.
    """
    rng = _substream(cfg.seed, trial, _STREAM_SYMBOLS)
    points = constellation(cfg.modulation, cfg.Es)
    idx = rng.integers(0, points.size, size=(cfg.K, cfg.n_coh))
    s = points[idx]
    w = _cn(rng, cfg.n_interf, cfg.n_coh)
    z = _cn(rng, cfg.M, cfg.n_coh)
    return _read_only(s, w, z)


def scale_symbols(cfg: SystemConfig, realization: Realization,
                  draw: tuple[np.ndarray, ...]) -> SymbolBlock:
    """The symbol block of a :func:`draw_symbols` draw at cfg's SNR and IoT."""
    s, w, z = draw
    n0, beta = derive_powers(cfg)
    y = realization.H @ s + np.sqrt(beta * cfg.Es) * (realization.Hbar @ w) + np.sqrt(n0) * z
    return SymbolBlock(S=s, Y=y)


def gen_symbol_block(cfg: SystemConfig, realization: Realization, trial: int) -> SymbolBlock:
    """Draw n_coh data symbols and the corresponding received signals."""
    return scale_symbols(cfg, realization, draw_symbols(cfg, trial))


def sample_covariance(noise: np.ndarray) -> np.ndarray:
    """(1/N) * noise @ noise^H, hermitized."""
    noise = np.asarray(noise)
    n = noise.shape[1]
    return hermitize(noise @ noise.conj().T / n)


def _axis_levels(modulation: str, es: float) -> np.ndarray:
    if modulation == "qpsk":
        return np.array([-1.0, 1.0]) * np.sqrt(es / 2.0)
    if modulation == "qam16":
        return np.array([-3.0, -1.0, 1.0, 3.0]) * np.sqrt(es / 10.0)
    raise ConfigError(f"unknown modulation {modulation!r}")


def constellation(modulation: str, es: float) -> np.ndarray:
    """Gray-mapped square constellation with average energy Es.

    Points are ordered lexicographically by (real, imag).
    """
    lv = _axis_levels(modulation, es)
    re, im = np.meshgrid(lv, lv, indexing="ij")
    return (re + 1j * im).ravel()


def modulate(indices: np.ndarray, modulation: str, es: float) -> np.ndarray:
    points = constellation(modulation, es)
    return points[np.asarray(indices)]


def slice_symbols(x: np.ndarray, modulation: str, es: float) -> np.ndarray:
    """Quantize to the Euclidean-nearest constellation point.

    The decision is per axis; a value exactly on a decision boundary is
    mapped to the higher level (half-open decision regions), so slicing
    is deterministic. The result is a complex128 array of x's shape.
    """
    lv = _axis_levels(modulation, es)
    bounds = 0.5 * (lv[:-1] + lv[1:])
    x = np.asarray(x)
    # real and imaginary parts interleaved, decided in one pass; the level
    # index len(bounds) - #(v < b) is np.digitize(v, bounds) for every
    # float, -0.0 included (NaN and +inf take the top level)
    v = np.ascontiguousarray(x, dtype=np.complex128).view(np.float64)
    idx = np.full(v.shape, bounds.size)
    for b in bounds:
        idx -= v < b
    return lv[idx].view(np.complex128).reshape(x.shape)
