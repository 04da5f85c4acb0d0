"""Equalizer and decomposition math.

Centralized forms (the oracles), per-cluster dimensionality-reduction
forms, the Gauss-Seidel block coordinate descent on the sample-form
MMSE objective, and the sequential low-rank decomposition of the scaled
noise-sample matrix. Everything here is pure matrix math on numpy
arrays; the network protocols in :mod:`dbpeq.dbpnet` call into these
same helpers so that protocol and library results agree bit for bit.

Conventions
-----------
* ``H_blocks[c]`` is M_c x K, ``noise_blocks[c]`` is M_c x N raw pilot
  samples.
* "samples" (``S_c``) means the scaled matrix ``noise_c / sqrt(N)``, so
  that the pilot term of the objective is ``||W @ S||_F^2`` and the
  sample covariance is ``S @ S^H``. The low-rank substitute ``G_c``
  drops into the same slot.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np
from scipy.linalg.lapack import zpotrs as _zpotrs

from .numerics import (
    NotPositiveDefinite,
    RankOutOfRange,
    hermitize,
    hpd_factor,
    hpd_factor_solve,
    hpd_solve,
    truncated_svd,
)
from .scenario import sample_covariance


@dataclass(frozen=True)
class EqualizerResult:
    """A K x M equalization matrix with its per-cluster blocks."""

    W: np.ndarray
    blocks: tuple[np.ndarray, ...]
    algorithm: str
    iterations: int = 0


def _split_cols(w: np.ndarray, sizes: Sequence[int]) -> tuple[np.ndarray, ...]:
    out, ofs = [], 0
    for m in sizes:
        out.append(w[:, ofs : ofs + m])
        ofs += m
    return tuple(out)


def _result(w: np.ndarray, algorithm: str, sizes: Optional[Sequence[int]] = None,
            iterations: int = 0) -> EqualizerResult:
    if sizes is None:
        sizes = (w.shape[1],)
    return EqualizerResult(W=w, blocks=_split_cols(w, sizes),
                           algorithm=algorithm, iterations=iterations)


def scaled_samples(noise: np.ndarray) -> np.ndarray:
    """noise / sqrt(N): columns scaled so S @ S^H is the sample covariance."""
    return np.asarray(noise) / np.sqrt(noise.shape[1])


# ---------------------------------------------------------------------------
# Centralized closed forms
# ---------------------------------------------------------------------------

def lmmse_centralized(h: np.ndarray, rhat: np.ndarray, es: float,
                      sizes: Optional[Sequence[int]] = None) -> EqualizerResult:
    """W = (H^H R^-1 H + I/Es)^-1 H^H R^-1, via two HPD solves."""
    k = h.shape[1]
    rinv_h = hpd_solve(rhat, h)                      # R^-1 H
    gram = hermitize(h.conj().T @ rinv_h) + np.eye(k) / es
    w = hpd_solve(gram, rinv_h.conj().T)
    return _result(w, "lmmse", sizes)


def zf_centralized(h: np.ndarray, sizes: Optional[Sequence[int]] = None) -> EqualizerResult:
    """W = (H^H H)^-1 H^H; raises NotPositiveDefinite if H is rank-deficient."""
    gram = hermitize(h.conj().T @ h)
    w = hpd_solve(gram, h.conj().T)
    return _result(w, "zf", sizes)


# ---------------------------------------------------------------------------
# Per-cluster compression (shared by BDAC, sDR, cDR, and the protocols)
# ---------------------------------------------------------------------------

def local_compression(h_c: np.ndarray, r_cc: np.ndarray) -> np.ndarray:
    """Q_c = H_c^H R_cc^-1, the K x M_c local compression matrix."""
    return hpd_solve(r_cc, h_c).conj().T


def bdac_mmse(h_blocks: Sequence[np.ndarray], r_blocks: Sequence[np.ndarray],
              es: float) -> EqualizerResult:
    """LMMSE with the covariance replaced by its block-diagonal part."""
    k = h_blocks[0].shape[1]
    qs = [local_compression(hc, rc) for hc, rc in zip(h_blocks, r_blocks)]
    gram = sum(q @ hc for q, hc in zip(qs, h_blocks))
    atot = hermitize(gram) + np.eye(k) / es
    blocks = [hpd_solve(atot, q) for q in qs]
    w = np.hstack(blocks)
    return _result(w, "bdac", [hc.shape[0] for hc in h_blocks])


def compress_cluster(h_c: np.ndarray, y_c: np.ndarray, noise_c: np.ndarray
                     ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(Q_c H_c, Q_c n_c, Q_c y_c), Q_c from the locally estimated R_cc."""
    q = local_compression(h_c, sample_covariance(noise_c))
    return q @ h_c, q @ noise_c, q @ y_c


def _compress_blocks(h_blocks, y_blocks, noise_blocks):
    """The (Q_c H_c), (Q_c n_c), (Q_c y_c) of :func:`compress_cluster` over the clusters."""
    return zip(*map(compress_cluster, h_blocks, y_blocks, noise_blocks))


def _compressed_lmmse(h_eff, r_eff, y_eff, es, tag):
    w = lmmse_centralized(h_eff, r_eff, es).W
    return _result(w, tag), w @ y_eff


def dr_combine(qh, qn, qy, es: float, concatenate: bool):
    """Last step of sdr (sum) and cdr (``concatenate``: vstack), library and protocol.

    Joins the compressed per-cluster data and runs LMMSE on it. The
    joined covariance has rank at most N, so N below its dimension (K
    for sdr, C*K for cdr) raises NotPositiveDefinite.
    """
    join, tag = (np.vstack, "cdr") if concatenate else (sum, "sdr")
    n_eff = join(qn)
    if n_eff.shape[1] < n_eff.shape[0]:
        raise NotPositiveDefinite(
            f"{tag} sample covariance has rank at most "
            f"{n_eff.shape[1]} < dimension {n_eff.shape[0]} (N too small)")
    return _compressed_lmmse(join(qh), sample_covariance(n_eff), join(qy), es, tag)


def sdr_mmse(h_blocks, y_blocks, noise_blocks, es: float):
    """Superimposed dimensionality-reduction equalizer (star topology).

    Returns the K x K equalizer in compressed space and the symbol
    estimates; see :func:`dr_combine` for the N < K guard.
    """
    return dr_combine(*_compress_blocks(h_blocks, y_blocks, noise_blocks), es,
                      concatenate=False)


def cdr_mmse(h_blocks, y_blocks, noise_blocks, es: float):
    """Concatenated dimensionality-reduction equalizer (star topology).

    The CK x CK compressed sample covariance is rank-deficient whenever
    N < C*K; that surfaces as NotPositiveDefinite.
    """
    return dr_combine(*_compress_blocks(h_blocks, y_blocks, noise_blocks), es,
                      concatenate=True)


def compressed_estimate(h: np.ndarray, rhat: np.ndarray, q: np.ndarray,
                        y: np.ndarray, es: float) -> np.ndarray:
    """LMMSE symbol estimate computed from (Qy, QH, Q R Q^H) only."""
    qh = q @ h
    qrq = hermitize(q @ rhat @ q.conj().T)
    _, shat = _compressed_lmmse(qh, qrq, q @ y, es, "compressed")
    return shat


def mse_matrix(h: np.ndarray, rhat: np.ndarray, q: np.ndarray, es: float) -> np.ndarray:
    """K x K MSE matrix of the LMMSE estimate built on compressed data.

    E = Es*I - Es*H^H Q^H (Q H H^H Q^H + (1/Es) Q R Q^H)^-1 Q H, which
    equals E[(shat - s)(shat - s)^H] for the compressed-LMMSE filter
    (verified against the direct definition in the test suite).
    """
    k = h.shape[1]
    qh = q @ h
    inner = hermitize(qh @ qh.conj().T) + hermitize(q @ rhat @ q.conj().T) / es
    x = hpd_solve(inner, qh)
    return es * np.eye(k) - es * (qh.conj().T @ x)


# ---------------------------------------------------------------------------
# Sample-form objective, gradient, and BCD
# ---------------------------------------------------------------------------

def objective_sample(w: np.ndarray, h: np.ndarray, noise: np.ndarray, es: float) -> float:
    """Es*||W H - I||_F^2 + (1/N) * sum_i ||W n^i||^2."""
    k = h.shape[1]
    fit = w @ h - np.eye(k)
    return float(es * np.linalg.norm(fit, "fro") ** 2
                 + np.linalg.norm(w @ noise, "fro") ** 2 / noise.shape[1])


def objective_from_samples(w: np.ndarray, h: np.ndarray, samples: np.ndarray,
                           es: float) -> float:
    """Same objective with the scaled sample matrix S = noise/sqrt(N)."""
    k = h.shape[1]
    fit = w @ h - np.eye(k)
    return float(es * np.linalg.norm(fit, "fro") ** 2
                 + np.linalg.norm(w @ samples, "fro") ** 2)


def objective_gradient_block(w: np.ndarray, h: np.ndarray, samples: np.ndarray,
                             rows: slice, es: float) -> np.ndarray:
    """Gradient of the sample objective w.r.t. the block W[:, rows].

    Returned in the convention 2*(Es*(WH - I)H_c^H + (W S) S_c^H), whose
    real/imaginary parts are the partial derivatives w.r.t. the real and
    imaginary coordinates of the block.
    """
    k = h.shape[1]
    fit = w @ h - np.eye(k)
    ws = w @ samples
    return 2.0 * (es * fit @ h[rows].conj().T + ws @ samples[rows].conj().T)


def bcd_block_gram(h_c: np.ndarray, samples_c: np.ndarray, es: float) -> np.ndarray:
    """Es*H_c H_c^H + S_c S_c^H, the HPD matrix of one block update."""
    return es * hermitize(h_c @ h_c.conj().T) + hermitize(samples_c @ samples_c.conj().T)


def bcd_block_update(h_c: np.ndarray, samples_c: np.ndarray, a_prev: np.ndarray,
                     b_prev: np.ndarray, w_c_prev: np.ndarray, es: float,
                     gram: Optional[np.ndarray] = None) -> np.ndarray:
    """Closed-form minimizer of the sample objective in W_c, others fixed.

    ``a_prev`` is sum_j W_j H_j and ``b_prev`` is sum_j W_j S_j, both
    including the stale contribution of block c itself (it is removed
    here). ``gram`` may carry a precomputed :func:`bcd_block_gram`.
    """
    k = h_c.shape[1]
    a_others = a_prev - w_c_prev @ h_c
    b_others = b_prev - w_c_prev @ samples_c
    num = es * (np.eye(k) - a_others) @ h_c.conj().T - b_others @ samples_c.conj().T
    if gram is None:
        gram = bcd_block_gram(h_c, samples_c, es)
    return hpd_solve(gram, num.conj().T).conj().T


class BcdBlockFactor:
    """Per-block quantities reused across every BCD sweep.

    Built once per realization from one Cholesky factorization of the
    block Gram G_c. The fixed-sweep kernel :func:`bcd_sweep_step` uses
    the factor and the Es-weighted conjugate transposes. With
    ``newton=True`` the factor also holds the operators of the
    converge-mode kernel :func:`bcd_newton_step`: X_c = [H_c | S_c] and
    P_c = [Es H_c^H ; S_c^H] G_c^-1, with ``p_top`` = P_c[:K] =
    Es H_c^H G_c^-1.
    """

    __slots__ = ("h", "s", "hh_es", "sh", "chol", "lower", "x", "p", "p_top")

    def __init__(self, h_c: np.ndarray, samples_c: np.ndarray, es: float,
                 newton: bool = False):
        self.h = h_c
        self.s = samples_c
        self.hh_es = es * h_c.conj().T
        self.sh = samples_c.conj().T
        cf = hpd_factor(bcd_block_gram(h_c, samples_c, es))
        self.chol, self.lower = cf
        if newton:
            self.x = np.hstack([h_c, samples_c])
            # G_c is Hermitian, so P_c = (G_c^-1 [Es H_c | S_c])^H
            self.p = hpd_factor_solve(cf, np.hstack([es * h_c, samples_c])).conj().T
            self.p_top = self.p[:h_c.shape[1]]


def bcd_sweep_step(block: BcdBlockFactor, z: np.ndarray, w_c_prev: np.ndarray
                   ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Fixed-sweep Gauss-Seidel block update on Z = [A | B].

    A = sum_j W_j H_j and B = sum_j W_j S_j. Returns (W_c new, Z new, D),
    D the block change, like :func:`bcd_newton_step`; Z is a new array,
    never the input updated in place.
    """
    h_c, samples_c = block.h, block.s
    k = h_c.shape[1]
    a_others = z[:, :k] - w_c_prev @ h_c
    b_others = z[:, k:] - w_c_prev @ samples_c
    num = block.hh_es - a_others @ block.hh_es - b_others @ block.sh
    w_new, _ = _zpotrs(block.chol, num.conj().T, lower=block.lower)
    w_new = w_new.conj().T
    z_new = np.hstack([a_others + w_new @ h_c, b_others + w_new @ samples_c])
    return w_new, z_new, w_new - w_c_prev


def bcd_newton_step(block: BcdBlockFactor, z: np.ndarray, w_c: np.ndarray
                    ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Converge-mode block update on the fused state Z = [A | B].

    Algebraically the same minimizer as :func:`bcd_sweep_step`: since
    X_c P_c = I, the new block is W_c + D with D = P_c[:K] - Z P_c, and
    the accumulators move by D X_c. Two small matmuls replace the
    six-matmul-plus-solve sequence, so rounding differs from the
    fixed-sweep kernel in the last bits. ``block`` must be built with
    ``newton=True``. Returns (W_c new, Z new, D); Z is a new array,
    never the input updated in place.
    """
    # ndarray.dot skips the matmul ufunc dispatch, a large share of the
    # cost of a product this small
    d = block.p_top - z.dot(block.p)
    return w_c + d, z + d.dot(block.x), d


def bcd_iterate(factors: Sequence[BcdBlockFactor], wb: list, z: np.ndarray,
                sweeps: Optional[int] = None, tol: Optional[float] = None,
                max_sweeps: int = 200, scopes=None, after=None) -> int:
    """The one BCD sweep loop, shared by the library and the daisy protocol.

    With ``tol`` it runs converge mode: :func:`bcd_newton_step` (the
    ``factors`` built with ``newton=True``) until ||dW||_F^2 <=
    tol^2 ||W||_F^2 over a sweep, or for ``max_sweeps`` sweeps.
    Otherwise it runs ``sweeps`` sweeps (4 if not given) of
    :func:`bcd_sweep_step`. Giving both, ``sweeps < 0``, ``tol <= 0`` or
    ``max_sweeps < 1`` raises ValueError.

    ``wb`` holds the W blocks and is updated in place; ``z`` is the
    starting [A | B]. Block i steps inside ``scopes[i]`` if given, then
    ``after(t, i, z)`` sees the state after that step of sweep t.
    Returns the number of sweeps run.
    """
    if sweeps is not None and tol is not None:
        raise ValueError("give sweeps or tol, not both")
    if ((sweeps is not None and sweeps < 0) or (tol is not None and not tol > 0)
            or max_sweeps < 1):
        raise ValueError(f"need sweeps >= 0, tol > 0, max_sweeps >= 1; got "
                         f"{sweeps}, {tol}, {max_sweeps}")
    converge = tol is not None
    limit = max_sweeps if converge else 4 if sweeps is None else sweeps
    # looked up per call, so a replaced module attribute is honored
    step = bcd_newton_step if converge else bcd_sweep_step
    vdot = np.vdot
    for t in range(limit):
        change = 0.0
        scale = 0.0
        for i, factor in enumerate(factors):
            if scopes is None:
                w, z, d = step(factor, z, wb[i])
            else:
                with scopes[i]:
                    w, z, d = step(factor, z, wb[i])
            wb[i] = w
            if after is not None:
                after(t, i, z)
            if converge:
                change += vdot(d, d).real
                scale += vdot(w, w).real
        if converge and change <= (tol ** 2) * max(scale, 1e-300):
            return t + 1
    return limit


def bcd_block_update_raw(h_c: np.ndarray, noise_c: np.ndarray, a_prev: np.ndarray,
                         b_prev_raw: np.ndarray, w_c_prev: np.ndarray,
                         es: float) -> np.ndarray:
    """Block update with unscaled pilot samples and b_i = sum_j W_j n_j^i."""
    rt = np.sqrt(noise_c.shape[1])
    return bcd_block_update(h_c, noise_c / rt, a_prev, b_prev_raw / rt, w_c_prev, es)


def bdac_state(h_blocks, noise_blocks, sample_blocks, es: float
               ) -> tuple[list[np.ndarray], np.ndarray, np.ndarray]:
    """BDAC initial blocks plus the BCD communication variables.

    Returns (W0 blocks, A0 = sum_j W_j0 H_j, B0 = sum_j W_j0 S_j). A0 is
    computed as solve(Atot, sum_j Q_j H_j), which is how the daisy-chain
    protocol obtains it without an extra ring pass; the library shares
    the exact same path so protocol and library agree bit for bit.
    """
    k = h_blocks[0].shape[1]
    qs = [local_compression(hc, sample_covariance(nc))
          for hc, nc in zip(h_blocks, noise_blocks)]
    gram = hermitize(sum(q @ hc for q, hc in zip(qs, h_blocks)))
    atot = gram + np.eye(k) / es
    wb = [hpd_solve(atot, q) for q in qs]
    a0 = hpd_solve(atot, gram)
    b0 = sum(w @ sc for w, sc in zip(wb, sample_blocks))
    return wb, a0, b0


def bcd_init_bdac(h_blocks, noise_blocks, es: float) -> list[np.ndarray]:
    """BDAC blocks from locally estimated R_cc, the standard BCD start."""
    r_blocks = [sample_covariance(nc) for nc in noise_blocks]
    return list(bdac_mmse(h_blocks, r_blocks, es).blocks)


def bcd_solve(h_blocks, noise_blocks, es: float, sweeps: Optional[int] = None,
              tol: Optional[float] = None, sample_blocks=None,
              max_sweeps: int = 200) -> EqualizerResult:
    """Gauss-Seidel BCD over the per-cluster blocks of W, from the BDAC start.

    Runs :func:`bcd_iterate` and follows its rule: ``tol`` converges
    for at most ``max_sweeps`` sweeps, else ``sweeps`` sweeps run (4 if
    neither is given); giving both raises ValueError. A converge-mode
    result is promised to ``tol``, not to the bits of a fixed-sweep run.
    Either mode is bit-identical to :func:`dbpeq.dbpnet.run_bcd_daisy`.
    ``sample_blocks`` substitutes the scaled pilot matrices (e.g. the
    low-rank G_c) in every sample term.
    """
    if sample_blocks is None:
        sample_blocks = [scaled_samples(nc) for nc in noise_blocks]
    wb, a, b = bdac_state(h_blocks, noise_blocks, sample_blocks, es)
    factors = [BcdBlockFactor(hc, sc, es, newton=tol is not None)
               for hc, sc in zip(h_blocks, sample_blocks)]
    n_sweeps = bcd_iterate(factors, wb, np.hstack([a, b]), sweeps, tol, max_sweeps)
    return _result(np.hstack(wb), "bcd", [hc.shape[0] for hc in h_blocks], n_sweeps)


# ---------------------------------------------------------------------------
# Low-rank decomposition of the scaled sample matrix
# ---------------------------------------------------------------------------

def lrd_auto_rank(singular_values: np.ndarray, tau: float = 0.05) -> int:
    """Keep every singular value above tau times the largest."""
    s = np.asarray(singular_values)
    if s.size == 0 or s[0] == 0:
        return 1
    return max(1, int(np.sum(s > tau * s[0])))


def lrd_stage(d_prev: Optional[np.ndarray], v_prev: Optional[np.ndarray],
              s_c: np.ndarray, r: int) -> tuple[np.ndarray, np.ndarray]:
    """One stage of the sequential decomposition: returns (D_c, V_c).

    Stacks the running reconstruction D V^H (none at the first stage) on
    top of this cluster's rows and keeps the dominant triplets. Early
    clusters may have fewer than r rows; the decomposition carries at
    most min(rows, N) triplets until enough rows accumulate.
    """
    stack = s_c if d_prev is None else np.vstack([d_prev @ v_prev.conj().T, s_c])
    dec = truncated_svd(stack, min(r, *stack.shape))
    return dec.U * dec.S, dec.V


def lrd_sequential(sample_blocks: Sequence[np.ndarray], r: int
                   ) -> tuple[list[np.ndarray], np.ndarray]:
    """Daisy-chain rank-r decomposition of the stacked sample matrix.

    Runs :func:`lrd_stage` cluster by cluster; the final right factor V
    is broadcast so every cluster can form G_c = S_c @ V. Returns the
    list of G_c (M_c x r) and V (N x r).
    """
    n = sample_blocks[0].shape[1]
    if not 1 <= r <= min(sum(b.shape[0] for b in sample_blocks), n):
        raise RankOutOfRange(f"rank {r} out of range")
    d = v = None
    for s_c in sample_blocks:
        d, v = lrd_stage(d, v, s_c, r)
    return [s_c @ v for s_c in sample_blocks], v
