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

from contextlib import nullcontext
from dataclasses import dataclass
from itertools import accumulate
from numbers import Real
from typing import Optional, Sequence

import numpy as np

from .numerics import (
    NotPositiveDefinite,
    RankOutOfRange,
    ShapeMismatch,
    daxpy,
    ddot,
    dgemm,
    hermitize,
    hpd_factor,
    hpd_factor_solve,
    hpd_solve,
    truncated_svd,
    zpotrs,
)
from .scenario import ConfigError, sample_covariance, whole_number


@dataclass(frozen=True)
class EqualizerResult:
    """A K x M equalization matrix and the BCD sweeps that produced it (0 if none)."""

    W: np.ndarray
    iterations: int = 0


def scaled_samples(noise: np.ndarray) -> np.ndarray:
    """noise / sqrt(N): columns scaled so S @ S^H is the sample covariance."""
    return np.asarray(noise) / np.sqrt(noise.shape[1])


# ---------------------------------------------------------------------------
# Centralized closed forms
# ---------------------------------------------------------------------------

def lmmse_centralized(h: np.ndarray, rhat: np.ndarray, es: float) -> EqualizerResult:
    """W = (H^H R^-1 H + I/Es)^-1 H^H R^-1, via two HPD solves."""
    k = h.shape[1]
    rinv_h = hpd_solve(rhat, h)                      # R^-1 H
    gram = hermitize(h.conj().T @ rinv_h) + np.eye(k) / es
    w = hpd_solve(gram, rinv_h.conj().T)
    return EqualizerResult(w)


def zf_centralized(h: np.ndarray) -> EqualizerResult:
    """W = (H^H H)^-1 H^H; raises NotPositiveDefinite if H is rank-deficient."""
    gram = hermitize(h.conj().T @ h)
    w = hpd_solve(gram, h.conj().T)
    return EqualizerResult(w)


# ---------------------------------------------------------------------------
# Per-cluster compression (shared by BDAC, sDR, cDR, and the protocols)
# ---------------------------------------------------------------------------

def local_compression(h_c: np.ndarray, r_cc: np.ndarray) -> np.ndarray:
    """Q_c = H_c^H R_cc^-1, the K x M_c local compression matrix."""
    return hpd_solve(r_cc, h_c).conj().T


def bdac_operators(gram_sum: np.ndarray, es: float) -> tuple[np.ndarray, np.ndarray]:
    """(Gram, Atot): the hermitized Gram sum_c Q_c H_c and Atot = Gram + I/Es."""
    gram = hermitize(gram_sum)
    return gram, gram + np.eye(gram.shape[0]) / es


def _bdac(h_blocks, r_blocks, es: float):
    """(BDAC blocks W_c = Atot^-1 Q_c, Gram, Atot), with :func:`bdac_operators`."""
    qs = [local_compression(hc, rc) for hc, rc in zip(h_blocks, r_blocks)]
    gram, atot = bdac_operators(sum(q @ hc for q, hc in zip(qs, h_blocks)), es)
    return [hpd_solve(atot, q) for q in qs], gram, atot


def bdac_mmse(h_blocks: Sequence[np.ndarray], r_blocks: Sequence[np.ndarray],
              es: float) -> EqualizerResult:
    """LMMSE with the covariance replaced by its block-diagonal part."""
    return EqualizerResult(np.hstack(_bdac(h_blocks, r_blocks, es)[0]))


def compress_cluster(h_c: np.ndarray, y_c: np.ndarray, noise_c: np.ndarray
                     ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(Q_c H_c, Q_c n_c, Q_c y_c), Q_c from the locally estimated R_cc."""
    q = local_compression(h_c, sample_covariance(noise_c))
    return q @ h_c, q @ noise_c, q @ y_c


def _compress_blocks(h_blocks, y_blocks, noise_blocks):
    """The (Q_c H_c), (Q_c n_c), (Q_c y_c) of :func:`compress_cluster` over the clusters."""
    return zip(*map(compress_cluster, h_blocks, y_blocks, noise_blocks))


def _compressed_lmmse(h_eff, r_eff, y_eff, es):
    res = lmmse_centralized(h_eff, r_eff, es)
    return res, res.W @ y_eff


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
    return _compressed_lmmse(join(qh), sample_covariance(n_eff), join(qy), es)


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
    _, shat = _compressed_lmmse(qh, qrq, q @ y, es)
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
    """Es*||W H - I||_F^2 + (1/N) * sum_i ||W n^i||^2, on the raw pilot samples."""
    return objective_from_samples(w, h, scaled_samples(noise), es)


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
                     b_prev: np.ndarray, w_c_prev: np.ndarray, es: float) -> np.ndarray:
    """Closed-form minimizer of the sample objective in W_c, others fixed.

    ``a_prev`` is sum_j W_j H_j and ``b_prev`` is sum_j W_j S_j, both
    including the stale contribution of block c itself (it is removed
    here).
    """
    k = h_c.shape[1]
    a_others = a_prev - w_c_prev @ h_c
    b_others = b_prev - w_c_prev @ samples_c
    num = es * (np.eye(k) - a_others) @ h_c.conj().T - b_others @ samples_c.conj().T
    return hpd_solve(bcd_block_gram(h_c, samples_c, es), num.conj().T).conj().T


def _real_form(m: np.ndarray) -> np.ndarray:
    """The 2r x 2c float64 R with (v @ m).view(float64) == v.view(float64) @ R.

    v is any complex row block with r columns; entry (j, k) of m becomes
    the 2 x 2 block [[re, im], [-im, re]] that acts on the interleaved
    (re, im) pairs of v.
    """
    r = np.empty((2 * m.shape[0], 2 * m.shape[1]))
    r[0::2, 0::2] = r[1::2, 1::2] = m.real
    r[0::2, 1::2] = m.imag
    r[1::2, 0::2] = -m.imag
    return r


class BcdBlockFactor:
    """Per-block quantities reused across every BCD sweep.

    Built once per realization from ``chol``, the lower Cholesky factor
    of the block Gram G_c. The fixed-sweep kernel :func:`bcd_sweep_step`
    uses the factor and the Es-weighted conjugate transposes.
    :meth:`newton` adds the operators of the converge-mode kernel
    :func:`bcd_newton_step`, in real form (see :func:`_real_form`): ``x``
    of X_c = [H_c | S_c] and ``p`` of -P_c, P_c = [Es H_c^H ; S_c^H] G_c^-1,
    with ``xt`` and ``pt`` their Fortran-ordered transposes (views), the
    operands BLAS reads. The kernel's R^T and D^T operands are not here:
    :func:`bcd_iterate` owns them, with the per-sweep W and D buffers.
    """

    __slots__ = ("h", "s", "es", "hh_es", "sh", "chol", "x", "p", "xt", "pt")

    def __init__(self, h_c: np.ndarray, samples_c: np.ndarray, es: float):
        self.h = h_c
        self.s = samples_c
        self.es = es
        self.hh_es = es * h_c.conj().T
        self.sh = samples_c.conj().T
        self.chol = hpd_factor(bcd_block_gram(h_c, samples_c, es))

    def newton(self) -> None:
        """Build ``x``, ``p`` and their transposes from this factor's own arrays."""
        self.x = _real_form(np.hstack([self.h, self.s]))
        # G_c is Hermitian, so P_c = (G_c^-1 [Es H_c | S_c])^H
        p = hpd_factor_solve(self.chol, np.hstack([self.es * self.h, self.s])).conj().T
        self.p = _real_form(-p)
        self.xt, self.pt = self.x.T, self.p.T


def bcd_sweep_step(block: BcdBlockFactor, z: np.ndarray, w_c: np.ndarray) -> None:
    """Fixed-sweep Gauss-Seidel block update of Z = [A | B] and W_c, in place.

    A = sum_j W_j H_j and B = sum_j W_j S_j; ``z`` holds Z and ``w_c``
    the block W_c. The new block is written into ``w_c`` and Z takes its
    new contribution in place, the new W_c being the product operand.
    """
    h_c, samples_c = block.h, block.s
    k = h_c.shape[1]
    a_others = z[:, :k] - w_c @ h_c
    b_others = z[:, k:] - w_c @ samples_c
    num = block.hh_es - a_others @ block.hh_es - b_others @ block.sh
    w_new, _ = zpotrs(block.chol, num.conj().T, lower=1)
    w_new = w_new.conj().T
    w_c[...] = w_new
    np.add(a_others, w_new @ h_c, out=z[:, :k])
    np.add(b_others, w_new @ samples_c, out=z[:, k:])


def bcd_newton_step(block: BcdBlockFactor, rt: np.ndarray, dt: np.ndarray) -> None:
    """Converge-mode block update of the residual R = [A - I | B], in real form.

    The kernel takes the transposes that BLAS reads and writes, both
    Fortran-ordered float64: ``rt`` is R^T (2(K+N) x K), the transpose of
    the interleaved float64 view of the complex R, and ``dt`` is D^T
    (2 M_c x K). Since X_c P_c = I and P_c[:K] = [I | 0] P_c, the new
    block is W_c + D with D = -R P_c, leaving the add to W_c to the
    caller. Two BLAS ``dgemm`` calls do the step in place and make no
    views: D^T = P^T R^T on ``block.pt`` (see
    :meth:`BcdBlockFactor.newton`) writes D^T into ``dt``, and
    R^T += X^T D^T (beta = 1) updates ``rt``. For K >= 2 these are the
    bits of ``R.dot(block.p)`` and ``R + D.dot(block.x)`` on the float64
    R and D, which numpy sends to the same gemm; at K = 1 numpy uses
    gemv, so only the last bits differ from that form. The wrapper would work on a copy of an
    operand that is not Fortran-ordered and lose its update, so that
    raises ShapeMismatch. Rounding differs from :func:`bcd_sweep_step`
    in the last bits.
    """
    # alpha, a, b, beta, c, trans_a, trans_b, overwrite_c: positional, because
    # the wrapper takes about 0.3 us longer to parse a keyword
    if (dgemm(1.0, block.pt, rt, 0.0, dt, 0, 0, 1) is not dt
            or dgemm(1.0, block.xt, dt, 1.0, rt, 0, 0, 1) is not rt):
        raise ShapeMismatch("bcd_newton_step needs Fortran-ordered float64 rt and dt, "
                            f"got {rt.dtype} {rt.shape} and {dt.dtype} {dt.shape}")


def bcd_limit(sweeps: Optional[int] = None, tol: Optional[float] = None,
              max_sweeps: int = 200) -> int:
    """The sweeps BCD may run: ``max_sweeps`` with ``tol``, else ``sweeps`` (4 if None).

    The one check of the rule: both given, a bool or non-integral count, a
    non-real tol, ``sweeps < 0``, ``tol <= 0`` or ``max_sweeps < 1`` raise ConfigError.
    """
    if sweeps is not None:
        whole_number("BCD sweep count", sweeps, 0)
    whole_number("BCD max_sweeps", max_sweeps, 1)
    if tol is not None and (isinstance(tol, bool) or not isinstance(tol, Real) or not tol > 0):
        raise ConfigError(f"BCD tolerance must be a real number > 0, got {tol!r}")
    if sweeps is not None and tol is not None:
        raise ConfigError("give a BCD sweep count or a tolerance tol, not both")
    return max_sweeps if tol is not None else 4 if sweeps is None else sweeps


def bcd_iterate(factors: Sequence[BcdBlockFactor], wb: list, z: np.ndarray,
                limit: int, tol: Optional[float] = None, scopes=None, after=None) -> int:
    """The one BCD sweep loop, shared by the library and the daisy protocol.

    Runs at most ``limit`` sweeps (see :func:`bcd_limit`) of
    :func:`bcd_sweep_step`, or with ``tol`` calls :meth:`BcdBlockFactor.newton`
    on each factor and steps :func:`bcd_newton_step` until ||dW||_F^2 <=
    tol^2 ||W||_F^2 over a sweep.

    ``wb`` holds the W blocks and ``z`` the starting Z = [A | B]; neither
    array is written. Both kernels follow one contract, ``step(factor,
    state, slot)``: each updates the one live state in place and writes
    its block output into ``slot``. The state is a complex128 copy of Z,
    from which converge mode subtracts [I | 0] to step on R = [A - I | B].
    The W blocks live in one flat buffer: a fixed-mode slot is its block
    of W. Converge mode binds the kernel's Fortran-ordered operands once
    per solve, before the first sweep: the state is passed as R^T, the
    transpose of R's float64 view, and each slot is D^T, the transpose of
    the K x 2 M_c float64 view of the block change D in a second flat
    buffer. After the sweep one BLAS ``daxpy`` adds D to W (a = 1.0, so
    the bits of ``W += D``) and one BLAS ``ddot`` per side gives the
    stopping sums. Block i's ``newton()`` and steps run inside ``scopes[i]``
    if given; ``after(t, i, state)`` sees the complex128 state (Z, or R in converge
    mode) after that step of sweep t: the same live array at every step,
    so ``after`` must copy what it keeps. On exit ``wb`` holds each block
    as its own complex128 array. Returns the number of sweeps run.
    """
    converge = tol is not None
    # looked up per call, so a replaced module attribute is honored
    step = bcd_newton_step if converge else bcd_sweep_step
    state = np.array(z, dtype=np.complex128)
    ends = list(accumulate((w.size for w in wb), initial=0))
    spans = list(zip(ends, ends[1:], wb))
    w_all = np.empty(ends[-1], dtype=np.complex128)
    w_blocks = []
    for a, e, w in spans:
        block = w_all[a:e].reshape(w.shape)
        block[...] = w
        w_blocks.append(block)
    live, slots = state, w_blocks
    scopes = scopes or [None] * len(factors)
    if converge:
        for factor, scope in zip(factors, scopes):
            with scope or nullcontext():
                factor.newton()
        state -= np.eye(*state.shape)
        # the kernel's Fortran-ordered transposes, made once per solve
        live = state.view(np.float64).T
        tol2 = tol ** 2
        d_all = np.empty_like(w_all)
        slots = [d_all[a:e].view(np.float64).reshape(w.shape[0], -1).T for a, e, w in spans]
        w_all, d_all = w_all.view(np.float64), d_all.view(np.float64)
    steps = list(zip(factors, slots, scopes))
    ran = limit
    for t in range(limit):
        for i, (factor, slot, scope) in enumerate(steps):
            if scope is None:
                step(factor, live, slot)
            else:
                with scope:
                    step(factor, live, slot)
            if after is not None:
                after(t, i, state)
        if converge:
            daxpy(d_all, w_all)  # W += D: 1.0 * D is exact, so the bits of +
            if ddot(d_all, d_all) <= tol2 * max(ddot(w_all, w_all), 1e-300):
                ran = t + 1
                break
    wb[:] = [w.copy() for w in w_blocks]
    return ran


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
    wb, gram, atot = _bdac(h_blocks, [sample_covariance(nc) for nc in noise_blocks], es)
    a0 = hpd_solve(atot, gram)
    b0 = sum(w @ sc for w, sc in zip(wb, sample_blocks))
    return wb, a0, b0


def bcd_init_bdac(h_blocks, noise_blocks, es: float) -> list[np.ndarray]:
    """BDAC blocks from locally estimated R_cc, the standard BCD start."""
    return bdac_state(h_blocks, noise_blocks, [scaled_samples(nc) for nc in noise_blocks], es)[0]


def bcd_solve(h_blocks, noise_blocks, es: float, sweeps: Optional[int] = None,
              tol: Optional[float] = None, sample_blocks=None,
              max_sweeps: int = 200) -> EqualizerResult:
    """Gauss-Seidel BCD over the per-cluster blocks of W, from the BDAC start.

    Runs :func:`bcd_iterate` for the :func:`bcd_limit` of ``sweeps``,
    ``tol`` and ``max_sweeps``, checked before any work. A converge-mode
    result is promised to ``tol``, not to the bits of a fixed-sweep run.
    Either mode is bit-identical to :func:`dbpeq.dbpnet.run_bcd_daisy`.
    ``sample_blocks`` substitutes the scaled pilot matrices (e.g. the
    low-rank G_c) in every sample term.
    """
    limit = bcd_limit(sweeps, tol, max_sweeps)
    if sample_blocks is None:
        sample_blocks = [scaled_samples(nc) for nc in noise_blocks]
    wb, a, b = bdac_state(h_blocks, noise_blocks, sample_blocks, es)
    factors = [BcdBlockFactor(hc, sc, es) for hc, sc in zip(h_blocks, sample_blocks)]
    n_sweeps = bcd_iterate(factors, wb, np.hstack([a, b]), limit, tol)
    return EqualizerResult(np.hstack(wb), n_sweeps)


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
    list of G_c (M_c x r) and V (N x r). A rank below 1 fails in the
    first stage's :func:`truncated_svd`, one above min(M, N) in
    :func:`check_lrd_rank`, which :func:`dbpeq.dbpnet.run_lrd_daisy` shares.
    """
    d = v = None
    for s_c in sample_blocks:
        d, v = lrd_stage(d, v, s_c, r)
    check_lrd_rank(v, r)
    return [s_c @ v for s_c in sample_blocks], v


def check_lrd_rank(v: np.ndarray, r: int) -> None:
    """The last LRD stage's V keeps min(r, M, N) columns; fewer than r raise."""
    if v.shape[1] < r:
        raise RankOutOfRange(f"rank {r} exceeds min(M, N) = {v.shape[1]}")
