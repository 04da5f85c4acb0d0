"""Dense complex linear algebra kernel.

Everything the equalizers need: Hermitian positive-definite solves,
full and truncated SVD, and small shape-checked helpers. All functions
are pure and operate on double-precision complex numpy arrays.

Matrix inverses are never formed explicitly; every ``inv(A) @ B``
expression in the equalizer math is realized as a Cholesky solve here.
An HPD input is checked, not symmetrized (its producer calls
:func:`hermitize`), and its lower triangle is factored.

This is the one module that binds scipy: it needs ``dgemm``, ``daxpy``,
``ddot`` and ``ztrsm`` from BLAS. :func:`_scipy_linalg_module` loads
scipy's f2py extension ``scipy.linalg._fblas`` from its file, under that
name, so ``scipy/linalg/__init__.py`` never runs: it clones numpy's
namespace and would load about 300 more modules. The routines are the
very objects that ``scipy.linalg.blas`` exports, in either import order.
A missing file raises :class:`ImportError`. The Cholesky factorization
is numpy's and its solve is the two ``ztrsm`` calls of LAPACK's
``zpotrs``, which give the bits of ``zpotrf`` and ``zpotrs`` without
loading scipy's 2.5 MB LAPACK extension ``_flapack``.
"""

from __future__ import annotations

import importlib.util
import sys
import warnings
from dataclasses import dataclass
from importlib.machinery import EXTENSION_SUFFIXES, ExtensionFileLoader, FileFinder
from pathlib import Path

import numpy as np


def _scipy_linalg_module(name: str):
    """scipy's compiled ``scipy.linalg.<name>``, without running ``scipy.linalg``'s ``__init__``.

    An entry already in ``sys.modules`` (``scipy.linalg`` was imported
    first) is reused; otherwise the module is registered there, so a
    later ``import scipy.linalg`` reuses it.
    """
    qualname = f"scipy.linalg.{name}"
    if qualname in sys.modules:
        return sys.modules[qualname]
    scipy = importlib.util.find_spec("scipy")
    if scipy is None:
        raise ImportError("dbpeq needs scipy", name="scipy")
    where = Path(scipy.origin).parent / "linalg"
    spec = FileFinder(str(where), (ExtensionFileLoader, EXTENSION_SUFFIXES)).find_spec(qualname)
    if spec is None:
        raise ImportError(f"no compiled {name} in {where}", name=qualname, path=str(where))
    module = importlib.util.module_from_spec(spec)
    sys.modules[qualname] = module
    spec.loader.exec_module(module)
    return module


_fblas = _scipy_linalg_module("_fblas")
dgemm, daxpy, ddot, ztrsm = _fblas.dgemm, _fblas.daxpy, _fblas.ddot, _fblas.ztrsm

HERM_TOL = 1e-10
RIDGE_EPS = 1e-12

# Near-singular sample covariances (N close to M) occasionally fail the
# first factorization; a single ridge retry is allowed. The counter lets
# callers notice when that path is being exercised.
_ridge_retries = 0


class NumericsError(ValueError):
    """Base class for numeric failures in the linear algebra kernel."""


class ShapeMismatch(NumericsError):
    pass


class NotHermitian(NumericsError):
    pass


class NotPositiveDefinite(NumericsError):
    pass


class RankOutOfRange(NumericsError):
    pass


def ridge_retry_count() -> int:
    """Number of HPD solves that needed the ridge fallback so far."""
    return _ridge_retries


def as_cmatrix(a) -> np.ndarray:
    """Coerce to a 2-D complex128 array and reject non-finite entries."""
    m = np.asarray(a, dtype=np.complex128)
    if m.ndim == 1:
        m = m[:, None]
    if m.ndim != 2:
        raise ShapeMismatch(f"expected a 2-D array, got ndim={m.ndim}")
    if not np.all(np.isfinite(m)):
        raise NumericsError("matrix contains NaN or Inf entries")
    return np.ascontiguousarray(m)


def hermitize(a: np.ndarray) -> np.ndarray:
    """Return (A + A^H)/2; removes floating-point drift from sample covariances."""
    a = np.asarray(a)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise ShapeMismatch(f"hermitize needs a square matrix, got {a.shape}")
    return 0.5 * (a + a.conj().T)


def hpd_factor(a: np.ndarray) -> np.ndarray:
    """Cholesky-factor a Hermitian positive-definite matrix.

    A is checked, not symmetrized: a NaN or Inf entry raises
    :class:`NumericsError`, ||A - A^H|| beyond HERM_TOL raises
    :class:`NotHermitian`, and the lower triangle of A is factored. If
    that fails, one ridge retry ``A + eps*tr(A)/n*I`` is attempted
    before raising :class:`NotPositiveDefinite`. Returns the lower factor
    L (A = L L^H; Fortran-ordered, strict upper triangle zero), which
    feeds :func:`hpd_factor_solve` and may be reused across many
    right-hand sides (e.g. one factorization per BCD block per realization).
    """
    global _ridge_retries
    a = np.asarray(a, dtype=np.complex128)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise ShapeMismatch(f"hpd_factor needs a square matrix, got {a.shape}")
    n = a.shape[0]
    # ||A - A^H|| is NaN or Inf when an entry of A is (vdot skips the Python
    # layers of np.linalg.norm); ||A|| matters only past HERM_TOL
    d = a - a.conj().T
    asym = float(np.sqrt(np.vdot(d, d).real))
    if not np.isfinite(asym):
        raise NumericsError("matrix contains NaN or Inf entries")
    if asym > HERM_TOL and asym > HERM_TOL * float(np.linalg.norm(a)):
        raise NotHermitian(f"asymmetry {asym:.3e} beyond tolerance")
    try:
        chol = np.linalg.cholesky(a)
    except np.linalg.LinAlgError:
        _ridge_retries += 1
        ridge = RIDGE_EPS * np.trace(a).real / n
        warnings.warn(f"HPD factorization failed; retrying with ridge {ridge:.3e}",
                      RuntimeWarning, stacklevel=2)
        try:
            chol = np.linalg.cholesky(a + ridge * np.eye(n))
        except np.linalg.LinAlgError:
            raise NotPositiveDefinite("factorization pivot <= 0 even after ridge; "
                                      "degenerate covariance") from None
    return np.asfortranarray(chol)   # the layout ztrsm reads without a copy


def chol_solve(chol: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Unchecked A X = B from A's lower factor L: the two ``ztrsm`` calls of LAPACK ``zpotrs``."""
    # L Y = B, then L^H X = Y over Y: alpha, a, b, side, lower, trans_a (2: ^H), diag, overwrite_b
    return ztrsm(1.0, chol, ztrsm(1.0, chol, b, 0, 1, 0, 0), 0, 1, 2, 0, 1)


def hpd_factor_solve(chol: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Solve A X = B given the lower Cholesky factor of A from :func:`hpd_factor`."""
    b = np.asarray(b, dtype=np.complex128)
    if np.ndim(chol) != 2 or b.ndim == 0 or b.shape[0] != chol.shape[0]:
        raise ShapeMismatch(f"rhs {b.shape} does not fit factor {np.shape(chol)}")
    return chol_solve(chol, b)


def hpd_solve(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Solve A X = B for Hermitian positive-definite A via Cholesky."""
    return hpd_factor_solve(hpd_factor(a), b)


@dataclass(frozen=True)
class SvdResult:
    """Singular value decomposition X = U diag(S) V^H."""

    U: np.ndarray
    S: np.ndarray
    V: np.ndarray


def _fix_signs(u: np.ndarray, v: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    # Phase convention: first nonzero entry of each left singular vector
    # has nonnegative real part, so results are deterministic. A column
    # with no entry above the threshold is left as it is.
    u = u.copy()
    v = v.copy()
    if not u.size:
        return u, v
    mag = np.abs(u)
    significant = mag > 1e-12 * np.maximum(1.0, mag.max(axis=0))
    cols = np.flatnonzero(significant.any(axis=0))
    pivot = u[significant[:, cols].argmax(axis=0), cols]
    # np.hypot rounds like the scalar abs() this convention was fixed with
    phase = (pivot / np.hypot(pivot.real, pivot.imag)).conjugate()
    # one column at a time: numpy rounds a one-element complex product
    # (a one-row u) without FMA, a longer one with it, so a whole-matrix
    # product would change the bits of short columns
    for j, ph in zip(cols.tolist(), phase.tolist()):
        u[:, j] *= ph
        v[:, j] *= ph
    return u, v


def _leading_svd(x: np.ndarray, r: int) -> SvdResult:
    # phases are fixed column by column, so fixing only the r kept
    # columns gives the bits of fixing all of them and slicing
    u, s, vh = np.linalg.svd(x, full_matrices=False)
    u, v = _fix_signs(u[:, :r], vh[:r].conj().T)
    return SvdResult(U=u, S=s[:r], V=v)


def svd(x: np.ndarray) -> SvdResult:
    """Deterministic thin SVD with nonincreasing singular values."""
    x = as_cmatrix(x)
    return _leading_svd(x, min(x.shape))


def truncated_svd(x: np.ndarray, r: int) -> SvdResult:
    """The r dominant singular triplets of x (Eckart-Young optimal)."""
    x = as_cmatrix(x)
    kmax = min(x.shape)
    if not 1 <= r <= kmax:
        raise RankOutOfRange(f"rank {r} not in [1, {kmax}]")
    return _leading_svd(x, r)
