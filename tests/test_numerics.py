"""Linear algebra kernel tests against independent numpy oracles."""

import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
import scipy.linalg as sla

from dbpeq import numerics

SRC = Path(__file__).resolve().parents[1] / "src"


def _rand_complex(rng, shape):
    return rng.standard_normal(shape) + 1j * rng.standard_normal(shape)


def _rand_hpd(rng, n):
    a = _rand_complex(rng, (n, n + 4))
    return a @ a.conj().T / (n + 4)


class TestHelpers:
    def test_as_cmatrix_promotes_vectors(self):
        m = numerics.as_cmatrix([1.0, 2.0, 3.0])
        assert m.shape == (3, 1)
        assert m.dtype == np.complex128

    def test_as_cmatrix_rejects_nan(self):
        with pytest.raises(numerics.NumericsError):
            numerics.as_cmatrix(np.array([[np.nan, 0.0]]))

    def test_as_cmatrix_rejects_3d(self):
        with pytest.raises(numerics.ShapeMismatch):
            numerics.as_cmatrix(np.zeros((2, 2, 2)))

    def test_hermitize_is_hermitian(self):
        rng = np.random.default_rng(0)
        a = _rand_complex(rng, (5, 5))
        h = numerics.hermitize(a)
        np.testing.assert_allclose(h, h.conj().T)

    def test_hermitize_fixed_point(self):
        rng = np.random.default_rng(1)
        h = _rand_hpd(rng, 4)
        np.testing.assert_array_equal(numerics.hermitize(h), h)

    def test_hermitize_rejects_rectangular(self):
        with pytest.raises(numerics.ShapeMismatch):
            numerics.hermitize(np.zeros((2, 3)))


class TestHpdSolve:
    def test_matches_numpy_solve(self):
        rng = np.random.default_rng(3)
        for n in (2, 4, 9, 16):
            a = _rand_hpd(rng, n)
            b = _rand_complex(rng, (n, 3))
            x = numerics.hpd_solve(a, b)
            np.testing.assert_allclose(x, np.linalg.solve(a, b), rtol=1e-10)

    def test_factor_solve_matches_direct_solve(self):
        rng = np.random.default_rng(4)
        a = _rand_hpd(rng, 6)
        b = _rand_complex(rng, (6, 2))
        cf = numerics.hpd_factor(a)
        np.testing.assert_array_equal(numerics.hpd_factor_solve(cf, b),
                                      numerics.hpd_solve(a, b))

    def test_factor_and_solve_match_scipy(self):
        rng = np.random.default_rng(6)
        for n in (1, 4, 8, 32):
            a = numerics.hermitize(_rand_hpd(rng, n))
            b = _rand_complex(rng, (n, 3))
            cf, ref = numerics.hpd_factor(a), sla.cho_factor(a, lower=True)
            np.testing.assert_array_equal(cf, ref[0])
            np.testing.assert_array_equal(numerics.hpd_factor_solve(cf, b),
                                          sla.cho_solve(ref, b))

    def test_rejects_non_hermitian(self):
        rng = np.random.default_rng(5)
        a = _rand_complex(rng, (4, 4))
        with pytest.raises(numerics.NotHermitian):
            numerics.hpd_solve(a, np.eye(4))

    def test_hermitian_tolerance_scales_with_norm(self):
        # ||A - A^H|| may reach HERM_TOL * max(1, ||A||): 1e-4 at ||A|| = 1e6
        rng = np.random.default_rng(6)
        h = _rand_hpd(rng, 4)
        h *= 1e6 / np.linalg.norm(h)
        k = _rand_complex(rng, (4, 4))
        k = (k - k.conj().T) / np.linalg.norm(k - k.conj().T)   # skew, norm 1
        for asym in (1e-6, 1e-3):
            a = h + asym / 2 * k
            assert np.isclose(np.linalg.norm(a - a.conj().T), asym)
            assert np.isclose(np.linalg.norm(a), 1e6)
        numerics.hpd_factor(h + 1e-6 / 2 * k)
        with pytest.raises(numerics.NotHermitian):
            numerics.hpd_factor(h + 1e-3 / 2 * k)

    def test_rejects_rectangular(self):
        with pytest.raises(numerics.ShapeMismatch):
            numerics.hpd_solve(np.zeros((2, 3)), np.zeros((2, 1)))

    def test_rejects_rhs_mismatch(self):
        with pytest.raises(numerics.ShapeMismatch):
            numerics.hpd_solve(np.eye(3), np.zeros((4, 1)))

    @pytest.mark.parametrize("fn, args", [
        ("hpd_factor", (np.float64(2.0),)),
        ("hpd_solve", (np.float64(2.0), np.ones(1))),
        ("hpd_solve", (np.eye(2), np.float64(1.0))),
        ("hpd_factor_solve", (np.float64(2.0), np.ones(1))),
        ("hpd_factor_solve", (np.eye(2), np.float64(1.0))),
        ("hermitize", (np.float64(2.0),)),
        ("hermitize", (np.ones(3),)),
    ], ids=["factor-0d", "solve-0d-matrix", "solve-0d-rhs", "factor_solve-0d-factor",
            "factor_solve-0d-rhs", "hermitize-0d", "hermitize-1d"])
    def test_rejects_0d_and_1d_shapes(self, fn, args):
        # a typed error, not the IndexError of reading a missing axis
        with pytest.raises(numerics.ShapeMismatch):
            getattr(numerics, fn)(*args)

    def test_negative_definite_raises(self):
        with pytest.raises(numerics.NotPositiveDefinite):
            with pytest.warns(RuntimeWarning):
                numerics.hpd_solve(-np.eye(3), np.eye(3))

    def test_ridge_retry_counter_increments(self):
        rng = np.random.default_rng(6)
        # PSD but numerically singular: rank 2 in dimension 4
        u = _rand_complex(rng, (4, 2))
        a = u @ u.conj().T
        before = numerics.ridge_retry_count()
        try:
            with pytest.warns(RuntimeWarning):
                numerics.hpd_solve(a, np.eye(4))
        except numerics.NotPositiveDefinite:
            pass
        assert numerics.ridge_retry_count() == before + 1


class TestSvd:
    def test_reconstruction(self):
        rng = np.random.default_rng(7)
        x = _rand_complex(rng, (6, 10))
        dec = numerics.svd(x)
        np.testing.assert_allclose((dec.U * dec.S) @ dec.V.conj().T, x, atol=1e-12)

    def test_singular_values_match_numpy(self):
        rng = np.random.default_rng(8)
        x = _rand_complex(rng, (7, 5))
        dec = numerics.svd(x)
        np.testing.assert_allclose(dec.S, np.linalg.svd(x, compute_uv=False),
                                   rtol=1e-12)

    def test_sign_convention_is_deterministic(self):
        rng = np.random.default_rng(9)
        x = _rand_complex(rng, (5, 8))
        d1, d2 = numerics.svd(x), numerics.svd(x.copy())
        np.testing.assert_array_equal(d1.U, d2.U)
        np.testing.assert_array_equal(d1.V, d2.V)
        # first nonzero entry of each left singular vector is real >= 0
        for j in range(d1.U.shape[1]):
            col = d1.U[:, j]
            lead = col[np.flatnonzero(np.abs(col) > 1e-12)[0]]
            assert abs(lead.imag) < 1e-12 and lead.real >= 0

    def test_fix_signs_matches_column_loop(self):
        def reference(u, v):
            # the convention as first written, one column at a time
            u, v = u.copy(), v.copy()
            for j in range(u.shape[1]):
                col = u[:, j]
                nz = np.flatnonzero(np.abs(col) > 1e-12 * max(1.0, np.abs(col).max()))
                if nz.size == 0:
                    continue
                phase = col[nz[0]] / abs(col[nz[0]])
                u[:, j] *= phase.conjugate()
                v[:, j] *= phase.conjugate()
            return u, v

        rng = np.random.default_rng(12)
        for m, n, k in [(1, 6, 4), (6, 1, 4), (5, 8, 5), (32, 64, 16), (3, 3, 1)]:
            for _ in range(20):
                u = _rand_complex(rng, (m, k)) * 10.0 ** rng.uniform(-14, 2, k)
                v = _rand_complex(rng, (n, k))
                u[:rng.integers(m + 1), rng.integers(k)] = 0   # leading zeros
                if k > 1:
                    u[:, rng.integers(k)] = 0                  # a zero column
                for got, want in zip(numerics._fix_signs(u, v), reference(u, v)):
                    np.testing.assert_array_equal(got, want)

    def test_truncated_svd_error_is_optimal(self):
        # Frobenius error of the rank-r truncation equals the tail
        # singular values (Eckart-Young)
        rng = np.random.default_rng(10)
        x = _rand_complex(rng, (8, 12))
        s_all = np.linalg.svd(x, compute_uv=False)
        for r in (1, 3, 6):
            dec = numerics.truncated_svd(x, r)
            err = np.linalg.norm(x - (dec.U * dec.S) @ dec.V.conj().T, "fro")
            np.testing.assert_allclose(err, np.linalg.norm(s_all[r:]),
                                       rtol=1e-10)

    def test_truncated_svd_exact_rank_is_lossless(self):
        rng = np.random.default_rng(11)
        x = _rand_complex(rng, (8, 3)) @ _rand_complex(rng, (3, 12))
        dec = numerics.truncated_svd(x, 3)
        np.testing.assert_allclose((dec.U * dec.S) @ dec.V.conj().T, x, atol=1e-10)

    def test_truncated_svd_rank_bounds(self):
        x = np.eye(4)
        with pytest.raises(numerics.RankOutOfRange, match=r"^rank 0 not in \[1, 4\]$"):
            numerics.truncated_svd(x, 0)
        with pytest.raises(numerics.RankOutOfRange, match=r"^rank 5 not in \[1, 4\]$"):
            numerics.truncated_svd(x, 5)

    @pytest.mark.parametrize("shape", [(1, 6), (6, 1), (12, 64), (64, 12), (5, 5)],
                             ids=["one-row", "one-column", "wide", "tall", "square"])
    def test_truncated_svd_is_svd_sliced(self, shape):
        # only the r kept columns get their phase fixed; the bits must be
        # those of the full SVD cut to r (a one-row x is the FMA case)
        rng = np.random.default_rng(13)
        for zero_column in (False, True):
            x = _rand_complex(rng, shape)
            if zero_column:
                x[:, rng.integers(shape[1])] = 0
            full = numerics.svd(x)
            kmax = min(shape)
            for r in sorted({1, (kmax + 1) // 2, kmax}):
                dec = numerics.truncated_svd(x, r)
                np.testing.assert_array_equal(dec.U, full.U[:, :r])
                np.testing.assert_array_equal(dec.S, full.S[:r])
                np.testing.assert_array_equal(dec.V, full.V[:, :r])


def _fresh_python(code: str) -> list[str]:
    """The words a new interpreter prints for ``code``, with the package on its path."""
    path = os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")]))
    done = subprocess.run([sys.executable, "-c", code], env={**os.environ, "PYTHONPATH": path},
                          capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    return done.stdout.split()


class TestScipyBinding:
    def test_import_leaves_scipy_linalg_unloaded(self):
        # scipy.linalg's __init__ loads about 300 modules the package never calls
        assert _fresh_python("import sys, dbpeq, dbpeq.cli\n"
                             "print('scipy.linalg' in sys.modules)") == ["False"]

    @pytest.mark.parametrize("first", ["dbpeq", "scipy.linalg"])
    def test_routines_are_scipys_own(self, first):
        # the very objects scipy.linalg exports, whichever is imported first:
        # that identity is what keeps every bit
        words = _fresh_python(
            f"import {first}\n"
            "from dbpeq import numerics\n"
            "from scipy.linalg import blas, lapack\n"
            "for name, mod in [('dgemm', blas), ('daxpy', blas), ('ddot', blas),\n"
            "                  ('zpotrf', lapack), ('zpotrs', lapack)]:\n"
            "    print(name, getattr(numerics, name) is getattr(mod, name))")
        assert words == ["dgemm", "True", "daxpy", "True", "ddot", "True",
                         "zpotrf", "True", "zpotrs", "True"]

    def test_missing_extension_names_the_path(self):
        with pytest.raises(ImportError, match=r"^no compiled _absent in .*scipy.linalg$"):
            numerics._scipy_linalg_module("_absent")
