"""Observers that wrap public dbpeq functions from outside the package.

Two observers exist:

* :class:`SolveProbe` wraps only the two BCD solvers, with no clock. It
  records each solve's sweep count, whether a tolerance-mode solve hit
  its ``max_sweeps`` cap, and the exact ledger of each daisy-chain solve.
  Untraced runs install it too, because the failure count and the
  tolerance-mode bandwidth check need those facts and the bench harness
  does not report them.
* :class:`Tracer` records a span around every wrapped public function of
  ``scenario``, ``numerics``, ``equalizers``, ``dbpnet``, ``bench`` and
  ``cli``. Spans are aggregated as they close (count, inclusive time and
  self time per span name) instead of being kept one by one, because a
  converging run makes millions of block steps and sends.

Self time is a span's duration minus the time covered by the spans it
encloses; the root span is the benchmark's own code, so the self times
of all spans add up to the traced round's wall time exactly.

A name is patched in every dbpeq module that binds it (``from x import y``
makes a second binding), and restored on :meth:`uninstall`.
"""

from __future__ import annotations

import copy
import functools
import inspect
import sys
import time
from fractions import Fraction

# Span names, grouped by the layer they are charged to.
SPANS = {
    "scenario": {
        "gen": ("gen_realization", "gen_symbol_block"),
        "detect": ("slice_symbols",),
        "other": ("sample_covariance", "balanced_partition", "derive_powers",
                  "constellation", "modulate"),
    },
    "numerics": {
        "hpd": ("hpd_solve", "hpd_factor", "hpd_factor_solve"),
        "svd": ("svd", "truncated_svd"),
    },
    "equalizers": {
        "bcd_step": ("bcd_sweep_step",),
        "other": ("lmmse_centralized", "zf_centralized", "local_compression",
                  "bdac_mmse", "sdr_mmse", "cdr_mmse", "compressed_estimate",
                  "mse_matrix", "objective_sample", "objective_from_samples",
                  "objective_gradient_block", "bcd_block_gram",
                  "bcd_block_update", "BcdBlockFactor", "bdac_state",
                  "bcd_init_bdac", "bcd_solve", "bcd_block_update_raw",
                  "lrd_auto_rank", "lrd_sequential", "scaled_samples"),
    },
    "dbpnet": {
        "protocol": ("make_fabric", "replay_totals", "run_sdr_star",
                     "run_cdr_star", "run_bdac", "accumulate_symbols",
                     "run_lrd_daisy", "run_bcd_daisy", "run_centralized",
                     "formula_centralized", "formula_dr", "formula_bcd",
                     "formula_lrd_ledger", "formula_bcd_lrd_ledger",
                     "formula_bcd_lrd_aggregate"),
    },
    "bench": {
        "self": ("run_sweep", "default_algo", "paired_ordering_test"),
    },
    "cli": {
        "self": ("main",),
    },
}

# Numerics functions call each other (hpd_solve -> hpd_factor); only the
# bindings in the calling modules are patched, so one outside call makes
# one span.
_CALLER_BINDINGS_ONLY = ("numerics",)


def _bindings(modules, original):
    """Every (module, attribute) in ``modules`` bound to ``original``."""
    for mod in modules:
        for attr, value in list(vars(mod).items()):
            if value is original:
                yield mod, attr


def _bcd_step_macs(k: int, m: int, n: int) -> int:
    """Complex multiply-adds of one bcd_sweep_step on an m-row block.

    Four K x m x {K, n} products remove and re-add the block's stale
    contribution, two form the right-hand side, and the two triangular
    solves with an m x m Cholesky factor cost m*m*K.
    """
    return 3 * k * k * m + 3 * k * m * n + m * m * k


class _Patcher:
    def __init__(self):
        self._patches: list[tuple[object, str, object]] = []

    def _set(self, owner, attr, value):
        self._patches.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def patch_everywhere(self, modules, original, wrapper, skip=()):
        for mod, attr in _bindings(modules, original):
            if mod not in skip:
                self._set(mod, attr, wrapper)

    def uninstall(self):
        while self._patches:
            owner, attr, value = self._patches.pop()
            setattr(owner, attr, value)


class SolveProbe(_Patcher):
    """Sweep counts and cap hits of every BCD solve, with no timing."""

    def __init__(self):
        super().__init__()
        # wrapped names that the package no longer defines
        self.missing: list[str] = []
        self.reset()

    def reset(self):
        self.sweeps = 0
        self.tol_solves = 0
        self.tol_capped = 0
        self.flop_macs = 0
        # (sweeps, capped, exact per-symbol entries) of each tolerance-mode
        # daisy-chain solve, in call order
        self.tol_cells: list[tuple[int, bool, Fraction]] = []

    def install(self, pkg):
        mods = _package_modules(pkg)
        for module, name, wrap in ((pkg.equalizers, "bcd_solve", self._wrap_library),
                                   (pkg.dbpnet, "run_bcd_daisy", self._wrap_protocol)):
            original = getattr(module, name, None)
            if original is None:
                self.missing.append(f"{module.__name__}.{name}")
            else:
                self.patch_everywhere(mods, original, wrap(original))

    def counts(self) -> dict:
        return {"sweeps": self.sweeps, "flop_macs": self.flop_macs,
                "tol_solves": self.tol_solves, "tol_capped": self.tol_capped}

    def _record(self, iterations, sweeps, tol, max_sweeps, macs_per_sweep):
        self.sweeps += iterations
        self.flop_macs += iterations * macs_per_sweep
        tol_mode = tol is not None and sweeps is None
        capped = tol_mode and iterations >= max_sweeps
        if tol_mode:
            self.tol_solves += 1
            self.tol_capped += capped
        return tol_mode, capped

    def _wrap_library(self, fn):
        sig = inspect.signature(fn)

        @functools.wraps(fn)
        def bcd_solve(*args, **kwargs):
            res = fn(*args, **kwargs)
            a = sig.bind(*args, **kwargs)
            a.apply_defaults()
            p = a.arguments
            h_blocks = p["h_blocks"]
            n = (p["sample_blocks"][0].shape[1] if p["sample_blocks"] is not None
                 else p["noise_blocks"][0].shape[1])
            k = h_blocks[0].shape[1]
            macs = sum(_bcd_step_macs(k, hc.shape[0], n) for hc in h_blocks)
            self._record(res.iterations, p["sweeps"], p["tol"], p["max_sweeps"], macs)
            return res
        return bcd_solve

    def _wrap_protocol(self, fn):
        sig = inspect.signature(fn)

        @functools.wraps(fn)
        def run_bcd_daisy(*args, **kwargs):
            out = fn(*args, **kwargs)
            a = sig.bind(*args, **kwargs)
            a.apply_defaults()
            p = a.arguments
            fabric = p["fabric"]
            k = out[0].W.shape[0]
            macs = sum(_bcd_step_macs(k, du.H.shape[0], du.cache["S"].shape[1])
                       for du in fabric.dus.values())
            # run_bcd_daisy ignores ``sweeps`` once ``tol`` is given
            tol = p["tol"]
            tol_mode, capped = self._record(out[0].iterations,
                                            None if tol is not None else p["sweeps"],
                                            tol, p["max_sweeps"], macs)
            if tol_mode:
                self.tol_cells.append((out[0].iterations, capped,
                                       fabric.ledger.per_symbol_average()))
            return out
        return run_bcd_daisy


def _package_modules(pkg):
    return [m for name, m in sorted(sys.modules.items())
            if m is not None and (name == pkg.__name__
                                  or name.startswith(pkg.__name__ + "."))]


class Tracer(_Patcher):
    """Aggregated spans around the public functions of every dbpeq layer."""

    def __init__(self):
        super().__init__()
        # span name -> [calls, inclusive seconds, self seconds]
        self.stats: dict[str, list] = {}
        # hpd size -> [calls, inclusive seconds]
        self.hpd_sizes: dict[int, list] = {}
        self.local_scopes = 0
        self.ledgers: list = []
        # wrapped names that the package no longer defines
        self.missing: list[str] = []
        self._stack = [0.0]
        self._t0 = 0.0

    def start(self):
        """Zero every statistic and open the root span of a traced round.

        Statistics are zeroed in place, because installed wrappers hold
        references to them; :meth:`snapshot` closes the root span.
        """
        for stat in self.stats.values():
            stat[0], stat[1], stat[2] = 0, 0.0, 0.0
        self.stats.pop("benchmark.self", None)
        for bucket in self.hpd_sizes.values():
            bucket[0], bucket[1] = 0, 0.0
        self.local_scopes = 0
        self.ledgers.clear()
        self._stack[:] = [0.0]
        self._t0 = time.perf_counter()

    def install(self, pkg):
        mods = _package_modules(pkg)
        for layer, groups in SPANS.items():
            module = getattr(pkg, layer)
            skip = (module,) if layer in _CALLER_BINDINGS_ONLY else ()
            for group, names in groups.items():
                span = f"{layer}.{group}"
                for name in names:
                    original = getattr(module, name, None)
                    if original is None:
                        self.missing.append(f"{layer}.{name}")
                        continue
                    if span == "numerics.hpd":
                        # hpd_factor_solve takes the factor tuple, the others the matrix
                        wrapper = self._span(original, span, size_of=(
                            (lambda a: a[0][0].shape[0]) if name == "hpd_factor_solve"
                            else (lambda a: a[0].shape[0])))
                    elif name == "make_fabric":
                        wrapper = self._span(original, span, on_result=self._keep_ledger)
                    else:
                        wrapper = self._span(original, span)
                    self.patch_everywhere(mods, original, wrapper, skip=skip)
        fabric_cls = pkg.dbpnet.Fabric
        self._set(fabric_cls, "send", self._span(fabric_cls.send, "dbpnet.send"))
        original_local = fabric_cls.local

        @functools.wraps(original_local)
        def local(fabric, c):
            self.local_scopes += 1
            return original_local(fabric, c)
        self._set(fabric_cls, "local", local)

    def _span(self, fn, span, on_result=None, size_of=None):
        """Wrap ``fn`` in a span; ``size_of(args)`` also buckets it by size."""
        stat = self.stats.setdefault(span, [0, 0.0, 0.0])
        sizes = self.hpd_sizes
        stack = self._stack
        clock = time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            stack.append(0.0)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                dur = clock() - t0
                stat[0] += 1
                stat[1] += dur
                stat[2] += dur - stack.pop()
                stack[-1] += dur
                if size_of is not None:
                    bucket = sizes.setdefault(size_of(args), [0, 0.0])
                    bucket[0] += 1
                    bucket[1] += dur
            if on_result is not None:
                on_result(result)
            return result
        return wrapper

    def snapshot(self, excluded: float = 0.0) -> dict:
        """Close the root span and copy out this round's statistics.

        ``excluded`` seconds of the benchmark's own work outside any span
        (calibration loops) are left out of the root span.
        """
        wall = time.perf_counter() - self._t0 - excluded
        self.stats["benchmark.self"] = [1, wall, wall - self._stack[0]]
        return {"wall": wall, "stats": copy.deepcopy(self.stats),
                "hpd_sizes": copy.deepcopy(self.hpd_sizes),
                "local_scopes": self.local_scopes,
                "entries": sum(ledger.total for ledger in self.ledgers)}

    def _keep_ledger(self, fabric):
        self.ledgers.append(fabric.ledger)
