"""Monte-Carlo harness.

Sweeps an SNR grid, runs every requested algorithm on shared channel
realizations and symbol blocks, and reports SER, empirical MSE, and the
exact per-symbol bandwidth of each algorithm. Trials parallelize over a
process pool with per-trial RNG substreams; aggregation order is fixed,
so the CSV is byte-identical for any worker count. Every cell of the sweep,
``dbpeq bandwidth`` and ``--dump-messages`` comes from :func:`trial_cells`.
"""

from __future__ import annotations

import csv
import io
import time
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Optional

import numpy as np

from . import dbpnet
from .equalizers import bcd_limit
from .scenario import (
    ConfigError,
    SystemConfig,
    draw_channel,
    draw_symbols,
    scale_channel,
    scale_symbols,
    slice_symbols,
    whole_number,
)

CSV_FIELDS = ("algorithm", "snr_db", "iot_db", "M", "C", "K", "N", "T", "r",
              "ser", "mse", "avg_entries_per_symbol", "wallclock_s")


class InsufficientErrors(ValueError):
    """Too few observed symbol errors for a meaningful SER comparison."""


@dataclass(frozen=True)
class AlgoSpec:
    """One algorithm to benchmark, with its iteration/rank parameters.

    Only the settings its ``dbpnet.ALGORITHMS`` row names in ``params``
    may be set. A row that takes ``T`` checks ``T`` and ``tol`` with
    :func:`dbpeq.equalizers.bcd_limit` and, without ``tol``, stores the
    sweep count that rule gives as ``T``; bcd-lrd needs its rank ``r``.
    Invalid, missing or unused values raise ConfigError.
    """

    name: str
    T: Optional[int] = None       # BCD sweep count
    r: Optional[int] = None       # LRD rank
    tol: Optional[float] = None   # BCD convergence tolerance
    label: str = ""

    def __post_init__(self):
        if self.name not in dbpnet.ALGORITHMS:
            raise ConfigError(f"unknown algorithm {self.name!r}; "
                              f"choose from {', '.join(dbpnet.ALGORITHMS)}")
        takes = dbpnet.ALGORITHMS[self.name].params
        unused = [p for p in ("T", "tol", "r") if getattr(self, p) is not None and p not in takes]
        if unused:
            raise ConfigError(f"{self.name} does not take {unused}; it takes {list(takes)}")
        if "T" in takes:  # without tol, the CSV shows the sweep count that ran
            limit = bcd_limit(self.T, self.tol)
            object.__setattr__(self, "T", self.T if self.tol is not None else limit)
        if self.r is not None:
            whole_number("LRD rank r", self.r, 1)
        elif "r" in takes:
            raise ConfigError(f"{self.name} needs an LRD rank r")
        if not self.label:
            object.__setattr__(self, "label", self.name)


@dataclass(frozen=True)
class RunSpec:
    cfg: SystemConfig
    algorithms: tuple[AlgoSpec, ...]
    snr_grid: tuple[float, ...]
    trials: int = 50
    timing: bool = False
    workers: int = 1

    def __post_init__(self):
        whole_number("trials", self.trials, 1)
        whole_number("workers", self.workers, 1)
        if not self.snr_grid:
            raise ConfigError("snr grid must be non-empty")
        if not self.algorithms:
            raise ConfigError("algorithm list must be non-empty")
        for snr in self.snr_grid:  # a non-finite SNR raises here, before any cell runs
            self.cfg.with_updates(snr_db=snr)
        # results are keyed by (label, SNR), so a repeat would overwrite a cell
        for what, values in (("algorithm label", [a.label for a in self.algorithms]),
                             ("SNR", list(self.snr_grid))):
            repeated = [v for i, v in enumerate(values) if v in values[:i]]
            if repeated:
                raise ConfigError(f"{what} {repeated[0]!r} is given twice")


def default_algo(name: str, cfg: SystemConfig, T: Optional[int] = None,
                 r: Optional[int] = None) -> AlgoSpec:
    """The spec of ``name`` with the sweep count and rank (default n_interf) it takes."""
    row = dbpnet.ALGORITHMS.get(name)
    takes = row.params if row else ()
    return AlgoSpec(name, T=T if "T" in takes else None,
                    r=(cfg.n_interf if r is None else r) if "r" in takes else None)


def trial_cells(spec: RunSpec, trial: int, record_log: bool = False):
    """Yield (snr, algo, symbol block, Cell, seconds) of each cell of one trial, pure in
    (spec, trial). The draws do not depend on the SNR, so they are drawn once and scaled
    at each SNR; the seconds are 0.0 unless ``spec.timing`` is set."""
    channel = draw_channel(spec.cfg, trial)
    symbols = draw_symbols(spec.cfg, trial)
    for snr in spec.snr_grid:
        cfg = spec.cfg.with_updates(snr_db=snr)
        realization = scale_channel(cfg, channel)
        block = scale_symbols(cfg, realization, symbols)
        for algo in spec.algorithms:
            t0 = time.perf_counter() if spec.timing else 0.0
            cell = dbpnet.run_cell(algo, realization, block.Y, cfg, record_log=record_log)
            seconds = time.perf_counter() - t0 if spec.timing else 0.0
            yield snr, algo, block, cell, seconds


def _run_trial(spec: RunSpec, trial: int) -> dict:
    """Per (label, snr) of a trial: the error, or (errors, squared-error sum, entries, seconds)."""
    out = {}
    for snr, algo, block, cell, seconds in trial_cells(spec, trial):
        if cell.error:
            out[(algo.label, snr)] = cell.error
            continue
        detected = slice_symbols(cell.shat, spec.cfg.modulation, spec.cfg.Es)
        out[(algo.label, snr)] = (int(np.sum(detected != block.S)),
                                  float(np.sum(np.abs(cell.shat - block.S) ** 2)),
                                  cell.fabric.ledger.per_symbol_average(), seconds)
    return out


@dataclass
class SerReport:
    """Aggregated sweep results, one row per (algorithm, snr)."""

    rows: list[dict] = field(default_factory=list)

    def row(self, label: str, snr: float) -> dict:
        for r in self.rows:
            if r["algorithm"] == label and r["snr_db"] == snr:
                return r
        raise KeyError((label, snr))

    def to_csv(self) -> str:
        buf = io.StringIO()
        writer = csv.writer(buf, lineterminator="\n")
        writer.writerow(CSV_FIELDS)
        for r in self.rows:
            writer.writerow([_fmt(r[k]) for k in CSV_FIELDS])
        return buf.getvalue()


def _fmt(v) -> str:
    if v is None:
        return ""
    if isinstance(v, (Fraction, float)):
        return repr(float(v))
    return str(v)


def run_sweep(spec: RunSpec) -> SerReport:
    """Execute the Monte-Carlo sweep; deterministic for a fixed cfg.seed.

    Writes no file: the caller writes the report's ``to_csv()``.
    """
    workers = min(spec.workers, spec.trials)
    args = ([spec] * spec.trials, range(spec.trials))
    if workers <= 1:
        per_trial = list(map(_run_trial, *args))
    else:
        # imported here: a one-worker process never loads the pool
        from concurrent.futures import ProcessPoolExecutor

        # Executor.map yields in submission order, so trial order is fixed
        with ProcessPoolExecutor(max_workers=workers) as pool:
            per_trial = list(pool.map(_run_trial, *args))

    report = SerReport()
    cfg = spec.cfg
    symbols = spec.trials * cfg.K * cfg.n_coh
    for algo in spec.algorithms:
        for snr in spec.snr_grid:
            cells = [res[(algo.label, snr)] for res in per_trial]
            row = {
                "algorithm": algo.label, "snr_db": snr, "iot_db": cfg.iot_db,
                "M": cfg.M, "C": cfg.C, "K": cfg.K, "N": cfg.N,
                "T": algo.T, "r": algo.r,
            }
            failed = [(t, c) for t, c in enumerate(cells) if isinstance(c, str)]
            if failed:  # ``error``, not a CSV field, names the first failed trial
                trial, reason = failed[0]
                row.update(ser="FAIL", mse="FAIL",
                           avg_entries_per_symbol=None, wallclock_s=0.0,
                           errors=None, symbols=None,
                           error=f"{reason} (trial {trial}; {len(failed)} of "
                                 f"{spec.trials} trials failed)")
            else:  # summed in trial order, so the bytes do not depend on the workers
                errors, se_sums, entries, seconds = zip(*cells)
                row.update(ser=sum(errors) / symbols, mse=sum(se_sums) / symbols,
                           avg_entries_per_symbol=sum(entries, Fraction(0)) / spec.trials,
                           wallclock_s=sum(seconds), errors=sum(errors), symbols=symbols)
            report.rows.append(row)
    report.rows.sort(key=lambda r: (r["algorithm"], r["snr_db"]))
    return report


@dataclass(frozen=True)
class OrderingVerdict:
    alg_a: str
    alg_b: str
    points: tuple[dict, ...]       # per-SNR comparison records
    qualified: int                 # points with enough observed errors
    a_not_worse: int               # qualified points where ser(A) <= ser(B)
    verdict: str                   # "better_or_equal" | "worse" | "equal"


def paired_ordering_test(report: SerReport, alg_a: str, alg_b: str,
                         min_errors: int = 100, threshold: float = 0.8
                         ) -> OrderingVerdict:
    """Compare ser(A) against ser(B) across the shared SNR grid.

    A point qualifies when at least ``min_errors`` symbol errors were
    observed in the worse of the two algorithms; the aggregate verdict is
    "better_or_equal" when A <= B at >= ``threshold`` of qualified points.
    """
    snrs = sorted({r["snr_db"] for r in report.rows if r["algorithm"] == alg_a})
    if not snrs:
        raise KeyError(f"algorithm {alg_a!r} not present")
    points = []
    qualified = 0
    a_not_worse = 0
    for snr in snrs:
        ra = report.row(alg_a, snr)
        rb = report.row(alg_b, snr)
        if ra["ser"] == "FAIL" or rb["ser"] == "FAIL":
            points.append({"snr_db": snr, "qualified": False, "fail": True})
            continue
        ok = max(ra["errors"], rb["errors"]) >= min_errors
        rec = {"snr_db": snr, "ser_a": ra["ser"], "ser_b": rb["ser"],
               "errors_a": ra["errors"], "errors_b": rb["errors"],
               "qualified": ok, "fail": False}
        points.append(rec)
        if ok:
            qualified += 1
            if ra["ser"] <= rb["ser"]:
                a_not_worse += 1
    if alg_a == alg_b:
        verdict = "equal"
    elif qualified == 0:
        raise InsufficientErrors(
            f"no grid point has >= {min_errors} errors for {alg_a} vs {alg_b}")
    elif a_not_worse >= threshold * qualified:
        verdict = "better_or_equal"
    else:
        verdict = "worse"
    return OrderingVerdict(alg_a=alg_a, alg_b=alg_b, points=tuple(points),
                           qualified=qualified, a_not_worse=a_not_worse,
                           verdict=verdict)
