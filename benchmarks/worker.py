"""One workload in one fresh process: import, warm up, timed rounds, checks.

Started by ``run.py``; not meant to be run by hand. The process imports
dbpeq from ``src/`` of the checkout it lives in, prints ``READY`` once the
import and the warm-up call are done (the parent times process start to
that line as set-up), then, unless ``--setup-only`` is given, repeats the
workload's fixed work in rounds for ``--seconds`` and prints one JSON
line with the round times, unit counts, output checks and, with
``--trace 1``, the per-layer numbers of a traced round.

A *unit* is a realization in e1 and a (trial, SNR, algorithm) cell in e2
and e3. A unit fails on a FAIL row, a NumericsError, a failed output
check, or a tolerance-mode solve that stops at its ``max_sweeps`` cap.
"""

from __future__ import annotations

import argparse
import contextlib
import csv
import functools
import hashlib
import io
import json
import os
import platform
import resource
import statistics
import sys
import time
from fractions import Fraction

import numpy as np

import calibrate
from tracing import SolveProbe, Tracer

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT_DIR = os.path.join(HERE, "out")
GOLDEN_DIR = os.path.join(HERE, "golden")

ALL_ALGORITHMS = "zf,lmmse,bdac,sdr,cdr,bcd,bcd-lrd"
SNR_GRID = (0.0, 5.0, 10.0, 15.0, 20.0)


def import_dbpeq():
    """Import dbpeq from this checkout's ``src/``, never from elsewhere."""
    if not os.path.isfile(os.path.join(SRC, "dbpeq", "__init__.py")):
        raise SystemExit(f"benchmark: no dbpeq sources under {SRC}")
    sys.path.insert(0, SRC)
    import dbpeq
    import dbpeq.cli  # noqa: F401  (the package __init__ does not import it)
    if os.path.dirname(os.path.dirname(os.path.abspath(dbpeq.__file__))) != SRC:
        raise SystemExit(f"benchmark: dbpeq imported from {dbpeq.__file__}, not {SRC}")
    return dbpeq


def load_golden() -> dict:
    with open(os.path.join(GOLDEN_DIR, "golden.json"), encoding="utf-8") as fh:
        return json.load(fh)


class Check:
    """Named pass/fail results of one round's output checks."""

    def __init__(self):
        self.results: list[tuple[str, bool, str]] = []

    def add(self, name: str, ok: bool, detail: str = "") -> bool:
        self.results.append((name, bool(ok), detail))
        return bool(ok)

    @property
    def ok(self) -> bool:
        return all(ok for _, ok, _ in self.results)

    def failures(self) -> list[str]:
        return [f"{n}: {d}" for n, ok, d in self.results if not ok]


class Workload:
    """Fixed work repeated in rounds; subclasses define one workload each.

    A round is a list of pieces run in order; ``combine`` turns their
    outputs into what ``check`` inspects.
    """

    name = ""
    golden_mode = False   # compare with the seed commit's outputs

    def pieces(self) -> list:
        raise NotImplementedError

    def combine(self, outputs: list):
        return outputs

    def run_round(self):
        return self.combine([piece() for piece in self.pieces()])

    def cleanup(self):
        pass


# ---------------------------------------------------------------------------
# e1: criterion 01, library BCD to tol 1e-12 with no fabric
# ---------------------------------------------------------------------------

class E1Converge(Workload):
    name = "e1-converge"
    default_seed = 11
    max_sweeps = 50000
    tol = 1e-12
    gap_limit = 1e-8

    def __init__(self, pkg, seed: int, tiny: bool, probe):
        self.pkg = pkg
        self.seed = seed
        self.realizations = 2 if tiny else 20
        self.cfg = pkg.SystemConfig(M=32, K=4, C=4, N=64, snr_db=10.0,
                                    iot_db=10.0, seed=seed)

    @property
    def units(self) -> int:
        return self.realizations

    def warm_up(self):
        eq = self.pkg.equalizers
        rz = self.pkg.scenario.gen_realization(self.cfg, self.realizations)
        eq.lmmse_centralized(rz.H, self.pkg.scenario.sample_covariance(rz.noise),
                             self.cfg.Es)
        eq.bcd_solve(rz.H_blocks(), rz.noise_blocks(), self.cfg.Es, sweeps=2)

    def pieces(self) -> list:
        return [functools.partial(self._solve, trial) for trial in range(self.realizations)]

    def _solve(self, trial: int):
        """Criterion 01's work on one realization: (gap, sweeps, error)."""
        sc, eq = self.pkg.scenario, self.pkg.equalizers
        try:
            rz = sc.gen_realization(self.cfg, trial)
            w_ref = eq.lmmse_centralized(rz.H, sc.sample_covariance(rz.noise),
                                         self.cfg.Es).W
            res = eq.bcd_solve(rz.H_blocks(), rz.noise_blocks(), self.cfg.Es,
                               tol=self.tol, max_sweeps=self.max_sweeps)
        except self.pkg.numerics.NumericsError as exc:
            return None, None, f"{type(exc).__name__}: {exc}"
        gap = float(np.linalg.norm(res.W - w_ref, "fro") / np.linalg.norm(w_ref, "fro"))
        return gap, res.iterations, None

    def check(self, out) -> tuple[int, Check, dict]:
        chk = Check()
        failed = 0
        for trial, (gap, sweeps, err) in enumerate(out):
            ok = (err is None and gap < self.gap_limit and sweeps < self.max_sweeps)
            failed += not ok
            if not ok:
                chk.add(f"realization {trial}", False,
                        err or f"gap {gap:.3e}, {sweeps} sweeps")
        done = [o for o in out if o[2] is None]
        chk.add("gap to lmmse_centralized < 1e-8, stop before max_sweeps",
                failed == 0,
                f"max gap {max(o[0] for o in done):.3e}, "
                f"sweeps {sum(o[1] for o in done)}" if done else "no solve finished")
        return failed, chk, {"sweeps": sum(o[1] for o in done)}


# ---------------------------------------------------------------------------
# shared by e2 and e3: checks on a bench CSV report
# ---------------------------------------------------------------------------

def parse_csv(text: str) -> list[dict]:
    return list(csv.DictReader(io.StringIO(text)))


def _fraction_field(x: Fraction) -> str:
    # bench._fmt writes an exact per-symbol average as repr(float(x))
    return repr(float(x))


def expected_entries(pkg, row: dict, n_coh: int):
    """Closed-form per-symbol entries of a fixed-schedule CSV row, or None."""
    net = pkg.dbpnet
    m, c, k, n = (int(row[f]) for f in ("M", "C", "K", "N"))
    name = row["algorithm"]
    t = int(row["T"]) if row["T"] else None
    if name in ("lmmse", "zf"):
        return net.formula_centralized(m, k, n, n_coh)
    if name in ("sdr", "cdr"):
        return net.formula_dr(c, k, n, n_coh)
    if name == "bdac":
        # star schedule: K x K Gram partial up and total down per DU, then
        # one K x n_coh symbol partial per DU
        return Fraction(4 * c * k * k, n_coh) + 2 * c * k
    if row["r"] and t is not None:
        sizes = pkg.scenario.balanced_partition(m, c).sizes
        return net.formula_bcd_lrd_ledger(sizes, k, n, t, int(row["r"]), n_coh)
    if t is not None:
        return net.formula_bcd(c, k, n, t, n_coh)
    return None


def property_checks(pkg, rows: list[dict], labels, snrs, n_coh: int,
                    trials: int, chk: Check) -> int:
    """Checks that hold for any seed; returns the number of failed units."""
    seen = {(r["algorithm"], float(r["snr_db"])) for r in rows}
    want = {(a, s) for a in labels for s in snrs}
    chk.add("one row per (algorithm, SNR)", seen == want and len(rows) == len(want),
            f"{len(rows)} rows")
    failed = 0
    bad = 0
    for r in rows:
        where = f"{r['algorithm']}@{r['snr_db']}"
        if r["ser"] == "FAIL":
            failed += trials
            continue
        ser, mse = float(r["ser"]), float(r["mse"])
        if not (0.0 <= ser <= 1.0 and 0.0 < mse < float("inf")):
            failed += trials
            bad += 1
            chk.add(f"{where} ser/mse in range", False, f"ser {ser}, mse {mse}")
            continue
        want_bw = expected_entries(pkg, r, n_coh)
        if want_bw is not None and r["avg_entries_per_symbol"] != _fraction_field(want_bw):
            failed += trials
            bad += 1
            chk.add(f"{where} entries equal closed form", False,
                    f"{r['avg_entries_per_symbol']} != {float(want_bw)!r}")
    chk.add("ser, mse in range; fixed-schedule entries equal closed forms",
            bad == 0, f"{bad} rows wrong")
    return failed


# ---------------------------------------------------------------------------
# e2: criterion 08's sweep, with bcd-conv (tol 1e-8 on the daisy fabric)
# ---------------------------------------------------------------------------

class E2DeskConv(Workload):
    name = "e2-desk-conv"
    default_seed = 2026
    default_trials = 5
    conv_label = "bcd-conv"
    # a tolerance-mode stop may move by one sweep (the library and protocol
    # stopping tests differ); one sweep moves the filter by about tol
    ser_errors_tol = 2
    mse_rel_tol = 1e-6

    def __init__(self, pkg, seed: int, tiny: bool, probe):
        self.pkg = pkg
        self.seed = seed
        self.probe = probe
        b = pkg.bench
        self.trials = 1 if tiny else self.default_trials
        self.snrs = (0.0,) if tiny else SNR_GRID
        self.cfg = pkg.SystemConfig(M=32, K=4, C=4, N=64, snr_db=10.0, iot_db=10.0,
                                    seed=seed, n_coh=480, n_interf=10)
        self.algos = (
            b.AlgoSpec("lmmse"), b.AlgoSpec("zf"), b.AlgoSpec("bdac"),
            b.AlgoSpec("sdr"), b.AlgoSpec("cdr"),
            b.AlgoSpec("bcd", tol=1e-8, label=self.conv_label),
            b.AlgoSpec("bcd", T=1, label="bcd1"),
        )
        self.golden_mode = (seed == self.default_seed and not tiny)

    @property
    def units(self) -> int:
        return self.trials * len(self.snrs) * len(self.algos)

    def warm_up(self):
        b = self.pkg.bench
        algos = tuple(b.AlgoSpec(a.name, T=a.T, tol=None if a.tol is None else 1e-2,
                                 label=a.label) for a in self.algos)
        b.run_sweep(b.RunSpec(cfg=self.cfg.with_updates(seed=self.seed + 1),
                              algorithms=algos, snr_grid=(10.0,), trials=1))

    def pieces(self) -> list:
        # One run_sweep per SNR: every cell depends only on its (SNR, trial),
        # so the merged rows are the single sweep's rows, and the machine
        # speed is sampled between the SNRs.
        return [functools.partial(self._sweep, snr) for snr in self.snrs]

    def _sweep(self, snr: float) -> list:
        b = self.pkg.bench
        return b.run_sweep(b.RunSpec(cfg=self.cfg, algorithms=self.algos,
                                     snr_grid=(snr,), trials=self.trials,
                                     workers=1)).rows

    def combine(self, outputs: list):
        rows = sorted((r for rows in outputs for r in rows),
                      key=lambda r: (r["algorithm"], r["snr_db"]))
        return (self.pkg.bench.SerReport(rows=rows).to_csv(),
                list(self.probe.tol_cells))

    def one_sweep_entries(self) -> float:
        c = self.cfg
        return float(Fraction(2 * c.C * c.K * (c.N + c.K), c.n_coh))

    def conv_figures(self, tol_cells):
        """Per SNR: the exact mean entries over trials and trial 0's figure.

        The SNRs run one after another and bench.run_sweep runs trials in
        order, so the k-th tolerance-mode solve is SNR index
        k // trials at trial k % trials.
        """
        if len(tol_cells) != self.trials * len(self.snrs):
            return None
        out = {}
        for i, snr in enumerate(self.snrs):
            per_trial = [tol_cells[i * self.trials + t][2] for t in range(self.trials)]
            out[snr] = {"mean": sum(per_trial, Fraction(0)) / len(per_trial),
                        "trial0": per_trial[0]}
        return out

    def check(self, out) -> tuple[int, Check, dict]:
        text, tol_cells = out
        rows = parse_csv(text)
        chk = Check()
        failed = property_checks(self.pkg, rows, [a.label for a in self.algos],
                                 self.snrs, self.cfg.n_coh, self.trials, chk)
        capped = sum(1 for c in tol_cells if c[1])
        failed += capped
        figures = self.conv_figures(tol_cells)
        chk.add("one tolerance-mode solve per bcd-conv cell", figures is not None,
                f"{len(tol_cells)} solves seen")
        conv_rows = {float(r["snr_db"]): r for r in rows
                     if r["algorithm"] == self.conv_label and r["ser"] != "FAIL"}
        if figures is not None:
            bad = [snr for snr, r in conv_rows.items()
                   if r["avg_entries_per_symbol"] not in
                   (_fraction_field(figures[snr]["trial0"]),
                    _fraction_field(figures[snr]["mean"]))]
            chk.add("bcd-conv entries are the trial-0 ledger or the exact mean",
                    not bad, f"mismatch at SNR {bad}" if bad else "")
        if self.golden_mode:
            failed += self._golden(rows, chk)
        diag = {
            "tol_solves_capped": capped,
            "tol_sweeps": [c[0] for c in tol_cells],
            "bcd_conv_entries_per_symbol": {
                str(snr): {"exact_mean_over_trials": float(f["mean"]),
                           "csv": float(conv_rows[snr]["avg_entries_per_symbol"])
                           if snr in conv_rows else None,
                           "trial0": float(f["trial0"])}
                for snr, f in (figures or {}).items()},
        }
        return failed, chk, diag

    def _golden(self, rows, chk) -> int:
        golden = load_golden()[self.name]
        with open(os.path.join(GOLDEN_DIR, golden["csv"]), encoding="utf-8") as fh:
            ref = {(r["algorithm"], r["snr_db"]): r for r in parse_csv(fh.read())}
        failed = 0
        symbols = self.trials * self.cfg.K * self.cfg.n_coh
        sweep = self.one_sweep_entries()
        for r in rows:
            g = ref.get((r["algorithm"], r["snr_db"]))
            where = f"{r['algorithm']}@{r['snr_db']}"
            if g is None:
                ok, detail = False, "row not in reference"
            elif r["algorithm"] != self.conv_label:
                ok = r == g
                detail = "" if ok else f"{r} != {g}"
            elif "FAIL" in (r["ser"], g["ser"]):
                ok, detail = r["ser"] == g["ser"], "FAIL row differs"
            else:
                bw = float(r["avg_entries_per_symbol"])
                refs = (float(g["avg_entries_per_symbol"]),
                        golden["bcd_conv_mean_entries"][r["snr_db"]])
                ok = (abs(float(r["ser"]) - float(g["ser"])) * symbols
                      <= self.ser_errors_tol + 1e-9
                      and abs(float(r["mse"]) - float(g["mse"]))
                      <= self.mse_rel_tol * float(g["mse"])
                      and min(abs(bw - x) for x in refs) <= sweep + 1e-9)
                detail = "" if ok else f"{r} vs {g}"
            if not ok:
                failed += self.trials
                chk.add(f"{where} matches seed-commit reference", False, detail)
        chk.add("rows match the seed-commit reference (bcd-conv within "
                f"{self.ser_errors_tol} symbol errors, mse rel {self.mse_rel_tol}, "
                "one sweep of entries)", failed == 0, "")
        return failed


# ---------------------------------------------------------------------------
# e3: the CLI desk sweep with all seven algorithms
# ---------------------------------------------------------------------------

class E3CliSweep(Workload):
    name = "e3-cli-sweep"
    default_seed = 0
    default_trials = 50

    def __init__(self, pkg, seed: int, tiny: bool, probe):
        self.pkg = pkg
        self.seed = seed
        self.trials = 2 if tiny else self.default_trials
        self.golden_mode = (seed == self.default_seed and not tiny)
        os.makedirs(OUT_DIR, exist_ok=True)
        self.out_path = os.path.join(OUT_DIR, f"{self.name}.{os.getpid()}.csv")

    @property
    def units(self) -> int:
        return self.trials * len(SNR_GRID) * len(ALL_ALGORITHMS.split(","))

    def argv(self, trials: int, snr: str = None) -> list[str]:
        argv = ["run", "--algorithms", ALL_ALGORITHMS, "--trials", str(trials),
                "--seed", str(self.seed), "--workers", "1", "--out", self.out_path]
        return argv + (["--snr", snr] if snr else [])

    def _cli(self, argv) -> int:
        with contextlib.redirect_stderr(io.StringIO()):
            return self.pkg.cli.main(argv)

    def warm_up(self):
        self._cli(self.argv(1, snr="10"))

    def pieces(self) -> list:
        return [self._sweep]

    def _sweep(self):
        rc = self._cli(self.argv(self.trials))
        with open(self.out_path, encoding="utf-8", newline="") as fh:
            return rc, fh.read()

    def combine(self, outputs: list):
        return outputs[0]

    def check(self, out) -> tuple[int, Check, dict]:
        rc, text = out
        chk = Check()
        chk.add("cli.main exit code 0", rc == 0, f"exit {rc}")
        rows = parse_csv(text)
        failed = property_checks(self.pkg, rows, ALL_ALGORITHMS.split(","),
                                 SNR_GRID, 480, self.trials, chk)
        digest = hashlib.sha256(text.encode("utf-8")).hexdigest()
        if self.golden_mode:
            want = load_golden()[self.name]["sha256"]
            if not chk.add("CSV byte-identical to the seed-commit CSV",
                           digest == want, f"sha256 {digest}"):
                failed = self.units
        if rc != 0:
            failed = self.units
        return failed, chk, {"csv_sha256": digest}

    def cleanup(self):
        with contextlib.suppress(FileNotFoundError):
            os.remove(self.out_path)


WORKLOADS = {w.name: w for w in (E1Converge, E2DeskConv, E3CliSweep)}


# ---------------------------------------------------------------------------
# rounds, tracing and the per-layer metrics
# ---------------------------------------------------------------------------

def _rounds(budget: float, on_round, min_rounds: int = 1):
    """Call ``on_round`` until another round would overrun ``budget`` seconds."""
    times = []
    start = time.perf_counter()
    while True:
        times.append(on_round())
        work_done = time.perf_counter() - start
        if len(times) >= min_rounds and work_done + statistics.median(times) > budget:
            return times


def per_layer(snap: dict, untraced_wall: float, cells: int, fail_cells: int,
              diag: dict) -> dict:
    """The per-layer metrics of one traced round, as (value, unit) pairs.

    ``untraced_wall`` is the untraced rounds' median rescaled to the machine
    speed measured around the traced round, so that ``trace.overhead_s``
    compares the two at one speed.
    """
    stats, hpd_sizes, probe = snap["stats"], snap["hpd_sizes"], snap["probe"]
    traced_wall = snap["wall"]

    def calls(span):
        return stats.get(span, [0, 0.0, 0.0])[0]

    def self_s(span):
        return stats.get(span, [0, 0.0, 0.0])[2]

    def mean_us(span):
        n, incl, _ = stats.get(span, [0, 0.0, 0.0])
        return incl / n * 1e6 if n else 0.0

    def hpd_us(n):
        c, t = hpd_sizes.get(n, [0, 0.0])
        return t / c * 1e6 if c else 0.0

    conv = diag.get("bcd_conv_entries_per_symbol") or {}
    conv_mean = [v["exact_mean_over_trials"] for v in conv.values()]
    conv_csv = [v["csv"] for v in conv.values() if v["csv"] is not None]
    tol_solves = probe["tol_solves"]
    return {
        "equalizers.bcd_steps": (calls("equalizers.bcd_step"), "count"),
        "equalizers.bcd_step_s": (self_s("equalizers.bcd_step"), "s"),
        "equalizers.bcd_step_us": (mean_us("equalizers.bcd_step"), "us"),
        "equalizers.bcd_sweeps": (probe["sweeps"], "count"),
        "equalizers.bcd_flops": (8 * probe["flop_macs"], "flop_computed"),
        "equalizers.converged_frac": (
            (tol_solves - probe["tol_capped"]) / tol_solves if tol_solves else 1.0,
            "ratio"),
        "equalizers.tol_solves": (tol_solves, "count"),
        "equalizers.other_s": (self_s("equalizers.other"), "s"),
        "equalizers.other_calls": (calls("equalizers.other"), "count"),
        "dbpnet.send_calls": (calls("dbpnet.send"), "count"),
        "dbpnet.send_s": (self_s("dbpnet.send"), "s"),
        "dbpnet.send_us": (mean_us("dbpnet.send"), "us"),
        "dbpnet.local_scopes": (snap["local_scopes"], "count"),
        "dbpnet.protocol_self_s": (self_s("dbpnet.protocol"), "s"),
        "dbpnet.protocol_calls": (calls("dbpnet.protocol"), "count"),
        "dbpnet.entries": (snap["entries"], "entries"),
        "dbpnet.tol_entries_mean": (
            sum(conv_mean) / len(conv_mean) if conv_mean else 0.0, "entries/sym"),
        "dbpnet.tol_entries_csv": (
            sum(conv_csv) / len(conv_csv) if conv_csv else 0.0, "entries/sym"),
        "numerics.hpd_calls": (calls("numerics.hpd"), "count"),
        "numerics.hpd_s": (self_s("numerics.hpd"), "s"),
        "numerics.hpd_us.n4": (hpd_us(4), "us"),
        "numerics.hpd_us.n8": (hpd_us(8), "us"),
        "numerics.hpd_us.n32": (hpd_us(32), "us"),
        "numerics.svd_calls": (calls("numerics.svd"), "count"),
        "numerics.svd_s": (self_s("numerics.svd"), "s"),
        "numerics.ridge_retries": (diag["ridge_retries"], "count"),
        "scenario.gen_s": (self_s("scenario.gen"), "s"),
        "scenario.gen_calls": (calls("scenario.gen"), "count"),
        "scenario.detect_s": (self_s("scenario.detect"), "s"),
        "scenario.detect_calls": (calls("scenario.detect"), "count"),
        "scenario.other_s": (self_s("scenario.other"), "s"),
        "bench.self_s": (self_s("bench.self"), "s"),
        "bench.cells": (cells, "count"),
        "bench.fail_cells": (fail_cells, "count"),
        "cli.self_s": (self_s("cli.self"), "s"),
        "benchmark.self_s": (self_s("benchmark.self"), "s"),
        "trace.wall_s": (traced_wall, "s"),
        "trace.untraced_wall_s": (untraced_wall, "s"),
        "trace.overhead_s": (traced_wall - untraced_wall, "s"),
        "trace.self_sum_s": (sum(s[2] for s in stats.values()), "s"),
    }


def environment() -> dict:
    """Interpreter, library and machine facts recorded with every result."""
    import scipy
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "nproc": os.cpu_count(),
        "nproc_usable": len(os.sched_getaffinity(0)),
        "python": f"{platform.python_implementation()} {platform.python_version()}",
        "numpy": np.__version__, "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "machine": platform.machine(),
    }


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--tiny", action="store_true",
                    help="smallest inputs; property checks only (self-test)")
    ap.add_argument("--setup-only", action="store_true")
    args = ap.parse_args(argv)

    pkg = import_dbpeq()

    probe = SolveProbe()
    probe.install(pkg)
    work = WORKLOADS[args.workload](pkg, args.seed, args.tiny, probe)
    work.warm_up()
    print("READY", flush=True)
    if args.setup_only:
        work.cleanup()
        return 0

    rounds = []          # per round: failed units, checks, diagnostics

    calib = calibrate.Calibrator()

    def checked_round(tracer=None):
        """Run one round, then check it.

        Every piece runs between two calibration loops (see calibrate.py).
        Untraced rounds return (scaled seconds, raw seconds, None, ...);
        traced rounds return (raw seconds, raw seconds, snapshot, ...), with
        the loops' time taken out of the root span and the round's scaled
        time kept in the snapshot.
        """
        probe.reset()
        ridge0 = pkg.numerics.ridge_retry_count()
        outputs, raw, norm, snap = [], 0.0, 0.0, None
        if tracer is not None:
            tracer.start()
            before = excluded = calib.burst()
            for piece in work.pieces():
                t0 = time.perf_counter()
                outputs.append(piece())
                dt = time.perf_counter() - t0
                after = calib.burst()
                excluded += after
                norm += dt * calibrate.REFERENCE_S / (0.5 * (before + after))
                before = after
            snap = dict(tracer.snapshot(excluded), probe=probe.counts())
            raw = snap["wall"]
            snap["scaled"] = norm
        else:
            for piece in work.pieces():
                out, dt, scaled = calib.timed(piece)
                outputs.append(out)
                raw += dt
                norm += scaled
        failed, chk, diag = work.check(work.combine(outputs))
        diag["ridge_retries"] = pkg.numerics.ridge_retry_count() - ridge0
        rounds.append({"failed_units": failed, "checks_ok": chk.ok,
                       "failures": chk.failures(), "raw_s": raw, "norm_s": norm,
                       "checks_run": [n for n, _, _ in chk.results], "diag": diag})
        return norm, raw, snap, failed, diag

    budget = args.seconds / 2 if args.trace else args.seconds
    times = _rounds(budget, lambda: checked_round()[0])
    result = {
        "workload": work.name, "seed": args.seed, "tiny": args.tiny,
        "env": environment(),
        "checks": "golden+property" if work.golden_mode else "property",
        "units_per_round": work.units, "round_s": times,
        "round_raw_s": [r["raw_s"] for r in rounds],
    }

    if args.trace:
        tracer = Tracer()
        tracer.install(pkg)
        traced = []

        def traced_round():
            traced.append(checked_round(tracer))
            return traced[-1][0]

        walls = _rounds(budget, traced_round)
        tracer.uninstall()
        _, _, snap, failed, diag = sorted(traced, key=lambda t: t[0])[len(traced) // 2]
        cells = work.units if isinstance(work, (E2DeskConv, E3CliSweep)) else 0
        # the untraced work at the speed the machine ran the traced round
        untraced = statistics.median(times) * snap["wall"] / snap["scaled"]
        metrics = per_layer(snap, untraced, cells, failed if cells else 0, diag)
        result["per_layer"] = {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}
        result["spans"] = {k: {"calls": s[0], "incl_s": s[1], "self_s": s[2]}
                           for k, s in sorted(snap["stats"].items())}
        result["hpd_sizes"] = {str(n): {"calls": c, "incl_s": t}
                               for n, (c, t) in sorted(snap["hpd_sizes"].items())}
        result["traced_round_s"] = walls
        result["missing_names"] = tracer.missing + probe.missing

    probe.uninstall()
    result["rounds"] = rounds
    result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    work.cleanup()
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
