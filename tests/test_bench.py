"""Monte-Carlo harness: determinism, failure policy, ordering test."""

import concurrent.futures
from collections import defaultdict
from fractions import Fraction

import numpy as np
import pytest

from dbpeq import bench, dbpnet, scenario
from dbpeq.bench import AlgoSpec, InsufficientErrors, RunSpec, SerReport
from dbpeq.scenario import ConfigError, SystemConfig


def _cfg(**kw):
    base = dict(M=16, K=4, C=4, N=64, iot_db=10.0, n_coh=48, seed=3)
    base.update(kw)
    return SystemConfig(**base)


def _spec(**kw):
    base = dict(
        cfg=_cfg(),
        algorithms=(AlgoSpec("lmmse"), AlgoSpec("sdr"),
                    AlgoSpec("bcd", T=2)),
        snr_grid=(0.0, 10.0),
        trials=4,
    )
    base.update(kw)
    return RunSpec(**base)


class TestSpecs:
    def test_algospec_label_defaults_to_name(self):
        assert AlgoSpec("sdr").label == "sdr"
        assert AlgoSpec("bcd", T=1, label="bcd1").label == "bcd1"

    def test_algospec_rejects_unknown(self):
        with pytest.raises(ValueError):
            AlgoSpec("mrc")

    @pytest.mark.parametrize("kw", [
        dict(T=-1), dict(tol=0.0), dict(tol=-1.0), dict(r=0),
        dict(T=2, tol=1e-3), dict(),
    ])
    def test_algospec_rejects_bad_bcd_settings(self, kw):
        # dict(): without its rank, bcd-lrd would run plain BCD under its label
        with pytest.raises(ConfigError):
            AlgoSpec("bcd-lrd", **kw)

    @pytest.mark.parametrize("name, kw", [
        ("lmmse", dict(T=3)), ("bcd", dict(r=3)), ("bcd", dict(T=2, r=3)),
        ("sdr", dict(tol=1e-3)),
    ])
    def test_algospec_rejects_settings_its_row_does_not_take(self, name, kw):
        # the CSV would show a T or r the row never ran with
        with pytest.raises(ConfigError, match="does not take"):
            AlgoSpec(name, **kw)

    def test_runspec_validation(self):
        with pytest.raises(ValueError):
            _spec(trials=0)
        # a run with workers 0 or -3 used to go ahead on one worker
        for workers in (0, -3):
            with pytest.raises(ConfigError, match="workers must be >= 1"):
                _spec(workers=workers)
        with pytest.raises(ValueError):
            _spec(snr_grid=())
        with pytest.raises(ValueError):
            _spec(algorithms=())

    @pytest.mark.parametrize("kw, repeat", [
        (dict(algorithms=(AlgoSpec("bcd", T=1), AlgoSpec("bcd", T=4))), "algorithm label 'bcd'"),
        (dict(snr_grid=(10.0, 0.0, 10.0)), "SNR 10.0"),
    ])
    def test_runspec_rejects_repeated_cells(self, kw, repeat):
        # cells are keyed by (label, SNR): the T=4 run overwrote the T=1
        # row's results, and a repeated SNR wrote its row twice
        with pytest.raises(ConfigError, match=f"{repeat} is given twice"):
            _spec(**kw)

    def test_runspec_rejects_a_non_finite_snr(self):
        # checked when the spec is made, before any cell runs; run_sweep
        # wrote rows with ser 0.937 and mse nan for a NaN SNR
        with pytest.raises(ConfigError, match="snr_db must be finite"):
            _spec(snr_grid=(0.0, float("nan")))

    @pytest.mark.parametrize("name, kw", [
        ("bcd", dict(T=True)), ("bcd", dict(T=2.5)), ("bcd", dict(tol="1e-3")),
        ("bcd", dict(tol=True)), ("bcd-lrd", dict(r=2.5, T=1)),
        ("bcd-lrd", dict(r=True, T=1)),
    ])
    def test_algospec_rejects_non_integral_settings(self, name, kw):
        # T=True wrote True in the CSV; T=2.5, tol="1e-3" and r=2.5 raised
        # a TypeError from inside run_sweep
        with pytest.raises(ConfigError, match="must be an? (integer|real number)"):
            AlgoSpec(name, **kw)

    @pytest.mark.parametrize("kw", [
        dict(trials=2.5), dict(trials=True), dict(workers=1.5), dict(workers=True),
    ])
    def test_runspec_rejects_non_integral_counts(self, kw):
        with pytest.raises(ConfigError, match="must be an integer"):
            _spec(**kw)

    def test_default_algo_fills_lrd_rank(self):
        cfg = _cfg()
        a = bench.default_algo("bcd-lrd", cfg, T=3)
        assert a.T == 3 and a.r == cfg.n_interf


class TestRunSweep:
    def test_default_bcd_row_shows_the_sweeps_it_ran(self):
        # AlgoSpec("bcd") ran 4 sweeps but wrote an empty T, and its
        # closed-form entries raised a TypeError on T=None
        cfg, spec = _cfg(), AlgoSpec("bcd")
        assert spec.T == 4 and bench.default_algo("bcd", cfg).T == 4
        report = bench.run_sweep(_spec(algorithms=(spec,), snr_grid=(10.0,), trials=1))
        row = report.row("bcd", 10.0)
        assert row["T"] == 4
        assert report.to_csv().splitlines()[1].startswith("bcd,10.0,10.0,16,4,4,64,4,,")
        entries = dbpnet.ALGORITHMS["bcd"].entries(cfg, spec)
        assert entries == row["avg_entries_per_symbol"] == Fraction(784, 3)

    def test_report_shape_and_csv(self):
        # run_sweep writes no file; test_cli checks that --out holds these bytes
        report = bench.run_sweep(_spec())
        assert len(report.rows) == 6     # 3 algorithms x 2 SNRs
        lines = report.to_csv().strip().split("\n")
        assert lines[0] == ",".join(bench.CSV_FIELDS)
        assert len(lines) == 7

    def test_ser_decreases_with_snr(self):
        report = bench.run_sweep(_spec(snr_grid=(0.0, 20.0), trials=8))
        row_lo = report.row("lmmse", 0.0)
        row_hi = report.row("lmmse", 20.0)
        assert row_hi["ser"] <= row_lo["ser"]

    def test_same_seed_same_bytes(self):
        a = bench.run_sweep(_spec()).to_csv()
        b = bench.run_sweep(_spec()).to_csv()
        assert a == b

    def test_worker_count_does_not_change_bytes(self):
        a = bench.run_sweep(_spec(workers=1)).to_csv()
        b = bench.run_sweep(_spec(workers=3)).to_csv()
        assert a == b

    def test_workers_capped_by_trials(self, monkeypatch):
        # run_sweep asks for min(workers, trials) processes, and for no pool at one
        made = []

        class InProcessPool:
            def __init__(self, max_workers):
                made.append(max_workers)

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            def map(self, fn, *iterables):
                return map(fn, *iterables)

        monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", InProcessPool)
        serial = bench.run_sweep(_spec(trials=2, workers=1)).to_csv()
        assert made == []
        assert bench.run_sweep(_spec(trials=2, workers=8)).to_csv() == serial
        assert made == [2]

    def test_failed_algorithm_marked_not_fatal(self):
        # N < C*K starves the concatenated covariance of rank
        spec = _spec(cfg=_cfg(N=8, n_coh=16),
                     algorithms=(AlgoSpec("cdr"), AlgoSpec("sdr")),
                     snr_grid=(10.0,), trials=2)
        report = bench.run_sweep(spec)
        assert report.row("cdr", 10.0)["ser"] == "FAIL"
        assert report.row("sdr", 10.0)["ser"] != "FAIL"

    def test_failed_row_names_its_first_failed_trial(self, monkeypatch):
        run_cell, trials = dbpnet.run_cell, iter(range(5))

        def fail_in_trial_3(*args, **kwargs):  # one algorithm and one SNR: call t runs trial t
            cell = run_cell(*args, **kwargs)
            return cell._replace(shat=None, error="NotPositiveDefinite: forced") \
                if next(trials) == 3 else cell

        monkeypatch.setattr(dbpnet, "run_cell", fail_in_trial_3)
        spec = _spec(algorithms=(AlgoSpec("lmmse"),), snr_grid=(10.0,), trials=5)
        row = bench.run_sweep(spec).row("lmmse", 10.0)
        assert row["ser"] == "FAIL"
        assert row["error"] == "NotPositiveDefinite: forced (trial 3; 1 of 5 trials failed)"

    def test_timing_off_by_default(self):
        report = bench.run_sweep(_spec(trials=2, snr_grid=(10.0,)))
        assert all(r["wallclock_s"] == 0.0 for r in report.rows)

    def test_timing_on_records_positive(self):
        report = bench.run_sweep(_spec(trials=2, snr_grid=(10.0,),
                                       timing=True))
        assert all(r["wallclock_s"] > 0.0 for r in report.rows)

    def test_bandwidth_column_matches_formula(self):
        from dbpeq import dbpnet
        cfg = _cfg()
        report = bench.run_sweep(_spec(trials=2, snr_grid=(10.0,)))
        assert report.row("sdr", 10.0)["avg_entries_per_symbol"] == \
            dbpnet.formula_dr(cfg.C, cfg.K, cfg.N, cfg.n_coh)
        assert report.row("lmmse", 10.0)["avg_entries_per_symbol"] == \
            dbpnet.formula_centralized(cfg.M, cfg.K, cfg.N, cfg.n_coh)

    def test_tol_mode_bandwidth_is_exact_mean_over_trials(self):
        # converge-mode sweep counts differ by trial, so the row must
        # average every trial's ledger, not report trial 0's
        from fractions import Fraction
        from dbpeq import dbpnet, equalizers as eq
        from dbpeq.scenario import gen_realization
        cfg = _cfg().with_updates(snr_db=10.0)
        spec = _spec(algorithms=(AlgoSpec("bcd", tol=1e-3),), trials=3,
                     snr_grid=(10.0,))
        per_trial = []
        for trial in range(3):
            rz = gen_realization(cfg, trial)
            res = eq.bcd_solve(rz.H_blocks(), rz.noise_blocks(), cfg.Es,
                               tol=1e-3, max_sweeps=10000)
            per_trial.append(dbpnet.formula_bcd(cfg.C, cfg.K, cfg.N,
                                                res.iterations, cfg.n_coh))
        assert len(set(per_trial)) > 1
        row = bench.run_sweep(spec).row("bcd", 10.0)
        assert row["avg_entries_per_symbol"] == sum(per_trial, Fraction(0)) / 3



class TestTrialDraws:
    def test_each_substream_is_opened_once_per_trial(self, monkeypatch):
        # the draws do not depend on the SNR, so one trial draws once
        opened = []
        substream = scenario._substream

        def spy(seed, trial, tag):
            opened.append((trial, tag))
            return substream(seed, trial, tag)

        monkeypatch.setattr(scenario, "_substream", spy)
        bench._run_trial(_spec(snr_grid=(0.0, 5.0, 10.0, 20.0)), 2)
        assert sorted(opened) == [(2, 0), (2, 1)]

    def test_shared_draws_are_read_only(self, monkeypatch):
        # every SNR of a trial shares H, Hbar and S, so an in-place write by
        # one cell would silently change the next SNR's inputs
        realizations, blocks = [], []
        run_cell, scale_symbols = dbpnet.run_cell, bench.scale_symbols

        def run_cell_spy(algo, realization, y, cfg, **kwargs):
            realizations.append(realization)
            return run_cell(algo, realization, y, cfg, **kwargs)

        def scale_symbols_spy(*args):
            blocks.append(scale_symbols(*args))
            return blocks[-1]

        monkeypatch.setattr(dbpnet, "run_cell", run_cell_spy)
        monkeypatch.setattr(bench, "scale_symbols", scale_symbols_spy)
        bench._run_trial(_spec(), 0)
        assert len(realizations) == 6 and len(blocks) == 2
        for shared in [r.H for r in realizations] + [r.Hbar for r in realizations] \
                + [b.S for b in blocks]:
            with pytest.raises(ValueError, match="read-only"):
                shared[0, 0] = 0

    @pytest.mark.parametrize("workers", [1, 2])
    def test_a_replayed_trial_equals_the_same_trial_in_a_full_run(self, workers):
        # every cell comes from trial_cells, so trial t replayed alone is trial t of the
        # sweep; tol-mode entries depend on the draws, so a replay of another trial shows
        spec = _spec(algorithms=(AlgoSpec("bcd", tol=1e-3), AlgoSpec("lmmse")),
                     trials=5, workers=workers)
        errors, entries = defaultdict(int), defaultdict(list)
        for trial in range(5):
            for snr, algo, block, cell, _ in bench.trial_cells(spec, trial):
                detected = scenario.slice_symbols(cell.shat, spec.cfg.modulation, spec.cfg.Es)
                errors[algo.label, snr] += int(np.sum(detected != block.S))
                entries[algo.label, snr].append(cell.fabric.ledger.per_symbol_average())
        assert len(set(entries["bcd", 10.0])) > 1
        report = bench.run_sweep(spec)
        assert len(report.rows) == len(errors) == 4
        for (label, snr), count in errors.items():
            row = report.row(label, snr)
            assert row["errors"] == count
            assert row["avg_entries_per_symbol"] == sum(entries[label, snr], Fraction(0)) / 5


def _report(rows):
    rep = SerReport()
    for label, snr, ser, errors in rows:
        rep.rows.append({
            "algorithm": label, "snr_db": snr, "ser": ser,
            "errors": errors, "symbols": 10000,
        })
    return rep


class TestPairedOrdering:
    def test_better_everywhere(self):
        rep = _report([("a", s, 0.01 * (i + 1), 500) for i, s in enumerate((0, 5))]
                      + [("b", s, 0.05 * (i + 1), 900) for i, s in enumerate((0, 5))])
        v = bench.paired_ordering_test(rep, "a", "b")
        assert v.verdict == "better_or_equal"
        assert v.qualified == 2 and v.a_not_worse == 2

    def test_worse(self):
        rep = _report([("a", 0, 0.2, 900), ("b", 0, 0.1, 500)])
        v = bench.paired_ordering_test(rep, "a", "b")
        assert v.verdict == "worse"

    def test_ties_count_as_not_worse(self):
        rep = _report([("a", 0, 0.1, 500), ("b", 0, 0.1, 500)])
        v = bench.paired_ordering_test(rep, "a", "b")
        assert v.verdict == "better_or_equal"

    def test_qualification_uses_worse_side(self):
        # a has 0 errors but b has plenty: the point still qualifies
        rep = _report([("a", 0, 0.0, 0), ("b", 0, 0.1, 500)])
        v = bench.paired_ordering_test(rep, "a", "b")
        assert v.qualified == 1 and v.verdict == "better_or_equal"

    def test_insufficient_errors_raises(self):
        rep = _report([("a", 0, 0.001, 5), ("b", 0, 0.001, 7)])
        with pytest.raises(InsufficientErrors):
            bench.paired_ordering_test(rep, "a", "b")

    def test_threshold(self):
        rows = []
        for i, snr in enumerate((0, 5, 10, 15, 20)):
            worse = i < 2   # a worse at 2 of 5 points -> 60% < 80%
            rows.append(("a", snr, 0.2 if worse else 0.1, 400))
            rows.append(("b", snr, 0.15, 400))
        v = bench.paired_ordering_test(_report(rows), "a", "b")
        assert v.verdict == "worse"
        assert v.a_not_worse / v.qualified == pytest.approx(0.6)

    def test_unknown_algorithm(self):
        for a, b in (("zz", "a"), ("a", "zz")):
            with pytest.raises(KeyError):
                bench.paired_ordering_test(_report([("a", 0, 0.1, 200)]), a, b)

    def test_fail_point_is_not_counted(self):
        rep = _report([("a", 0, "FAIL", None), ("b", 0, 0.1, 500),
                       ("a", 5, 0.05, 300), ("b", 5, 0.1, 500)])
        v = bench.paired_ordering_test(rep, "a", "b")
        assert v.points[0] == {"snr_db": 0, "qualified": False, "fail": True}
        assert v.qualified == 1 and v.a_not_worse == 1
        assert v.verdict == "better_or_equal"

    def test_same_algorithm_is_equal(self):
        v = bench.paired_ordering_test(_report([("a", 0, 0.1, 500)]), "a", "a")
        assert v.verdict == "equal" and v.qualified == 1
