"""CLI contract: subcommands, exit codes, config round-trip."""

import ast
import ctypes
import hashlib
import json
import re
from pathlib import Path

import numpy as np
import pytest

from dbpeq import bench, cli, dbpnet, equalizers, numerics, verify
from dbpeq.scenario import SystemConfig


def _run(argv):
    return cli.main(argv)


BASE = ["--M", "16", "--K", "4", "--C", "4", "--N", "64",
        "--ncoh", "48", "--trials", "2", "--snr", "10"]
# a one-trial lmmse run, as a config and as flags
DESK = {"M": 16, "ncoh": 48, "trials": 1, "snr": "10", "algorithms": "lmmse"}
DESK_FLAGS = ["--M", "16", "--ncoh", "48", "--trials", "1", "--algorithms", "lmmse"]
# the OpenBLAS core the two digests were pinned under; the CSV's mse bits
# differ under another kernel (Haswell, for one)
PINNED_CORE = "SkylakeX"


def _openblas_builds() -> str:
    """The routines each OpenBLAS build serves, and the build and core its library reports."""
    found = []
    for owner, module, symbol in [
            ("scipy (dgemm, daxpy, ddot, ztrsm)", numerics._fblas, "scipy_openblas_get_config"),
            ("numpy (Cholesky factorization, products, SVD)", np._core._multiarray_umath,
             "scipy_openblas_get_config64_")]:
        get_config = getattr(ctypes.CDLL(module.__file__), symbol, None)
        if get_config is None:
            found.append(f"{owner}: no {symbol}")
            continue
        get_config.argtypes, get_config.restype = [], ctypes.c_char_p
        found.append(f"{owner}: {get_config().decode()}")
    return f"pinned under OpenBLAS core {PINNED_CORE}; this run: " + "; ".join(found)


class TestHelp:
    def test_help_exits_zero(self, capsys):
        with pytest.raises(SystemExit) as exc:
            _run(["--help"])
        assert exc.value.code == 0

    def test_subcommand_help_documents_flags(self, capsys):
        with pytest.raises(SystemExit) as exc:
            _run(["run", "--help"])
        assert exc.value.code == 0
        text = capsys.readouterr().out
        for flag in ("--config", "--seed", "--out", "--algorithms", "--snr",
                     "--M", "--K", "--C", "--N", "--T", "--r", "--ncoh",
                     "--trials", "--channel", "--dump-messages",
                     "--dump-config", "--iot"):
            assert flag in text
        # bandwidth takes the scenario settings, not the sweep's
        with pytest.raises(SystemExit) as exc:
            _run(["bandwidth", "--help"])
        assert exc.value.code == 0
        text = capsys.readouterr().out
        for key in ("seed", "M", "K", "C", "N", "T", "r", "ncoh", "iot", "channel"):
            assert f"--{key} " in text
        assert "--out" not in text and "--trials" not in text


class TestRun:
    def test_basic_run_writes_csv(self, tmp_path):
        out = tmp_path / "r.csv"
        code = _run(["run", *BASE, "--seed", "7", "--out", str(out)])
        assert code == 0
        assert out.exists()
        header = out.read_text().splitlines()[0]
        assert header.startswith("algorithm,snr_db")

    def test_out_bytes_are_the_report_csv(self, tmp_path, monkeypatch):
        # run_sweep writes no file: --out holds its report's to_csv() for the same spec
        specs, run_sweep = [], bench.run_sweep
        monkeypatch.setattr(bench, "run_sweep", lambda spec: specs.append(spec) or run_sweep(spec))
        out = tmp_path / "r.csv"
        assert _run(["run", *BASE, "--algorithms", "lmmse,sdr,bcd", "--out", str(out)]) == 0
        assert len(specs) == 1
        assert out.read_bytes() == run_sweep(specs[0]).to_csv().encode("utf-8")

    def test_config_file(self, tmp_path):
        cfg = tmp_path / "desk.json"
        cfg.write_text(json.dumps({"M": 16, "K": 4, "C": 4, "N": 64,
                                   "ncoh": 48, "trials": 2, "snr": "10",
                                   "algorithms": "lmmse"}))
        out = tmp_path / "r.csv"
        code = _run(["run", "--config", str(cfg), "--out", str(out)])
        assert code == 0
        body = out.read_text()
        assert "lmmse" in body and "sdr" not in body

    def test_flags_override_config(self, tmp_path):
        cfg = tmp_path / "desk.json"
        cfg.write_text(json.dumps({"M": 16, "K": 4, "C": 4, "N": 64,
                                   "ncoh": 48, "trials": 2, "snr": "10",
                                   "algorithms": "lmmse"}))
        out = tmp_path / "r.csv"
        code = _run(["run", "--config", str(cfg), "--algorithms", "zf",
                     "--out", str(out)])
        assert code == 0
        assert "zf" in out.read_text()

    def test_unknown_config_key_exit_2(self, tmp_path, capsys):
        cfg = tmp_path / "bad.json"
        cfg.write_text(json.dumps({"M": 16, "antennas": 32}))
        assert _run(["run", "--config", str(cfg)]) == 2
        assert "antennas" in capsys.readouterr().err

    def test_malformed_json_exit_2(self, tmp_path):
        cfg = tmp_path / "bad.json"
        cfg.write_text("{not json")
        assert _run(["run", "--config", str(cfg)]) == 2

    def test_missing_config_exit_2(self, tmp_path):
        assert _run(["run", "--config", str(tmp_path / "nope.json")]) == 2

    def test_unknown_algorithm_exit_2(self, tmp_path):
        assert _run(["run", *BASE, "--algorithms", "mrc",
                     "--out", str(tmp_path / "r.csv")]) == 2

    def test_negative_sweep_count_exit_2(self, tmp_path, capsys):
        assert _run(["run", *BASE, "--algorithms", "bcd,bcd-lrd", "--T", "-1",
                     "--out", str(tmp_path / "r.csv")]) == 2
        assert "config error:" in capsys.readouterr().err
        assert not (tmp_path / "r.csv").exists()

    def test_invalid_dimensions_exit_2(self, tmp_path):
        assert _run(["run", "--M", "4", "--K", "8",
                     "--out", str(tmp_path / "r.csv")]) == 2

    def test_rank_deficient_single_algorithm_partial_success(self, tmp_path):
        # N < C*K: rows marked FAIL but the run itself succeeds
        out = tmp_path / "r.csv"
        code = _run(["run", "--M", "32", "--K", "4", "--C", "4", "--N", "8",
                     "--ncoh", "48", "--trials", "2", "--snr", "10",
                     "--algorithms", "cdr", "--out", str(out)])
        assert code == 0
        assert "FAIL" in out.read_text()

    def test_all_algorithms_failing_exit_3(self, tmp_path):
        out = tmp_path / "r.csv"
        # cdr is rank-deficient (N < C*K) and the LRD rank is out of range,
        # so every row fails and the multi-algorithm run reports exit 3
        code = _run(["run", "--M", "32", "--K", "4", "--C", "4", "--N", "8",
                     "--ncoh", "48", "--trials", "2", "--snr", "10",
                     "--algorithms", "cdr,bcd-lrd", "--r", "500",
                     "--out", str(out)])
        assert code == 3
        body = out.read_text()
        assert body.count("FAIL") >= 2

    def test_no_interferers_run_every_non_lrd_algorithm(self, tmp_path, monkeypatch):
        seen = []
        run_sweep = bench.run_sweep

        def spy(spec):
            seen.append(spec.cfg.n_interf)
            return run_sweep(spec)

        monkeypatch.setattr(bench, "run_sweep", spy)
        out = tmp_path / "r.csv"
        names = ["zf", "lmmse", "bdac", "sdr", "cdr", "bcd"]
        assert _run(["run", *BASE, "--interf", "0", "--algorithms", ",".join(names),
                     "--out", str(out)]) == 0
        assert seen == [0]
        rows = [line.split(",") for line in out.read_text().splitlines()[1:]]
        assert sorted(row[0] for row in rows) == sorted(names)
        assert not any("FAIL" in row for row in rows)

    def test_no_interferers_leave_lrd_no_default_rank(self, tmp_path, capsys):
        # bcd-lrd's default rank is the interferer count, here 0
        assert _run(["run", *BASE, "--interf", "0", "--algorithms", "bcd-lrd",
                     "--out", str(tmp_path / "r.csv")]) == 2
        assert "config error:" in capsys.readouterr().err
        assert not (tmp_path / "r.csv").exists()

    @pytest.mark.parametrize("command", ["run", "bandwidth"])
    @pytest.mark.parametrize("value", ["-1", "1.5", "true"])
    def test_bad_interferer_count_exit_2(self, tmp_path, capsys, command, value):
        argv = [command, "--interf", value]
        if command == "run":
            argv += ["--out", str(tmp_path / "r.csv")]
        assert _run(argv) == 2
        assert "config error:" in capsys.readouterr().err

    def test_dump_config_roundtrip(self, tmp_path):
        out1 = tmp_path / "a.csv"
        dump = tmp_path / "resolved.json"
        assert _run(["run", *BASE, "--seed", "9", "--out", str(out1),
                     "--dump-config", str(dump)]) == 0
        out2 = tmp_path / "b.csv"
        assert _run(["run", "--config", str(dump), "--out", str(out2)]) == 0
        assert out1.read_bytes() == out2.read_bytes()

    def test_seed_changes_output(self, tmp_path):
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        _run(["run", *BASE, "--seed", "1", "--out", str(a)])
        _run(["run", *BASE, "--seed", "2", "--out", str(b)])
        assert a.read_bytes() != b.read_bytes()

    def test_dump_messages(self, tmp_path):
        out = tmp_path / "r.csv"
        log = tmp_path / "messages.log"
        assert _run(["run", *BASE, "--algorithms", "sdr,bcd",
                     "--out", str(out), "--dump-messages", str(log)]) == 0
        lines = log.read_text().strip().splitlines()
        data = [ln for ln in lines if ln and not ln.startswith("#")]
        assert all(len(ln.split(",")) == 7 for ln in data)
        from dbpeq.dbpnet import replay_totals
        totals = replay_totals("\n".join(data))
        assert totals["preprocessing"] > 0

    def test_dump_messages_digest(self, tmp_path):
        # the log holds only integers, so its bytes do not depend on the
        # machine; any change to a protocol's schedule changes them
        log = tmp_path / "messages.log"
        assert _run(["run", "--algorithms", "zf,lmmse,bdac,sdr,cdr,bcd,bcd-lrd",
                     "--trials", "1", "--snr", "10", "--seed", "0",
                     "--out", str(tmp_path / "r.csv"),
                     "--dump-messages", str(log)]) == 0
        assert hashlib.sha256(log.read_bytes()).hexdigest() == \
            "0d7fb6538e00e3a06c7845a104f1b9569c93cc656f087427eb2b4c437dd70ed4", _openblas_builds()

    def test_csv_digest(self, tmp_path):
        # the default sweep of every algorithm, 2 trials: a change to any
        # result, row order or number format changes these bytes
        out = tmp_path / "r.csv"
        assert _run(["run", "--algorithms", "zf,lmmse,bdac,sdr,cdr,bcd,bcd-lrd",
                     "--trials", "2", "--seed", "0", "--out", str(out)]) == 0
        assert hashlib.sha256(out.read_bytes()).hexdigest() == \
            "355e6a5c8af3455f9e96bc3bbd3148b3537615f5cd3a77a2384e96b37d35da2c", _openblas_builds()

    def test_dump_messages_logs_a_failing_cell(self, tmp_path):
        # cdr's compressed covariance has rank N = 8 < C*K = 16; the sweep
        # writes a FAIL row, and the message log says why instead of crashing
        log = tmp_path / "m.log"
        assert _run(["run", "--M", "32", "--K", "4", "--C", "4", "--N", "8",
                     "--algorithms", "cdr", "--trials", "1", "--out", str(tmp_path / "r.csv"),
                     "--dump-messages", str(log)]) == 0
        lines = log.read_text().splitlines()
        assert len(lines) == 2 and lines[0] == "# algorithm=cdr"
        assert lines[1].startswith("# FAIL NotPositiveDefinite: ")

    @pytest.mark.parametrize("flags,config", [
        pytest.param(["--trials", "0"], None, id="no-trials"),
        pytest.param([], {"snr": []}, id="empty-snr-grid"),
        pytest.param([], {"M": "x"}, id="wrong-type"),
        pytest.param([], {"K": None}, id="null"),
        # each of these ran a sweep (exit 0) while the CLI typed a setting twice
        pytest.param([*DESK_FLAGS, "--snr", "nan"], None, id="snr-nan"),
        pytest.param([*DESK_FLAGS, "--iot", "nan"], None, id="iot-nan"),
        pytest.param([], {**DESK, "iot": "inf"}, id="config-iot-inf"),
        # each of these wrote one cell's results into two rows
        pytest.param([*DESK_FLAGS, "--algorithms", "bcd,bcd"], None, id="repeated-algorithm"),
        pytest.param([], {**DESK, "snr": "10,10"}, id="repeated-snr"),
        pytest.param([], {**DESK, "timing": "false"}, id="timing-string"),
        pytest.param([], {**DESK, "M": 16.9}, id="fractional-M"),
        pytest.param([], {**DESK, "trials": 1.5}, id="fractional-trials"),
        pytest.param([], {**DESK, "seed": True}, id="boolean-seed"),
        # each of these ran a sweep (exit 0) on one worker
        pytest.param([*DESK_FLAGS, "--workers", "0"], None, id="no-workers"),
        pytest.param([*DESK_FLAGS, "--workers", "-3"], None, id="negative-workers"),
        # ended in numpy's "expected non-negative integer" traceback, exit 1
        pytest.param([*DESK_FLAGS, "--seed", "-1"], None, id="negative-seed"),
        # a config value of the wrong JSON type, and a config that is not an object
        pytest.param([], {**DESK, "iot": [1]}, id="iot-list"),
        pytest.param([], {**DESK, "snr": 5}, id="snr-number"),
        pytest.param([], [1], id="config-not-object"),
    ])
    def test_bad_sweep_settings_exit_2(self, tmp_path, capsys, flags, config):
        argv = ["run", *flags, "--out", str(tmp_path / "r.csv")]
        if config is not None:
            (tmp_path / "c.json").write_text(json.dumps(config))
            argv += ["--config", str(tmp_path / "c.json")]
        assert _run(argv) == 2
        assert "config error:" in capsys.readouterr().err
        assert not (tmp_path / "r.csv").exists()

    @pytest.mark.parametrize("flag", ["--out", "--dump-config", "--dump-messages"])
    def test_unwritable_output_path_exit_2(self, tmp_path, monkeypatch, capsys, flag):
        # each ended in a FileNotFoundError traceback after the whole sweep; then
        # in exit 2 after the sweep, with the CSV of a good --out left behind
        calls, run_sweep = [], bench.run_sweep
        monkeypatch.setattr(bench, "run_sweep", lambda spec: calls.append(spec) or run_sweep(spec))
        path = str(tmp_path / "missing" / "file")
        argv = ["run", *DESK_FLAGS, "--out", str(tmp_path / "r.csv"), flag, path]
        assert _run(argv) == 2
        err = capsys.readouterr().err
        assert "config error:" in err and path in err
        assert calls == []
        assert not list(tmp_path.iterdir())

    @pytest.mark.parametrize("flag", ["--dump-config", "--dump-messages"])
    def test_two_outputs_at_one_path_exit_2(self, tmp_path, monkeypatch, capsys, flag):
        # the second output used to replace the CSV silently, with exit 0
        calls, run_sweep = [], bench.run_sweep
        monkeypatch.setattr(bench, "run_sweep", lambda spec: calls.append(spec) or run_sweep(spec))
        monkeypatch.chdir(tmp_path)
        assert _run(["run", *DESK_FLAGS, "--out", "a.txt", flag, "./a.txt"]) == 2
        err = capsys.readouterr().err
        assert "config error:" in err and "--out" in err and flag in err
        assert calls == []
        assert not list(tmp_path.iterdir())

    # the ridge fallback warns on the one-antenna clusters of C = M
    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_fail_rows_say_why(self, tmp_path, capsys):
        # C = M: cdr's compressed covariance (C*K = 128 > N = 64) is singular
        assert _run(["run", "--M", "32", "--C", "32", "--algorithms", "cdr,lmmse",
                     "--trials", "1", "--out", str(tmp_path / "r.csv")]) == 0
        lines = [ln for ln in capsys.readouterr().err.splitlines() if ln.startswith("FAIL")]
        assert len(lines) == 5
        assert all(ln.startswith("FAIL cdr ") and "NotPositiveDefinite" in ln for ln in lines)


class TestVerify:
    def test_filter_runs_subset(self, capsys):
        code = _run(["verify", "--filter", "gradient"])
        out = capsys.readouterr().out
        assert code == 0
        assert "gradient" in out and "ledger" not in out

    def test_no_match_is_failure(self):
        assert _run(["verify", "--filter", "zzz"]) == 1

    # both entry points read verify.ledger_rows, so a tampered formula fails both
    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    @pytest.mark.parametrize("argv,marker", [
        pytest.param(["verify", "--filter", "ledger"], "FAIL", id="verify"),
        pytest.param(["bandwidth"], " NO", id="bandwidth"),
    ])
    def test_tampered_ledger_fails(self, monkeypatch, capsys, argv, marker):
        # the rows look the formula up by its module-level name
        formula = dbpnet.formula_centralized
        monkeypatch.setattr(dbpnet, "formula_centralized", lambda *a: formula(*a) + 1)
        assert _run(argv) == 1
        assert marker in capsys.readouterr().out

    # lmmse's sample covariance is singular at N = 8 < M, so the ridge fallback warns
    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_ledger_check_reports_a_failing_row(self):
        # cdr's compressed covariance has rank N = 8 < C*K = 16; the check raised
        # NotPositiveDefinite instead of reporting the row
        res = verify.check_ledger_formulas(SystemConfig(M=32, K=4, C=4, N=64),
                                           [(16, 4, 4, 8, 48, 1, 4)])
        assert not res.passed
        assert "'cdr', 'NotPositiveDefinite: " in res.detail

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_ledger_check_passes_untampered(self, capsys):
        code = _run(["verify", "--filter", "ledger"])
        assert code == 0
        assert "PASS" in capsys.readouterr().out

    def test_descent_runs_the_newton_kernel(self, monkeypatch, capsys):
        # over-relaxing D by 2.5 overshoots each block minimum; R, stepped
        # in place by D, takes 1.5 D X_c more (the kernel's operands are
        # the transposes, so R^T takes 1.5 X_c^T D^T), so it stays
        # consistent with the overshot W
        step = equalizers.bcd_newton_step

        def over_relaxed(block, r, d):
            step(block, r, d)
            r += 1.5 * block.xt.dot(d)
            d *= 2.5

        monkeypatch.setattr(equalizers, "bcd_newton_step", over_relaxed)
        assert _run(["verify", "--filter", "descent"]) == 1
        assert "FAIL" in capsys.readouterr().out

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_full_battery_passes(self, capsys):
        assert _run(["verify"]) == 0
        lines = capsys.readouterr().out.splitlines()
        assert [ln.split()[:2] for ln in lines] == [["PASS", f"{name}:"]
                                                    for name in verify.CHECKS]

    def test_criteria_run_the_battery(self):
        # criteria 01-07 and 09 each call a property function of verify,
        # and every function behind CHECKS is called by some criterion
        battery = {fn.func.__name__ for fn in verify.CHECKS.values()}
        path = Path(__file__).with_name("test_acceptance.py")
        called = {}
        for node in ast.parse(path.read_text(encoding="utf-8")).body:
            m = isinstance(node, ast.FunctionDef) and re.match(r"test_(\d\d)_", node.name)
            if m:
                called[int(m.group(1))] = {
                    c.func.attr for c in ast.walk(node)
                    if isinstance(c, ast.Call) and isinstance(c.func, ast.Attribute)
                    and isinstance(c.func.value, ast.Name) and c.func.value.id == "verify"}
        assert all(called[crit] & battery for crit in (1, 2, 3, 4, 5, 6, 7, 9))
        assert battery <= set().union(*called.values())


class TestBandwidth:
    def test_table_columns_match(self, capsys):
        code = _run(["bandwidth", "--M", "128", "--K", "8", "--C", "8",
                     "--N", "192", "--ncoh", "480", "--T", "2"])
        out = capsys.readouterr().out
        assert code == 0
        assert "362.666667" in out
        assert "181.333333" in out
        assert "NO" not in out
        assert "note: bcd-lrd aggregate closed form" in out

    def test_channel_and_iot_reach_the_realization(self, monkeypatch, capsys):
        seen = []
        scale_channel = bench.scale_channel

        def spy(cfg, draw):
            seen.append(cfg)
            return scale_channel(cfg, draw)

        monkeypatch.setattr(bench, "scale_channel", spy)
        assert _run(["bandwidth", "--channel", "one_ring", "--iot", "3"]) == 0
        assert [(c.channel_model, c.iot_db) for c in seen] == [("one_ring", 3.0)]

    # the ridge fallback may warn on bcd-lrd's rank-2 samples
    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_interferer_count_sets_the_default_rank(self, capsys):
        assert _run(["bandwidth", "--interf", "2"]) == 0
        assert capsys.readouterr().out.splitlines()[0].split()[5] == "r=2"

    def test_no_interferers_fail_only_the_lrd_row(self, capsys):
        # interf 0 leaves bcd-lrd no default rank; it ended in a config error, exit 2
        assert _run(["bandwidth", "--interf", "0"]) == 1
        lines = capsys.readouterr().out.splitlines()
        assert lines[0].split()[5] == "r=0"
        fails = [ln for ln in lines if "FAIL" in ln]
        assert len(fails) == 1 and fails[0].split()[0] == "bcd-lrd"
        assert "rank r" in fails[0] and "--r" in fails[0]
        assert sum(ln.endswith("yes") for ln in lines) == 6

    def test_bad_params_exit_2(self, tmp_path, capsys):
        assert _run(["bandwidth", "--M", "4", "--K", "8"]) == 2
        (tmp_path / "c.json").write_text(json.dumps({"M": 16.9}))
        assert _run(["bandwidth", "--config", str(tmp_path / "c.json")]) == 2
        assert "config error:" in capsys.readouterr().err

    @pytest.mark.parametrize("flags", [["--T", "-1"], ["--r", "0"]])
    def test_bad_sweep_count_or_rank_exit_2(self, capsys, flags):
        assert _run(["bandwidth", *flags]) == 2
        assert "config error:" in capsys.readouterr().err

    def test_negative_seed_exit_2(self, capsys):
        # ended in numpy's "expected non-negative integer" traceback, exit 1
        assert _run(["bandwidth", "--seed", "-1"]) == 2
        assert "config error: seed must be >= 0" in capsys.readouterr().err

    # the ridge fallback warns on the one-antenna clusters of C = M
    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    @pytest.mark.parametrize("flags,failing", [
        (["--r", "1000"], "bcd-lrd"),
        (["--C", "32", "--M", "32"], "cdr"),
    ])
    def test_numeric_failure_is_a_fail_row(self, capsys, flags, failing):
        assert _run(["bandwidth", *flags]) == 1
        lines = capsys.readouterr().out.splitlines()
        fails = [ln for ln in lines if "FAIL" in ln]
        assert len(fails) == 1 and fails[0].split()[0] == failing
        assert "RankOutOfRange" in fails[0] or "NotPositiveDefinite" in fails[0]
        assert sum(ln.endswith("yes") for ln in lines) == 6
        # the note's figures are for the bcd-lrd rank, so only a row that ran prints it
        notes = [ln for ln in lines if ln.startswith("note:")]
        assert len(notes) == (0 if failing == "bcd-lrd" else 1)
