"""Command-line front end.

Subcommands
-----------
run
    Executes a Monte-Carlo SER sweep and writes a CSV report.
verify
    Runs the headless property checks and prints PASS/FAIL per check.
bandwidth
    Prints closed-form per-symbol bandwidth next to the simulated
    ledger value for every algorithm.

Exit codes: 0 success, 1 verify failure, 2 configuration error,
3 every algorithm row failed numerically.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import re
import sys
from fractions import Fraction
from typing import Optional, Sequence

from . import bench, dbpnet, verify
from .bench import RunSpec, default_algo
from .scenario import CHANNEL_MODELS, MODULATIONS, ConfigError, SystemConfig


def _integer(value) -> int:
    """A JSON integer or a string of digits; no bools, no fractions."""
    if isinstance(value, str) and re.fullmatch(r"-?[0-9]+", value.strip()):
        return int(value)
    if isinstance(value, int) and not isinstance(value, bool):
        return value
    raise ValueError("expected an integer")


def _real(value) -> float:
    """A finite JSON number, or a string of one."""
    if isinstance(value, bool) or not isinstance(value, (int, float, str)):
        raise ValueError("expected a number")
    if not math.isfinite(x := float(value)):
        raise ValueError("expected a finite number")
    return x


def _exact(kind: type):
    """A parser that passes a value of type ``kind`` and refuses any other."""
    def parse(value):
        if not isinstance(value, kind):
            raise ValueError(f"expected a {kind.__name__}")
        return value
    return parse


def _list_of(parse):
    """A parser of a JSON list, or of one comma string, of ``parse`` items."""
    def parse_list(value) -> tuple:
        items = [x.strip() for x in value.split(",")] if isinstance(value, str) else value
        if not isinstance(items, list):
            raise ValueError("expected a list or a comma string")
        return tuple(parse(x) for x in items)
    return parse_list


# every setting: its default, the parser of a flag or config value, its flag help
SETTINGS = {
    "seed": (0, _integer, "base RNG seed"),
    "M": (32, _integer, "number of BS antennas"),
    "K": (4, _integer, "number of users"),
    "C": (4, _integer, "number of antenna clusters / DUs"),
    "N": (64, _integer, "training samples per coherence block"),
    "T": (4, _integer, "BCD sweep count"),
    "r": (None, lambda v: None if v is None else _integer(v),
          "LRD truncation rank (default: the interferer count)"),
    "interf": (None, lambda v: None if v is None else _integer(v),
               "number of interferers (default: the user count K)"),
    "ncoh": (480, _integer, "payload symbols per coherence block"),
    "iot": (10.0, _real, "interference-over-thermal in dB"),
    "channel": ("rayleigh", _exact(str), "channel model: " + ", ".join(CHANNEL_MODELS)),
    "out": ("results.csv", _exact(str), "output CSV path"),
    "algorithms": (("lmmse", "bdac", "sdr", "cdr", "bcd"), _list_of(_exact(str)),
                   "comma list: " + ",".join(dbpnet.ALGORITHMS)),
    "snr": ((0.0, 5.0, 10.0, 15.0, 20.0), _list_of(_real), "comma list of SNR points in dB"),
    "trials": (50, _integer, "Monte-Carlo trials per point"),
    "workers": (1, _integer, "worker processes"),
    "modulation": ("qam16", _exact(str), "constellation: " + ", ".join(MODULATIONS)),
    "timing": (False, _exact(bool), "record wallclock (breaks byte-identical output)"),
}
# the settings that `bandwidth` takes; `run` takes them all
_BANDWIDTH_KEYS = ("seed", "M", "K", "C", "N", "T", "r", "interf", "ncoh", "iot", "channel")


def _fail_config(msg: str) -> int:
    print(f"config error: {msg}", file=sys.stderr)
    return 2


def _merged_settings(args: argparse.Namespace) -> dict:
    """The defaults, then the config file, then the flags, each value parsed."""
    given = {}
    if args.config:
        with open(args.config, "r", encoding="utf-8") as fh:
            given = json.load(fh)
        if not isinstance(given, dict):
            raise ConfigError("config file must contain a JSON object")
    given.update((k, v) for k, v in vars(args).items() if k in SETTINGS and v is not None)
    settings = {key: default for key, (default, _, _) in SETTINGS.items()}
    for key, value in given.items():
        if key not in SETTINGS:
            raise ConfigError(f"unknown config key: {key!r}")
        try:
            settings[key] = SETTINGS[key][1](value)
        except ValueError as exc:
            raise ConfigError(f"bad {key} value {value!r}: {exc}") from exc
    return settings


def _build_spec(settings: dict, names: Sequence[str] = ()) -> RunSpec:
    """The RunSpec of ``settings``; ``names`` replaces their algorithm list."""
    cfg = SystemConfig(M=settings["M"], K=settings["K"], C=settings["C"], N=settings["N"],
                       n_interf=settings["interf"], iot_db=settings["iot"],
                       n_coh=settings["ncoh"], seed=settings["seed"],
                       modulation=settings["modulation"], channel_model=settings["channel"])
    algos = tuple(default_algo(name, cfg, T=settings["T"], r=settings["r"])
                  for name in names or settings["algorithms"])
    return RunSpec(cfg=cfg, algorithms=algos, snr_grid=settings["snr"],
                   trials=settings["trials"], timing=settings["timing"],
                   workers=settings["workers"])


def _check_writable(path: str) -> None:
    """Raise ConfigError unless a file can be written at ``path``; creates nothing."""
    folder = os.path.dirname(path) or "."
    if not (os.path.basename(path) and os.path.isdir(folder) and not os.path.isdir(path)
            and os.access(path if os.path.exists(path) else folder, os.W_OK)):
        raise ConfigError(f"cannot write {path}")


def cmd_run(args: argparse.Namespace) -> int:
    try:
        settings = _merged_settings(args)
        spec = _build_spec(settings)
        # every output path is checked before any cell runs, so a bad one costs no sweep;
        # two outputs at one file would silently replace each other
        seen: dict[str, str] = {}
        for flag, path in (("--out", settings["out"]), ("--dump-config", args.dump_config),
                           ("--dump-messages", args.dump_messages)):
            if path is not None:
                _check_writable(path)
                real = os.path.realpath(path)
                if real in seen:
                    raise ConfigError(f"{seen[real]} and {flag} name the same file {path}")
                seen[real] = flag
    except (OSError, ValueError) as exc:  # ConfigError is a ValueError
        return _fail_config(str(exc))

    # every cell runs before any file is written, so a config error leaves none behind
    try:
        report = bench.run_sweep(spec)
        outputs = [(settings["out"], report.to_csv())]
        if args.dump_config is not None:
            dump = {k: v for k, v in settings.items() if v is not None}
            outputs.append((args.dump_config, json.dumps(dump, indent=2, sort_keys=True) + "\n"))
        if args.dump_messages is not None:
            outputs.append((args.dump_messages, _message_log(spec)))
        for path, text in outputs:
            with open(path, "w", encoding="utf-8", newline="") as fh:
                fh.write(text)
    except (OSError, ConfigError) as exc:  # OSError: a checked path failed all the same
        return _fail_config(str(exc))

    failed = [row for row in report.rows if row["ser"] == "FAIL"]
    for row in failed:
        print(f"FAIL {row['algorithm']} at {row['snr_db']} dB: {row['error']}",
              file=sys.stderr)
    print(f"wrote {settings['out']}: {len(report.rows)} rows, "
          f"{len(failed)} failed", file=sys.stderr)
    if report.rows and len(failed) == len(report.rows) and len(spec.algorithms) > 1:
        print("all algorithms failed numerically", file=sys.stderr)
        return 3
    return 0


def _message_log(spec: RunSpec) -> str:
    """One trial's message log; a failed algorithm logs a ``# FAIL`` line."""
    cfg = spec.cfg.with_updates(snr_db=spec.snr_grid[0])
    lines = []
    for algo, cell in verify.trial_cells(cfg, spec.algorithms, record_log=True):
        lines.append(f"# algorithm={algo.label}")
        lines.append(f"# FAIL {cell.error}" if cell.error else cell.fabric.dump_log())
    return "\n".join(lines) + "\n"


def cmd_verify(args: argparse.Namespace) -> int:
    results = verify.run_checks(args.filter)
    if not results:
        print(f"no checks match filter {args.filter!r}", file=sys.stderr)
        return 1
    all_ok = True
    for res in results:
        status = "PASS" if res.passed else "FAIL"
        print(f"{status}  {res.name}: {res.detail}")
        all_ok &= res.passed
    return 0 if all_ok else 1


def _fmt_frac(x: Fraction) -> str:
    return f"{float(x):.6f}"


def cmd_bandwidth(args: argparse.Namespace) -> int:
    try:
        settings = _merged_settings(args)
        # interf 0 gives bcd-lrd no default rank: its row fails and the six others run
        unranked = settings["r"] is None and settings["interf"] == 0
        spec = _build_spec(settings, names=[a for a in dbpnet.ALGORITHMS
                                            if not (unranked and a == "bcd-lrd")])
    except (OSError, ValueError) as exc:  # ConfigError is a ValueError
        return _fail_config(str(exc))

    cfg = spec.cfg
    lrd = spec.algorithms[-1]  # bcd-lrd, or bcd when unranked; both take T
    m, k, c, n, t, r, ncoh = cfg.M, cfg.K, cfg.C, cfg.N, lrd.T, lrd.r or 0, cfg.n_coh
    print(f"M={m} K={k} C={c} N={n} T={t} r={r} ncoh={ncoh}")
    print(f"{'algorithm':<12} {'formula':>14} {'ledger':>14} {'match':>6}")
    ok = True
    for algo, want, got in verify.ledger_rows(cfg, spec.algorithms):
        ok &= got == want
        if isinstance(got, str):  # the failed Cell's error
            print(f"{algo.name:<12} {_fmt_frac(want):>14} {'FAIL':>14} {got}")
            continue
        print(f"{algo.name:<12} {_fmt_frac(want):>14} {_fmt_frac(got):>14} "
              f"{'yes' if got == want else 'NO':>6}")
        # the note's figures are for the bcd-lrd rank, so only a row that ran has them
        if algo.name == "bcd-lrd":
            aggregate = dbpnet.formula_bcd_lrd_aggregate(c, m, k, n, t, r, ncoh)
            print(f"note: bcd-lrd aggregate closed form {_fmt_frac(aggregate)} exceeds "
                  f"the itemized schedule by {_fmt_frac(aggregate - want)} "
                  f"({2 * n * r}/{ncoh} per symbol); the ledger follows the itemized schedule")
    if unranked:
        print(f"{'bcd-lrd':<12} {'-':>14} {'FAIL':>14} LRD rank r = interf = 0, "
              f"but r must be >= 1; give --r")
    return 0 if ok and not unranked else 1


def _add_settings_flags(p: argparse.ArgumentParser, keys: Sequence[str]) -> None:
    """The --config flag and one flag per setting; values stay strings until parsed."""
    p.add_argument("--config", help="JSON config file with flat keys")
    for key in keys:
        _, _, text = SETTINGS[key]
        if key == "timing":
            p.add_argument("--timing", action="store_const", const=True, help=text)
        else:
            p.add_argument(f"--{key}", help=text)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="dbpeq",
        description="Decentralized LMMSE equalization simulator with exact "
                    "inter-node bandwidth accounting.")
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="run a Monte-Carlo SER sweep")
    _add_settings_flags(p_run, SETTINGS)
    p_run.add_argument("--dump-config", metavar="PATH",
                       help="write the fully-resolved config as JSON")
    p_run.add_argument("--dump-messages", metavar="PATH",
                       help="write a per-message log for one trial")
    p_run.set_defaults(func=cmd_run)

    p_verify = sub.add_parser("verify", help="run headless property checks")
    p_verify.add_argument("--filter", help="only run checks whose name "
                                           "contains this substring")
    p_verify.set_defaults(func=cmd_verify)

    p_bw = sub.add_parser("bandwidth",
                          help="closed-form vs simulated bandwidth table")
    _add_settings_flags(p_bw, _BANDWIDTH_KEYS)
    p_bw.set_defaults(func=cmd_bandwidth)
    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
