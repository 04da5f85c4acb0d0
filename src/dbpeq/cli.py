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
import sys
from dataclasses import replace
from fractions import Fraction
from typing import Optional, Sequence

from . import bench, dbpnet, verify
from .bench import ALGORITHMS, RunSpec, default_algo
from .numerics import NumericsError
from .scenario import ConfigError, SystemConfig, gen_realization, gen_symbol_block

# every config key and its default; the casts in _build_spec type the values
_DEFAULTS = {
    "seed": 0, "out": "results.csv", "algorithms": "lmmse,bdac,sdr,cdr,bcd",
    "snr": "0,5,10,15,20", "iot": 10.0, "M": 32, "K": 4, "C": 4, "N": 64,
    "T": 4, "r": None, "ncoh": 480, "trials": 50, "channel": "rayleigh",
    "modulation": "qam16", "workers": 1, "timing": False,
}

# what bad settings raise on their way to a RunSpec (ConfigError is a ValueError)
_SETTINGS_ERRORS = (OSError, TypeError, ValueError)


def _fail_config(msg: str) -> int:
    print(f"config error: {msg}", file=sys.stderr)
    return 2


def _load_config(path: Optional[str]) -> dict:
    cfg = {}
    if path:
        with open(path, "r", encoding="utf-8") as fh:
            data = json.load(fh)
        if not isinstance(data, dict):
            raise ConfigError("config file must contain a JSON object")
        for key, value in data.items():
            if key not in _DEFAULTS:
                raise ConfigError(f"unknown config key: {key!r}")
            cfg[key] = value
    return cfg


def _parse_snr(text) -> tuple[float, ...]:
    try:
        if isinstance(text, (list, tuple)):
            return tuple(float(x) for x in text)
        return tuple(float(x) for x in str(text).split(","))
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"bad snr value: {text!r}") from exc


def _parse_algorithms(text: str) -> tuple[str, ...]:
    names = tuple(x.strip() for x in str(text).split(",") if x.strip())
    for name in names:
        if name not in ALGORITHMS:
            raise ConfigError(
                f"unknown algorithm {name!r}; choose from {', '.join(ALGORITHMS)}")
    return names


def _merged_settings(args: argparse.Namespace) -> dict:
    settings = dict(_DEFAULTS)
    settings.update(_load_config(args.config))
    for key in _DEFAULTS:
        override = getattr(args, key, None)
        if override is not None:
            settings[key] = override
    return settings


def _build_spec(settings: dict, names: Sequence[str] = ()) -> RunSpec:
    """The RunSpec of ``settings``; ``names`` replaces their algorithm list."""
    cfg = SystemConfig(
        M=int(settings["M"]), K=int(settings["K"]), C=int(settings["C"]),
        N=int(settings["N"]), iot_db=float(settings["iot"]),
        n_coh=int(settings["ncoh"]), modulation=str(settings["modulation"]),
        channel_model=str(settings["channel"]), seed=int(settings["seed"]),
    )
    r = settings["r"]
    algos = tuple(
        default_algo(name, cfg, T=int(settings["T"]),
                     r=int(r) if r is not None else None)
        for name in names or _parse_algorithms(settings["algorithms"])
    )
    return RunSpec(
        cfg=cfg, algorithms=algos, snr_grid=_parse_snr(settings["snr"]),
        trials=int(settings["trials"]), out_path=str(settings["out"]),
        timing=bool(settings["timing"]), workers=int(settings["workers"]),
    )


def cmd_run(args: argparse.Namespace) -> int:
    try:
        settings = _merged_settings(args)
        spec = _build_spec(settings)
    except _SETTINGS_ERRORS as exc:
        return _fail_config(str(exc))

    # the sweep runs first, so a config error it raises leaves no file behind
    try:
        report = bench.run_sweep(spec)
    except ConfigError as exc:
        return _fail_config(str(exc))

    if args.dump_config:
        dump = {k: settings[k] for k in sorted(_DEFAULTS) if settings[k] is not None}
        with open(args.dump_config, "w", encoding="utf-8") as fh:
            json.dump(dump, fh, indent=2, sort_keys=True)
            fh.write("\n")

    if args.dump_messages:
        _dump_messages(spec, args.dump_messages)

    failed = [row for row in report.rows if row["ser"] == "FAIL"]
    for row in failed:
        print(f"FAIL {row['algorithm']} at {row['snr_db']} dB: {row['error']}",
              file=sys.stderr)
    print(f"wrote {spec.out_path}: {len(report.rows)} rows, "
          f"{len(failed)} failed", file=sys.stderr)
    if report.rows and len(failed) == len(report.rows) and len(spec.algorithms) > 1:
        print("all algorithms failed numerically", file=sys.stderr)
        return 3
    return 0


def _dump_messages(spec: RunSpec, path: str) -> None:
    """Write one trial's message log; a failed algorithm logs a ``# FAIL`` line."""
    cfg = replace(spec.cfg, snr_db=spec.snr_grid[0])
    rz = gen_realization(cfg, 0)
    block = gen_symbol_block(cfg, rz, 0)
    lines = []
    for algo in spec.algorithms:
        lines.append(f"# algorithm={algo.label}")
        try:
            _, fab = dbpnet.run_cell(algo, rz, block.Y, cfg, record_log=True)
        except NumericsError as exc:
            lines.append(f"# FAIL {type(exc).__name__}: {exc}")
            continue
        lines.append(fab.dump_log())
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("\n".join(lines) + "\n")


def cmd_verify(args: argparse.Namespace) -> int:
    results = verify.run_checks(args.filter, tamper_ledger=args.tamper_ledger)
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
        spec = _build_spec(settings, names=ALGORITHMS)
    except _SETTINGS_ERRORS as exc:
        return _fail_config(str(exc))

    cfg = spec.cfg
    m, k, c, n, ncoh = cfg.M, cfg.K, cfg.C, cfg.N, cfg.n_coh
    lrd = next(a for a in spec.algorithms if a.name == "bcd-lrd")
    t, r = lrd.T, lrd.r
    rz = gen_realization(cfg, 0)
    block = gen_symbol_block(cfg, rz, 0)
    print(f"M={m} K={k} C={c} N={n} T={t} r={r} ncoh={ncoh}")
    print(f"{'algorithm':<12} {'formula':>14} {'ledger':>14} {'match':>6}")
    ok = True
    for algo in spec.algorithms:
        want = dbpnet.ALGORITHMS[algo.name].entries(cfg, algo)
        try:
            _, fab = dbpnet.run_cell(algo, rz, block.Y, cfg)
        except NumericsError as exc:
            ok = False
            print(f"{algo.name:<12} {_fmt_frac(want):>14} {'FAIL':>14} "
                  f"{type(exc).__name__}: {exc}")
            continue
        got = fab.ledger.per_symbol_average()
        ok &= got == want
        print(f"{algo.name:<12} {_fmt_frac(want):>14} {_fmt_frac(got):>14} "
              f"{'yes' if got == want else 'NO':>6}")
        # the note's figures are for the bcd-lrd rank, so only a row that ran has them
        if algo is lrd:
            aggregate = dbpnet.formula_bcd_lrd_aggregate(c, m, k, n, t, r, ncoh)
            ledger = dbpnet.formula_bcd_lrd_ledger(rz.partition.sizes, k, n, t, r, ncoh)
            print(f"note: bcd-lrd aggregate closed form {_fmt_frac(aggregate)} exceeds "
                  f"the itemized schedule by {_fmt_frac(aggregate - ledger)} "
                  f"({2 * n * r}/{ncoh} per symbol); the ledger follows the itemized schedule")
    return 0 if ok else 1


def _add_param_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--config", help="JSON config file with flat keys")
    p.add_argument("--seed", type=int, help="base RNG seed")
    p.add_argument("--M", type=int, help="number of BS antennas")
    p.add_argument("--K", type=int, help="number of users")
    p.add_argument("--C", type=int, help="number of antenna clusters / DUs")
    p.add_argument("--N", type=int, help="training samples per coherence block")
    p.add_argument("--T", type=int, help="BCD sweep count")
    p.add_argument("--r", type=int, help="LRD truncation rank")
    p.add_argument("--ncoh", type=int, help="payload symbols per coherence block")
    p.add_argument("--iot", type=float, help="interference-over-thermal in dB")
    p.add_argument("--channel", choices=("rayleigh", "one_ring"),
                   help="channel model")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="dbpeq",
        description="Decentralized LMMSE equalization simulator with exact "
                    "inter-node bandwidth accounting.")
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="run a Monte-Carlo SER sweep")
    _add_param_flags(p_run)
    p_run.add_argument("--out", help="output CSV path")
    p_run.add_argument("--algorithms",
                       help="comma list: " + ",".join(ALGORITHMS))
    p_run.add_argument("--snr", help="comma list of SNR points in dB")
    p_run.add_argument("--trials", type=int, help="Monte-Carlo trials per point")
    p_run.add_argument("--workers", type=int,
                       help="worker processes (also capped by DBP_EQ_THREADS)")
    p_run.add_argument("--modulation", choices=("qam16", "qpsk"),
                       help="constellation")
    p_run.add_argument("--timing", action="store_const", const=True,
                       default=None,
                       help="record wallclock (breaks byte-identical output)")
    p_run.add_argument("--dump-config", metavar="PATH",
                       help="write the fully-resolved config as JSON")
    p_run.add_argument("--dump-messages", metavar="PATH",
                       help="write a per-message log for one trial")
    p_run.set_defaults(func=cmd_run)

    p_verify = sub.add_parser("verify", help="run headless property checks")
    p_verify.add_argument("--filter", help="only run checks whose name "
                                           "contains this substring")
    p_verify.add_argument("--tamper-ledger", action="store_true",
                          help=argparse.SUPPRESS)
    p_verify.set_defaults(func=cmd_verify)

    p_bw = sub.add_parser("bandwidth",
                          help="closed-form vs simulated bandwidth table")
    _add_param_flags(p_bw)
    p_bw.set_defaults(func=cmd_bandwidth)
    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
