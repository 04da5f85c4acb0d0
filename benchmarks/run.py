"""Benchmark of the dbpeq simulator.

Run from the repository root:

    python3 benchmarks/run.py --workload e1-converge --seed 11 --seconds 30 --trace 0
    python3 benchmarks/run.py              # every workload at its default seed

With ``--workload`` the last line of standard output is one JSON object
with the keys ``correct``, ``attempted``, ``failed`` and ``metrics``: the
end-to-end metrics with ``--trace 0``, the per-layer metrics with
``--trace 1``. Lines before it describe the environment and the checks,
and a detailed record goes to ``benchmarks/out/``.

Without ``--workload`` every workload runs untraced and then traced, each
in fresh processes, and a table of all metrics is printed.

Workloads (defaults are the seeds of the acceptance criteria):

* ``e1-converge``  criterion 01: ``equalizers.bcd_solve`` to tol 1e-12 on 20
  realizations (M=32, K=4, C=4, N=64), no fabric; default seed 11.
* ``e2-desk-conv`` criterion 08's sweep at 5 trials: 7 algorithms including
  ``bcd-conv`` (tol 1e-8 on the daisy fabric) x 5 SNRs through
  ``bench.run_sweep``; default seed 2026.
* ``e3-cli-sweep`` ``cli.main(["run", ...])`` with the CLI defaults and all
  seven algorithms at 50 trials; default seed 0.

Every workload process runs with one worker, ``OPENBLAS_NUM_THREADS=1``
and ``OMP_NUM_THREADS=1``. ``setup_s`` is the median, over five fresh
processes, of process start through ``import dbpeq`` and the warm-up call.
``wall_s`` is the median, over the rounds that fit in ``--seconds``, of
the time of the workload's fixed work. Both are scaled to a reference
machine speed by a calibration loop timed around every timed piece (see
``calibrate.py``); the raw times are printed next to them and kept in the
record. Uses the standard library and numpy only.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import select
import signal
import statistics
import subprocess
import sys
import time

import calibrate

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKER = os.path.join(HERE, "worker.py")
OUT_DIR = os.path.join(HERE, "out")

WORKLOADS = {"e1-converge": 11, "e2-desk-conv": 2026, "e3-cli-sweep": 0}
THREAD_ENV = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1"}
SETUP_SAMPLES = 5
# the whole run must end within 180 s; leave room to report
DEADLINE_S = 170.0


class BenchError(RuntimeError):
    pass


def source_digest() -> str:
    """sha256 over every file under src/dbpeq (path and bytes)."""
    h = hashlib.sha256()
    base = os.path.join(ROOT, "src", "dbpeq")
    for dirpath, dirnames, filenames in os.walk(base):
        dirnames[:] = sorted(d for d in dirnames if d != "__pycache__")
        for name in sorted(filenames):
            path = os.path.join(dirpath, name)
            h.update(os.path.relpath(path, base).encode())
            with open(path, "rb") as fh:
                h.update(fh.read())
    return h.hexdigest()


def git_commit() -> str:
    """HEAD of the checkout, read from .git without running git."""
    git = os.path.join(ROOT, ".git")
    try:
        with open(os.path.join(git, "HEAD"), encoding="utf-8") as fh:
            head = fh.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        ref_path = os.path.join(git, ref)
        if os.path.isfile(ref_path):
            with open(ref_path, encoding="utf-8") as fh:
                return fh.read().strip()
        with open(os.path.join(git, "packed-refs"), encoding="utf-8") as fh:
            for line in fh:
                if line.rstrip().endswith(" " + ref):
                    return line.split()[0]
    except OSError:
        pass
    return "unknown (no git metadata in this checkout)"


class Child:
    """A worker process whose stdout is read line by line with a deadline."""

    def __init__(self, args: list[str], deadline: float):
        env = dict(os.environ, **THREAD_ENV)
        self.deadline = deadline
        self.t0 = time.perf_counter()
        self.proc = subprocess.Popen([sys.executable, WORKER] + args, cwd=ROOT,
                                     env=env, stdout=subprocess.PIPE, bufsize=0)
        self._buf = b""

    def readline(self) -> str:
        """Next stdout line, or '' at end of output."""
        fd = self.proc.stdout.fileno()
        while b"\n" not in self._buf:
            left = self.deadline - time.perf_counter()
            if left <= 0 or not select.select([fd], [], [], left)[0]:
                raise BenchError("worker did not finish in time")
            chunk = os.read(fd, 1 << 16)
            if not chunk:
                line, self._buf = self._buf, b""
                return line.decode()
            self._buf += chunk
        line, self._buf = self._buf.split(b"\n", 1)
        return line.decode() + "\n"

    def wait_ready(self) -> float:
        """Seconds from process start to the worker's READY line."""
        while True:
            line = self.readline()
            if not line:
                raise BenchError(f"worker exited before READY (code {self.finish()})")
            if line.strip() == "READY":
                return time.perf_counter() - self.t0

    def read_result(self) -> dict:
        last = ""
        while True:
            line = self.readline()
            if not line:
                break
            if line.strip():
                last = line
        code = self.finish()
        if code != 0 or not last:
            raise BenchError(f"worker failed with exit code {code}")
        return json.loads(last)

    def finish(self) -> int:
        try:
            return self.proc.wait(timeout=max(1.0, self.deadline - time.perf_counter()))
        except subprocess.TimeoutExpired:
            self.kill()
            raise BenchError("worker did not exit in time") from None
        finally:
            self.proc.stdout.close()

    def kill(self):
        if self.proc.poll() is None:
            self.proc.kill()
        self.proc.wait()


def run_workload(workload: str, seed: int, seconds: float, trace: int,
                 tiny: bool = False, deadline: float = None) -> dict:
    """Set-up samples, then the workload in one fresh process; a full record."""
    if not os.path.isfile(os.path.join(ROOT, "src", "dbpeq", "__init__.py")):
        raise BenchError("no dbpeq sources under src/ of this checkout")
    if deadline is None:
        deadline = time.perf_counter() + DEADLINE_S
    base = ["--workload", workload, "--seed", str(seed), "--seconds", str(seconds),
            "--trace", str(trace)] + (["--tiny"] if tiny else [])
    children = []
    calib = calibrate.Calibrator()
    try:
        setups, setups_raw = [], []
        for _ in range(SETUP_SAMPLES):
            before = calib.burst()
            child = Child(base + ["--setup-only"], deadline)
            children.append(child)
            ready = child.wait_ready()
            code = child.finish()
            if code != 0:
                raise BenchError(f"set-up process failed with exit code {code}")
            setups_raw.append(ready)
            setups.append(ready * calibrate.REFERENCE_S / (0.5 * (before + calib.burst())))
        child = Child(base, deadline)
        children.append(child)
        child.wait_ready()
        result = child.read_result()
    finally:
        for c in children:
            c.kill()
    result["setup_samples_s"] = setups
    result["setup_samples_raw_s"] = setups_raw
    result["env"].update(commit=git_commit(), src_sha256=source_digest(), seed=seed,
                         **THREAD_ENV)
    return result


def summarize(result: dict, trace: int) -> dict:
    """The contract's result object from a worker record."""
    rounds = result["rounds"]
    attempted = result["units_per_round"] * len(rounds)
    failed = sum(r["failed_units"] for r in rounds)
    correct = all(r["checks_ok"] and r["checks_run"] for r in rounds)
    if trace:
        metrics = result["per_layer"]
    else:
        metrics = {
            "wall_s": {"value": statistics.median(result["round_s"]), "unit": "s"},
            "setup_s": {"value": statistics.median(result["setup_samples_s"]), "unit": "s"},
            "peak_rss_mb": {"value": result["peak_rss_mb"], "unit": "MiB"},
            "ok_frac": {"value": 1.0 - failed / attempted, "unit": "ratio"},
        }
    return {"correct": correct, "attempted": attempted, "failed": failed,
            "metrics": metrics}


def write_record(result: dict, summary: dict, trace: int) -> str:
    os.makedirs(OUT_DIR, exist_ok=True)
    path = os.path.join(OUT_DIR, f"{result['workload']}.seed{result['seed']}"
                                 f".trace{trace}.json")
    with open(path, "w", encoding="utf-8") as fh:
        json.dump({"summary": summary, "record": result}, fh, indent=1)
        fh.write("\n")
    return path


def describe(result: dict, summary: dict, trace: int, path: str) -> list[str]:
    env = result["env"]
    rounds = result["rounds"]
    lines = [f"# env {json.dumps(env, sort_keys=True)}",
             f"# {result['workload']} seed {result['seed']}: "
             f"{'traced' if trace else 'untraced'}, {len(result['round_s'])} untraced "
             f"round(s) of {result['units_per_round']} units, checks: {result['checks']}"
             + ("" if result["checks"] != "property"
                else " (golden comparison only at the default seed)"),
             f"# checks run: {'; '.join(rounds[0]['checks_run'])}"]
    for r in rounds:
        for f in r["failures"]:
            lines.append(f"# CHECK FAILED: {f}")
    width = max(len(k) for k in summary["metrics"])
    for name, m in summary["metrics"].items():
        lines.append(f"{name:<{width}}  {m['value']:.6g} {m['unit']}")
    if not trace:
        for name, key in (("wall_s", "round_raw_s"), ("setup_s", "setup_samples_raw_s")):
            lines.append(f"{'raw ' + name:<{width}}  {statistics.median(result[key]):.6g}"
                         " s (not scaled to the reference machine speed)")
        fail = summary["failed"] / summary["attempted"]
        lines.append(f"{'fail_frac':<{width}}  {fail:.6g} ratio "
                     f"({summary['failed']}/{summary['attempted']} units)")
    lines.append(f"# record: {os.path.relpath(path, ROOT)}")
    return lines


def run_one(args) -> int:
    seed = WORKLOADS[args.workload] if args.seed is None else args.seed
    result = run_workload(args.workload, seed, args.seconds, args.trace, args.tiny)
    summary = summarize(result, args.trace)
    path = write_record(result, summary, args.trace)
    print("\n".join(describe(result, summary, args.trace, path)))
    print(json.dumps(summary), flush=True)
    return 0


def run_all(args) -> int:
    ok = True
    for workload, default_seed in WORKLOADS.items():
        seed = default_seed if args.seed is None else args.seed
        for trace in (0, 1):
            result = run_workload(workload, seed, args.seconds, trace, args.tiny)
            summary = summarize(result, trace)
            path = write_record(result, summary, trace)
            print("\n".join(describe(result, summary, trace, path)), flush=True)
            ok &= summary["correct"]
    return 0 if ok else 1


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(
        description="dbpeq benchmark: end-to-end and per-layer metrics")
    ap.add_argument("--workload", choices=sorted(WORKLOADS),
                    help="one workload (default: all, untraced then traced)")
    ap.add_argument("--seed", type=int, help="workload seed (default: the criterion's)")
    ap.add_argument("--seconds", type=float, default=30.0,
                    help="measuring time per run")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0,
                    help="1: report per-layer metrics from a traced run")
    ap.add_argument("--tiny", action="store_true",
                    help="smallest inputs, property checks only")
    args = ap.parse_args(argv)
    # turn SIGTERM into SystemExit so that run_workload stops its children
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    try:
        return run_one(args) if args.workload else run_all(args)
    except BenchError as exc:
        print(f"benchmark: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
