"""Self-test of the benchmark; takes about a minute.

Run from the repository root:

    python3 benchmarks/selftest.py

Runs every workload at its tiny size, untraced and traced, through the
same command line as a full run, and fails unless

* the result line has the contract's keys and every metric named in
  BENCHMARK.json appears with its unit;
* the output checks ran in every round and passed;
* e3's reference digest in BENCHMARK.json matches ``golden/golden.json``;
* the benchmark refuses to run without the dbpeq sources;
* the files under ``src/dbpeq`` are byte-for-byte unchanged afterwards.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

import run  # noqa: E402


class SelfTestError(AssertionError):
    pass


def check(cond: bool, msg: str) -> None:
    if not cond:
        raise SelfTestError(msg)


def bench_spec() -> dict:
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        return json.load(fh)


def run_cli(args, cwd=ROOT) -> subprocess.CompletedProcess:
    return subprocess.run([sys.executable, os.path.join("benchmarks", "run.py")] + args,
                          cwd=cwd, capture_output=True, text=True, timeout=180)


def check_workload(spec: dict, workload: str, trace: int) -> None:
    proc = run_cli(["--workload", workload, "--seed", "5", "--seconds", "2",
                    "--trace", str(trace), "--tiny"])
    check(proc.returncode == 0, f"{workload} trace {trace}: exit {proc.returncode}\n"
                                f"{proc.stderr}")
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    check(set(result) == {"correct", "attempted", "failed", "metrics"},
          f"{workload}: result keys {sorted(result)}")
    check(result["correct"] is True, f"{workload}: output checks failed")
    check(isinstance(result["attempted"], int) and result["attempted"] >= 1,
          f"{workload}: attempted {result['attempted']}")
    named = spec["per_layer"] if trace else spec["end_to_end"]
    want = {m["name"]: m["unit"] for m in named}
    got = {k: v["unit"] for k, v in result["metrics"].items()}
    check(got == want, f"{workload} trace {trace}: metrics differ from BENCHMARK.json: "
                       f"missing {sorted(set(want) - set(got))}, "
                       f"extra {sorted(set(got) - set(want))}, "
                       f"units {[k for k in want if got.get(k, want[k]) != want[k]]}")
    for name, m in result["metrics"].items():
        check(isinstance(m["value"], (int, float)), f"{workload}: {name} not a number")
    record_path = os.path.join(run.OUT_DIR, f"{workload}.seed5.trace{trace}.json")
    with open(record_path, encoding="utf-8") as fh:
        record = json.load(fh)["record"]
    check(record["checks"] == "property", f"{workload}: tiny run must use property checks")
    for r in record["rounds"]:
        check(r["checks_run"], f"{workload}: a round ran no output checks")
    check(set(record["env"]) >= {"nproc", "python", "numpy", "scipy", "blas", "commit",
                                 "seed", "OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS"},
          f"{workload}: environment record incomplete: {sorted(record['env'])}")
    if trace:
        check(not record["missing_names"], f"{workload}: tracer could not find "
                                           f"{record['missing_names']}")
        per = record["per_layer"]
        check(abs(per["trace.self_sum_s"]["value"] - per["trace.wall_s"]["value"]) < 1e-6,
              f"{workload}: span self times do not add up to the traced wall time")


def check_golden_digest(spec: dict) -> None:
    with open(os.path.join(HERE, "golden", "golden.json"), encoding="utf-8") as fh:
        digest = json.load(fh)["e3-cli-sweep"]["sha256"]
    why = {w["name"]: w["why"] for w in spec["workloads"]}["e3-cli-sweep"]
    check(digest in why, "e3 reference digest in BENCHMARK.json differs from golden.json")


def check_refuses_without_sources() -> None:
    bare = os.path.join(run.OUT_DIR, "bare")
    shutil.rmtree(bare, ignore_errors=True)
    shutil.copytree(HERE, os.path.join(bare, "benchmarks"),
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
    try:
        proc = run_cli(["--workload", "e1-converge", "--seed", "1", "--seconds", "1",
                        "--trace", "0"], cwd=bare)
    finally:
        shutil.rmtree(bare, ignore_errors=True)
    check(proc.returncode != 0, "benchmark ran without the dbpeq sources")
    last = (proc.stdout.strip().splitlines() or [""])[-1]
    check('"metrics"' not in last, "benchmark printed a result without the sources")


def main() -> int:
    spec = bench_spec()
    before = run.source_digest()
    steps = [("e3 digest recorded", lambda: check_golden_digest(spec)),
             ("refuses without sources", check_refuses_without_sources)]
    for w in spec["workloads"]:
        for trace in (0, 1):
            steps.append((f"{w['name']} trace {trace}",
                          lambda w=w["name"], t=trace: check_workload(spec, w, t)))
    failed = 0
    for name, step in steps:
        try:
            step()
            print(f"PASS  {name}", flush=True)
        except SelfTestError as exc:
            failed += 1
            print(f"FAIL  {name}: {exc}", flush=True)
    unchanged = run.source_digest() == before
    print(f"{'PASS' if unchanged else 'FAIL'}  src/dbpeq unchanged", flush=True)
    return 0 if failed == 0 and unchanged else 1


if __name__ == "__main__":
    sys.exit(main())
