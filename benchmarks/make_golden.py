"""Write the reference outputs that the e2 and e3 checks compare against.

Run from the repository root, only at a commit whose CSV output is the
reference (the north-star rule: a given seed's CSV never changes):

    OPENBLAS_NUM_THREADS=1 OMP_NUM_THREADS=1 python3 benchmarks/make_golden.py

It runs e2 and e3 once at their default seeds and sizes and writes
``benchmarks/golden/``: e2's CSV, e3's CSV and ``golden.json`` with e3's
CSV digest and e2's exact mean bcd-conv ledger entries per SNR.
"""

from __future__ import annotations

import hashlib
import json
import os
import sys

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import run  # noqa: E402
import worker  # noqa: E402
from tracing import SolveProbe  # noqa: E402


def main() -> int:
    pkg = worker.import_dbpeq()
    probe = SolveProbe()
    probe.install(pkg)
    os.makedirs(worker.GOLDEN_DIR, exist_ok=True)
    golden = {"src_sha256": run.source_digest(), "commit": run.git_commit()}

    e2 = worker.E2DeskConv(pkg, worker.E2DeskConv.default_seed, False, probe)
    probe.reset()
    text, tol_cells = e2.run_round()
    figures = e2.conv_figures(tol_cells)
    name = f"{e2.name}.seed{e2.seed}.csv"
    with open(os.path.join(worker.GOLDEN_DIR, name), "w", encoding="utf-8",
              newline="") as fh:
        fh.write(text)
    golden[e2.name] = {
        "seed": e2.seed, "trials": e2.trials, "csv": name,
        "bcd_conv_mean_entries": {repr(snr): float(f["mean"])
                                  for snr, f in figures.items()},
    }

    e3 = worker.E3CliSweep(pkg, worker.E3CliSweep.default_seed, False, probe)
    rc, text = e3.run_round()
    e3.cleanup()
    if rc != 0:
        raise SystemExit(f"cli.main exited with {rc}")
    name = f"{e3.name}.seed{e3.seed}.csv"
    with open(os.path.join(worker.GOLDEN_DIR, name), "w", encoding="utf-8",
              newline="") as fh:
        fh.write(text)
    golden[e3.name] = {"seed": e3.seed, "trials": e3.trials, "csv": name,
                       "sha256": hashlib.sha256(text.encode("utf-8")).hexdigest()}

    with open(os.path.join(worker.GOLDEN_DIR, "golden.json"), "w",
              encoding="utf-8") as fh:
        json.dump(golden, fh, indent=1, sort_keys=True)
        fh.write("\n")
    probe.uninstall()
    print(json.dumps(golden, indent=1, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())
