"""Machine-speed calibration for timings taken on a shared machine.

On a small shared virtual machine the speed a process gets drifts by a
third for tens of seconds at a time, so the wall time of one fixed piece
of work moves by that much from run to run. The benchmark therefore times
this fixed loop before and after every timed piece and scales the piece's
wall time by ``REFERENCE_S`` over the mean of the two loop times: the
result is the piece's time at the reference speed. Raw times are recorded
next to every scaled one.

The loop mixes the two kinds of work dbpeq does, without calling dbpeq:
the small complex products of one BCD block step (K=4, an 8-row block,
N=64), and the interpreter work of the simulated fabric (a context-manager
scope, a frozen dataclass message per send, a phase string parsed into a
ledger key). ``REFERENCE_S`` is its time on an idle 2-vCPU Intel Xeon at
2.0 GHz with CPython 3.11, numpy 2.4 and single-threaded OpenBLAS 0.3.31.
"""

from __future__ import annotations

import time
from contextlib import contextmanager
from dataclasses import dataclass

import numpy as np

REFERENCE_S = 0.0135
ITERATIONS = 600


@dataclass(frozen=True)
class _Message:
    phase: str
    src: int
    dst: int
    rows: int
    cols: int


class Calibrator:
    def __init__(self):
        rng = np.random.default_rng(20231)

        def cn(*shape):
            return rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
        self.h, self.s, self.w = cn(8, 4), cn(8, 64), cn(4, 8)
        self.a, self.b = cn(4, 4), cn(4, 64)
        self.hh, self.sh = self.h.conj().T, self.s.conj().T
        self._active = None

    @contextmanager
    def _scope(self, c):
        prev, self._active = self._active, c
        try:
            yield c
        finally:
            self._active = prev

    def burst(self) -> float:
        """Seconds the fixed loop takes now."""
        h, s, w, a, b, hh, sh = self.h, self.s, self.w, self.a, self.b, self.hh, self.sh
        ledger: dict[int, int] = {}
        t0 = time.perf_counter()
        for t in range(ITERATIONS):
            with self._scope(t % 4 + 1):
                a2 = a - w @ h
                b2 = b - w @ s
                num = hh - a2 @ hh - b2 @ sh
                np.linalg.norm(num, "fro")
            for arr in (a2, b2):
                msg = _Message(f"iteration[{t}]", t % 4 + 1, t % 4 + 2, *arr.shape)
                key = int(msg.phase[len("iteration["):-1])
                ledger[key] = ledger.get(key, 0) + 2 * msg.rows * msg.cols
        return time.perf_counter() - t0

    def timed(self, fn):
        """Run ``fn`` between two loops: (result, raw seconds, scaled seconds)."""
        before = self.burst()
        t0 = time.perf_counter()
        result = fn()
        raw = time.perf_counter() - t0
        return result, raw, raw * REFERENCE_S / (0.5 * (before + self.burst()))
