"""Message accounting: a :class:`_Route`, bound by :meth:`dbpeq.dbpnet.Fabric.route`
to the messages of one hop, is the one path that adds entries to a
:class:`BandwidthLedger` and logs a :class:`Message` per payload; each of its
sends is one hop charged to one of the ledger's four phases, its payloads
logged in order under one label and link."""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction

import numpy as np

from .numerics import ShapeMismatch


@dataclass(slots=True)
class Message:
    phase: str
    src: int
    dst: int
    kind: str
    rows: int
    cols: int
    payload: object = field(repr=False, default=None, compare=False)

    @property
    def real_entry_count(self) -> int:
        # one complex number = 2 real entries
        return 2 * self.rows * self.cols

    def log_line(self) -> str:
        return (f"{self.phase},{self.src},{self.dst},{self.kind},"
                f"{self.rows},{self.cols},{self.real_entry_count}")


class BandwidthLedger:
    """Counts of real entries moved over the fabric, the four totals of ``phases``;
    a BCD sweep charges ``iteration``, its index only labelling the log, so it
    costs the ledger no entry. Only :meth:`_Route.send` adds to them."""

    def __init__(self, n_coh: int):
        self.n_coh = int(n_coh)
        self.phases = {"preprocessing": 0, "lrd": 0, "iteration": 0, "symbol_estimation": 0}

    @property
    def total(self) -> int:
        return sum(self.phases.values())

    def per_symbol_average(self) -> Fraction:
        """Exact per-symbol average: total entries over the coherence block."""
        return Fraction(self.total, self.n_coh)


class _Route:
    """Messages bound to one link; :meth:`send` adds their entry count, fixed
    at bind, to a phase the ledger names (else KeyError, before any log) and,
    if ``log`` is a list, logs each in order with a copy, a snapshot even of
    a view a later step writes, labelled ``phase[sweep]`` given a sweep."""

    __slots__ = ("_phases", "_log", "_link", "_msgs", "_entries")

    def __init__(self, ledger: BandwidthLedger, log: list | None, link: tuple[int, int], payloads):
        self._phases = ledger.phases
        self._log, self._link = log, link
        self._msgs, size = [], 0
        for kind, payload in payloads:
            arr = np.asarray(payload)
            if arr.ndim > 2:
                raise ShapeMismatch(f"a message payload has at most 2 dimensions, got {arr.shape}")
            self._msgs.append((kind, arr))
            size += arr.size
        self._entries = 2 * size

    def send(self, phase: str, sweep: int | None = None) -> None:
        self._phases[phase] += self._entries
        if self._log is not None:
            src, dst = self._link
            label = phase if sweep is None else f"{phase}[{sweep}]"
            for kind, arr in self._msgs:
                rows, cols = (arr.shape + (1, 1))[:2]
                self._log.append(Message(label, src, dst, kind, rows, cols, arr.copy()))
