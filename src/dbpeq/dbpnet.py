"""Simulated DBP fabric: nodes, topologies, message accounting, protocols.

The fabric is an in-process event simulation. Inter-node data moves only
through :class:`Message` objects created by :meth:`Fabric.send`; every
message's real-entry count is derived from its payload shape and added
to the :class:`BandwidthLedger`. Distributed-unit state is guarded so a
protocol driver cannot read another node's raw data outside that node's
local-computation scope.

Protocol drivers reorganize the equalizer computations across nodes but
call the same helpers as :mod:`dbpeq.equalizers`, so the results match
the library forms exactly.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from typing import Optional, Sequence

import numpy as np

from . import equalizers as eq
from .numerics import (NotPositiveDefinite, RankOutOfRange, hermitize,
                       hpd_solve, truncated_svd)
from .scenario import Realization, sample_covariance

CU = -1          # central unit id (star topology)
OUT = -2         # decoder / output link

_ITERATION = "iteration["   # phase prefix of BCD sweep t: "iteration[t]"


class LocalityError(RuntimeError):
    """A protocol driver read a DU's raw data outside its local scope."""


class TopologyError(ValueError):
    pass


@dataclass(frozen=True)
class Topology:
    kind: str  # "star" or "daisy"
    C: int

    def __post_init__(self):
        if self.kind not in ("star", "daisy"):
            raise TopologyError(f"unknown topology {self.kind!r}")

    def check_link(self, src: int, dst: int) -> None:
        if dst == OUT or src == OUT:
            return
        if self.kind == "star":
            if CU not in (src, dst):
                raise TopologyError(f"star permits DU<->CU links only, got {src}->{dst}")
        else:
            if src == CU or dst == CU:
                raise TopologyError("daisy topology has no CU")
            if dst != src % self.C + 1:
                raise TopologyError(f"daisy link must be {src}->{src % self.C + 1}, got {src}->{dst}")


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
    """Per-phase and per-link counts of real entries moved over the fabric."""

    ONE_TIME_PHASES = ("preprocessing", "lrd")

    def __init__(self, n_coh: int):
        self.n_coh = int(n_coh)
        self.phases: dict[str, int] = {"preprocessing": 0, "lrd": 0, "symbol_estimation": 0}
        self.iterations: list[int] = []
        self.per_link: dict[tuple[int, int], int] = {}

    def record(self, phase: str, src: int, dst: int, count: int) -> None:
        """Add ``count`` real entries sent from ``src`` to ``dst`` in ``phase``."""
        if phase.startswith(_ITERATION):
            t = int(phase[len(_ITERATION):-1])
            iterations = self.iterations
            while len(iterations) <= t:
                iterations.append(0)
            iterations[t] += count
        else:
            self.phases[phase] = self.phases.get(phase, 0) + count
        link = (src, dst)
        self.per_link[link] = self.per_link.get(link, 0) + count

    @property
    def total(self) -> int:
        return sum(self.phases.values()) + sum(self.iterations)

    def per_symbol_average(self) -> Fraction:
        """Exact per-symbol average: total entries over the coherence block."""
        return Fraction(self.total, self.n_coh)


class DuState:
    """One distributed unit: local channel block, pilot samples, received signals.

    Raw local data is readable only inside ``fabric.local(id)``; anything
    a DU learns from elsewhere must arrive as a Message payload.
    """

    def __init__(self, du_id: int, h: np.ndarray, noise: np.ndarray,
                 y: Optional[np.ndarray] = None):
        self.id = du_id
        self._h = h
        self._noise = noise
        self._y = y
        self._fabric: Optional["Fabric"] = None
        # protocol-local caches (compression matrix, current W block, ...)
        self.cache: dict = {}

    def _check(self):
        f = self._fabric
        if f is not None and f.active is not None and f.active != self.id:
            raise LocalityError(
                f"DU {f.active} attempted to read raw data of DU {self.id}")

    @property
    def H(self) -> np.ndarray:
        self._check()
        return self._h

    @property
    def noise(self) -> np.ndarray:
        self._check()
        return self._noise

    @property
    def samples(self) -> np.ndarray:
        """Scaled pilot samples noise/sqrt(N)."""
        self._check()
        return self._noise / np.sqrt(self._noise.shape[1])

    @property
    def Y(self) -> np.ndarray:
        self._check()
        return self._y


class Fabric:
    """A deterministic, single-threaded message-passing simulation."""

    def __init__(self, topology: Topology, dus: Sequence[DuState],
                 ledger: Optional[BandwidthLedger] = None, n_coh: int = 1,
                 record_log: bool = False):
        if len(dus) != topology.C:
            raise TopologyError("DU count does not match topology")
        self.topology = topology
        self.dus = {du.id: du for du in dus}
        for du in dus:
            du._fabric = self
        self.ledger = ledger if ledger is not None else BandwidthLedger(n_coh)
        self.log: list[Message] = []
        self.record_log = record_log
        self.active: Optional[int] = None
        # (src, dst) pairs that passed Topology.check_link
        self._legal_links: set[tuple[int, int]] = set()

    @property
    def C(self) -> int:
        return self.topology.C

    def du(self, c: int) -> DuState:
        return self.dus[c]

    def next_du(self, c: int) -> int:
        return c % self.C + 1

    def local(self, c: int) -> "_LocalScope":
        """Scope in which only DU c's raw data may be read; yields DU c."""
        return _LocalScope(self, c)

    def send(self, phase: str, src: int, dst: int, kind: str, payload: np.ndarray) -> Message:
        link = (src, dst)
        if link not in self._legal_links:
            # an illegal link raises here and is never remembered
            self.topology.check_link(src, dst)
            self._legal_links.add(link)
        arr = np.asarray(payload)
        shape = arr.shape
        rows = shape[0] if shape else 1
        cols = shape[1] if len(shape) > 1 else 1
        self.ledger.record(phase, src, dst, 2 * rows * cols)
        msg = Message(phase, src, dst, kind, rows, cols, arr)
        if self.record_log:
            self.log.append(msg)
        return msg

    def dump_log(self) -> str:
        return "\n".join(m.log_line() for m in self.log)


class _LocalScope:
    """Context manager of :meth:`Fabric.local`; restores the previous scope on exit."""

    __slots__ = ("_fabric", "_c", "_prev")

    def __init__(self, fabric: Fabric, c: int):
        self._fabric = fabric
        self._c = c

    def __enter__(self) -> DuState:
        fabric = self._fabric
        du = fabric.dus[self._c]
        self._prev = fabric.active
        fabric.active = self._c
        return du

    def __exit__(self, *exc) -> None:
        self._fabric.active = self._prev


def make_fabric(realization: Realization, y: Optional[np.ndarray], kind: str,
                n_coh: Optional[int] = None, record_log: bool = False) -> Fabric:
    """Build a fabric whose DUs hold the per-cluster slices of a realization."""
    part = realization.partition
    if n_coh is None:
        n_coh = y.shape[1] if y is not None else 1
    dus = []
    for c in range(part.C):
        rows = part.rows(c)
        dus.append(DuState(c + 1, realization.H[rows], realization.noise[rows],
                           None if y is None else y[rows]))
    return Fabric(Topology(kind, part.C), dus, n_coh=n_coh, record_log=record_log)


def replay_totals(log_text: str) -> dict[str, int]:
    """Independent ledger recomputation from a message-log dump."""
    totals: dict[str, int] = {}
    for line in log_text.splitlines():
        if not line.strip():
            continue
        phase, _src, _dst, _kind, rows, cols, _entries = line.split(",")
        totals[phase] = totals.get(phase, 0) + 2 * int(rows) * int(cols)
    return totals


# ---------------------------------------------------------------------------
# Star protocols
# ---------------------------------------------------------------------------

def _star_compress(fabric: Fabric, phase: str = "preprocessing"):
    """Each DU compresses locally and ships (Q_c H_c, {Q_c n_c^i}, Q_c y_c)."""
    qh_msgs, qn_msgs, qy_msgs = [], [], []
    for c in range(1, fabric.C + 1):
        with fabric.local(c) as du:
            nc = du.noise
            q = eq.local_compression(du.H, sample_covariance(nc))
            du.cache["Q"] = q
            qh = q @ du.H
            qn = q @ nc
            qy = q @ du.Y
        qh_msgs.append(fabric.send(phase, c, CU, "compressed_channel", qh))
        qn_msgs.append(fabric.send(phase, c, CU, "compressed_samples", qn))
        qy_msgs.append(fabric.send("symbol_estimation", c, CU, "compressed_signal", qy))
    return ([m.payload for m in qh_msgs], [m.payload for m in qn_msgs],
            [m.payload for m in qy_msgs])


def run_sdr_star(fabric: Fabric, es: float):
    """Superimposed DR equalization over the star fabric."""
    qh, qn, qy = _star_compress(fabric)
    h_eff = sum(qh)
    n_eff = sum(qn)
    y_eff = sum(qy)
    r_eff = sample_covariance(n_eff)
    return eq._compressed_lmmse(h_eff, r_eff, y_eff, es, "sdr")


def run_cdr_star(fabric: Fabric, es: float):
    """Concatenated DR equalization; identical transfers to run_sdr_star."""
    qh, qn, qy = _star_compress(fabric)
    h_eff = np.vstack(qh)
    n_eff = np.vstack(qn)
    y_eff = np.vstack(qy)
    if n_eff.shape[1] < n_eff.shape[0]:
        raise NotPositiveDefinite(
            f"concatenated sample covariance has rank at most "
            f"{n_eff.shape[1]} < dimension {n_eff.shape[0]} (N < C*K)")
    r_eff = sample_covariance(n_eff)
    return eq._compressed_lmmse(h_eff, r_eff, y_eff, es, "cdr")


# ---------------------------------------------------------------------------
# BDAC (either topology)
# ---------------------------------------------------------------------------

def run_bdac(fabric: Fabric, es: float) -> eq.EqualizerResult:
    """Decentralized block-diagonal-covariance MMSE.

    K x K Gram partials flow up (star) or around the ring (daisy); the
    summed Gram flows back and each DU solves for its own W_c.
    """
    k = None
    partials = []
    for c in range(1, fabric.C + 1):
        with fabric.local(c) as du:
            q = eq.local_compression(du.H, sample_covariance(du.noise))
            du.cache["Q"] = q
            gc = q @ du.H
            k = gc.shape[0]
        partials.append(gc)

    if fabric.topology.kind == "star":
        acc = np.zeros((k, k), dtype=np.complex128)
        for c in range(1, fabric.C + 1):
            fabric.send("preprocessing", c, CU, "gram_partial", partials[c - 1])
            acc = acc + partials[c - 1]
        gram = hermitize(acc)
        for c in range(1, fabric.C + 1):
            fabric.send("preprocessing", CU, c, "gram_total", gram)
    else:
        acc = np.zeros((k, k), dtype=np.complex128)
        for c in range(1, fabric.C + 1):
            acc = acc + partials[c - 1]
            fabric.send("preprocessing", c, fabric.next_du(c), "gram_partial", acc)
        gram = hermitize(acc)
        for c in range(1, fabric.C + 1):
            fabric.send("preprocessing", c, fabric.next_du(c), "gram_total", gram)

    atot = gram + np.eye(k) / es
    blocks = []
    for c in range(1, fabric.C + 1):
        with fabric.local(c) as du:
            wc = hpd_solve(atot, du.cache["Q"])
            du.cache["W"] = wc
        blocks.append(wc)
    w = np.hstack(blocks)
    return eq.EqualizerResult(W=w, blocks=tuple(blocks), algorithm="bdac")


def accumulate_symbols(fabric: Fabric) -> np.ndarray:
    """Ring/star accumulation of the per-cluster partial estimates W_c y_c.

    Each DU forwards the running K x n_coh partial; the last hop is the
    delivery to the output (decoder) link, so the phase counts exactly
    2*C*K entries per symbol.
    """
    acc = None
    for c in range(1, fabric.C + 1):
        with fabric.local(c) as du:
            part = du.cache["W"] @ du.Y
        if fabric.topology.kind == "star":
            fabric.send("symbol_estimation", c, CU, "symbol_partial", part)
        else:
            dst = fabric.next_du(c) if c < fabric.C else OUT
            fabric.send("symbol_estimation", c, dst, "symbol_partial",
                        part if acc is None else acc + part)
        acc = part if acc is None else acc + part
    return acc


# ---------------------------------------------------------------------------
# Daisy-chain LRD and BCD
# ---------------------------------------------------------------------------

def run_lrd_daisy(fabric: Fabric, r: int) -> list[np.ndarray]:
    """Sequential rank-r decomposition relay; stores G_c in each DU's cache.

    DU c relays D_c (cumulative-rows x r) and V_c (N x r) to its
    successor; the final V is broadcast (counted once per DU link).
    """
    if fabric.topology.kind != "daisy":
        raise TopologyError("LRD runs on the daisy-chain topology")
    m_total = sum(du._h.shape[0] for du in fabric.dus.values())
    n_samples = next(iter(fabric.dus.values()))._noise.shape[1]
    if r > min(m_total, n_samples):
        raise RankOutOfRange(f"rank {r} exceeds min(M, N)")
    d_prev = None
    v_prev = None
    for c in range(1, fabric.C + 1):
        with fabric.local(c) as du:
            s_c = du.samples
            stack = s_c if d_prev is None else np.vstack([d_prev @ v_prev.conj().T, s_c])
            dec = truncated_svd(stack, min(r, *stack.shape))
            d_c = dec.U * dec.S
            v_c = dec.V
        if c < fabric.C:
            fabric.send("lrd", c, fabric.next_du(c), "lrd_d", d_c)
            fabric.send("lrd", c, fabric.next_du(c), "lrd_v", v_c)
        d_prev, v_prev = d_c, v_c
    v_final = v_prev
    g_blocks = [None] * fabric.C
    # ring broadcast: C -> 1 -> 2 -> ... -> C, one hop per link
    src = fabric.C
    for _ in range(fabric.C):
        dst = fabric.next_du(src)
        fabric.send("lrd", src, dst, "lrd_v_broadcast", v_final)
        with fabric.local(dst) as du:
            g_c = du.samples @ v_final
            du.cache["G"] = g_c
        g_blocks[dst - 1] = g_c
        src = dst
    return g_blocks


def run_bcd_daisy(fabric: Fabric, es: float, sweeps: int = 4,
                  use_lrd: bool = False, r: Optional[int] = None,
                  tol: Optional[float] = None, max_sweeps: int = 200
                  ) -> tuple[eq.EqualizerResult, np.ndarray]:
    """Gauss-Seidel BCD equalization over the ring.

    Preprocessing makes two ring passes: Gram-partial accumulation
    (K x K per hop), then the summed Gram plus the running compressed
    sample accumulator (K x K + K x N, or K x r with LRD) while each DU
    forms its BDAC initial block. Every sweep passes (A, B) around the
    ring as two messages; symbols are accumulated in a final ring pass.

    Without ``tol`` the ring runs ``sweeps`` sweeps of
    :func:`dbpeq.equalizers.bcd_sweep_step`. With ``tol`` (``sweeps`` is
    then ignored) it runs converge mode: the algebraically identical
    block-Newton step :func:`dbpeq.equalizers.bcd_newton_step` until the
    relative block change drops below ``tol`` or ``max_sweeps`` sweeps
    have run. Its result is promised to ``tol``, not to the bits of a
    fixed-sweep run. Either way the filter is bit-identical to
    :func:`dbpeq.equalizers.bcd_solve` run in the same mode.
    """
    if fabric.topology.kind != "daisy":
        raise TopologyError("BCD runs on the daisy-chain topology")
    if use_lrd:
        if r is None:
            raise ValueError("use_lrd requires a rank r")
        run_lrd_daisy(fabric, r)

    k = None
    # pass 1: Gram accumulation around the ring
    acc = None
    for c in range(1, fabric.C + 1):
        with fabric.local(c) as du:
            q = eq.local_compression(du.H, sample_covariance(du.noise))
            du.cache["Q"] = q
            du.cache["S"] = du.cache["G"] if use_lrd else du.samples
            gc = q @ du.H
            k = gc.shape[0]
        acc = gc if acc is None else acc + gc
        fabric.send("preprocessing", c, fabric.next_du(c), "gram_partial", acc)
    gram = hermitize(acc)
    atot = gram + np.eye(k) / es

    # pass 2: relay the summed Gram, accumulate B0 = sum_j W_j0 S_j
    b_acc = None
    for c in range(1, fabric.C + 1):
        with fabric.local(c) as du:
            w0 = hpd_solve(atot, du.cache["Q"])
            du.cache["W"] = w0
            part = w0 @ du.cache["S"]
        b_acc = part if b_acc is None else b_acc + part
        fabric.send("preprocessing", c, fabric.next_du(c), "gram_total", gram)
        fabric.send("preprocessing", c, fabric.next_du(c), "b_acc", b_acc)
    a = hpd_solve(atot, gram)
    b = b_acc

    converge = tol is not None
    factors = {}
    for c in range(1, fabric.C + 1):
        with fabric.local(c) as du:
            factors[c] = eq.BcdBlockFactor(du.H, du.cache["S"], es,
                                           newton=converge)

    n_sweeps = 0
    if converge:
        # Z is rebound by every step, never written in place, so the
        # A and B views sent below stay valid in a recorded log.
        z = np.hstack([a, b])
        ring = [(c, fabric.next_du(c), factors[c], fabric.du(c).cache)
                for c in range(1, fabric.C + 1)]
        send, local, vdot = fabric.send, fabric.local, np.vdot
        for t in range(max_sweeps):
            phase = f"iteration[{t}]"
            change = 0.0
            scale = 0.0
            for c, dst, factor, cache in ring:
                with local(c):
                    w_new, z, d = eq.bcd_newton_step(factor, z, cache["W"])
                    cache["W"] = w_new
                change += vdot(d, d).real
                scale += vdot(w_new, w_new).real
                send(phase, c, dst, "bcd_a", z[:, :k])
                send(phase, c, dst, "bcd_b", z[:, k:])
            n_sweeps += 1
            if eq.bcd_tol_reached(change, scale, tol):
                break
    else:
        for t in range(sweeps):
            phase = f"iteration[{t}]"
            for c in range(1, fabric.C + 1):
                with fabric.local(c) as du:
                    du.cache["W"], a, b = eq.bcd_sweep_step(factors[c], a, b,
                                                            du.cache["W"])
                fabric.send(phase, c, fabric.next_du(c), "bcd_a", a)
                fabric.send(phase, c, fabric.next_du(c), "bcd_b", b)
            n_sweeps += 1

    blocks = tuple(fabric.du(c).cache["W"] for c in range(1, fabric.C + 1))
    w = np.hstack(blocks)
    result = eq.EqualizerResult(W=w, blocks=blocks,
                                algorithm="bcd-lrd" if use_lrd else "bcd",
                                iterations=n_sweeps)
    shat = accumulate_symbols(fabric)
    return result, shat


# ---------------------------------------------------------------------------
# Centralized raw shipping (bandwidth reference)
# ---------------------------------------------------------------------------

def run_centralized(fabric: Fabric, es: float):
    """Ship raw H_c, noise_c, y_c to the CU and equalize centrally.

    Exists for the bandwidth ledger: total transfer is 2M(n_coh + K + N)
    over a coherence block.
    """
    hs, ns, ys = [], [], []
    for c in range(1, fabric.C + 1):
        with fabric.local(c) as du:
            h_c, n_c, y_c = du.H, du.noise, du.Y
        hs.append(fabric.send("preprocessing", c, CU, "raw_channel", h_c).payload)
        ns.append(fabric.send("preprocessing", c, CU, "raw_samples", n_c).payload)
        ys.append(fabric.send("symbol_estimation", c, CU, "raw_signal", y_c).payload)
    h = np.vstack(hs)
    noise = np.vstack(ns)
    y = np.vstack(ys)
    rhat = sample_covariance(noise)
    res = eq.lmmse_centralized(h, rhat, es)
    return res, res.W @ y


# ---------------------------------------------------------------------------
# Closed-form bandwidth expressions (per-symbol averages, exact rationals)
# ---------------------------------------------------------------------------

def formula_centralized(m: int, k: int, n: int, n_coh: int) -> Fraction:
    return Fraction(2 * m * (n_coh + k + n), n_coh)


def formula_dr(c: int, k: int, n: int, n_coh: int) -> Fraction:
    """Shared by the superimposed and concatenated DR equalizers."""
    return Fraction(2 * c * k * (n_coh + k + n), n_coh)


def formula_bcd(c: int, k: int, n: int, t: int, n_coh: int) -> Fraction:
    return (Fraction(c * (4 * k * k + 2 * n * k), n_coh)
            + Fraction(2 * t * c * k * (n + k), n_coh)
            + 2 * c * k)


def formula_lrd_ledger(sizes: Sequence[int], n: int, r: int) -> int:
    """Exact real-entry count of the simulated LRD phase.

    D relays carry min(r, rows) columns over cumulative rows; V relays
    are N x r per hop for C-1 hops, plus a broadcast counted once per DU.
    """
    c = len(sizes)
    total = 0
    cum = 0
    for m_c in sizes[:-1]:
        cum += m_c
        cols = min(r, cum, n)
        total += 2 * cum * cols          # D_c
        total += 2 * n * cols            # V_c
    total += c * 2 * n * r               # broadcast of the final V
    return total


def formula_bcd_lrd_ledger(sizes: Sequence[int], k: int, n: int, t: int, r: int,
                           n_coh: int) -> Fraction:
    """Per-symbol average matching the simulated BCD(LRD) ledger exactly."""
    c = len(sizes)
    return (Fraction(formula_lrd_ledger(sizes, n, r), n_coh)
            + Fraction(c * (4 * k * k + 2 * k * r), n_coh)
            + Fraction(2 * t * c * k * (r + k), n_coh)
            + 2 * c * k)


def formula_bcd_lrd_aggregate(c: int, m: int, k: int, n: int, t: int, r: int,
                              n_coh: int) -> Fraction:
    """The published aggregate ((C-1)Mr + 4CNr)/n_coh + ...

    Counts two more N x r hops than the simulated relay-plus-broadcast
    schedule; the difference is reported, never hidden.
    """
    return (Fraction((c - 1) * m * r + 4 * c * n * r, n_coh)
            + Fraction(c * (4 * k * k + 2 * k * r), n_coh)
            + Fraction(2 * t * c * k * (r + k), n_coh)
            + 2 * c * k)
