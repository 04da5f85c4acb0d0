"""Simulated DBP fabric: nodes, topologies, message accounting, protocols.

The fabric is an in-process event simulation; :class:`Topology` is the one
statement of its graph. Each protocol pass walks DU 1..C: DU c works in its
local scope, then hops: one send of a route that :meth:`Fabric.route` checks
(link and payload shapes) and that counts and logs what it carries
(:mod:`dbpeq.ledger`). A protocol computes from the same arrays it sends,
checked by value in ``tests/test_dbpnet.py``. A DU's raw data cannot be
read outside its scope.

Protocol drivers reorganize the equalizer computations across nodes but
call the same helpers as :mod:`dbpeq.equalizers`, so the results match
the library forms exactly.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, NamedTuple, Optional, Sequence

import numpy as np

from . import equalizers as eq
from .ledger import BandwidthLedger, Message, _Route
from .numerics import NumericsError, hpd_solve
from .scenario import Realization, balanced_partition, sample_covariance

CU = -1          # central unit id (star topology)
OUT = -2         # decoder / output link


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

    def next(self, c: int) -> int:
        """Where DU c's hop goes: the CU on a star, DU c % C + 1 on a daisy."""
        return CU if self.kind == "star" else c % self.C + 1

    def check_link(self, src: int, dst: int) -> None:
        """A link is DU c -> next(c), CU -> DU c on a star, or the one output link."""
        star = self.kind == "star"
        if not ((1 <= src <= self.C and dst == self.next(src))
                or (star and src == CU and 1 <= dst <= self.C)
                or (src, dst) == (CU if star else self.C, OUT)):
            raise TopologyError(f"{self.kind} topology has no link {src}->{dst}")


class DuState:
    """One distributed unit: local channel block, pilot samples, received signals.

    Raw local data is readable only inside ``fabric.local(id)``; anything
    a DU learns from elsewhere must arrive as a Message payload. A DU
    shares its fabric's one-element scope cell, not the fabric itself,
    so a fabric is freed as soon as the last outside reference goes.
    """

    def __init__(self, du_id: int, h: np.ndarray, noise: np.ndarray, y: np.ndarray):
        self.id = du_id
        self._h = h
        self._noise = noise
        self._y = y
        self._scope: list[Optional[int]] = [None]
        # protocol-local caches (compression matrix, current W block, ...)
        self.cache: dict = {}

    def _check(self):
        active = self._scope[0]
        if active is not None and active != self.id:
            raise LocalityError(
                f"DU {active} attempted to read raw data of DU {self.id}")

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
        return eq.scaled_samples(self._noise)

    @property
    def Y(self) -> np.ndarray:
        self._check()
        return self._y


class Fabric:
    """A deterministic, single-threaded message-passing simulation."""

    def __init__(self, topology: Topology, dus: Sequence[DuState], n_coh: int = 1,
                 record_log: bool = False):
        if len(dus) != topology.C:
            raise TopologyError("DU count does not match topology")
        self.topology = topology
        self.dus = {du.id: du for du in dus}
        # id of the DU whose local scope is open, or None
        self._scope: list[Optional[int]] = [None]
        for du in dus:
            du._scope = self._scope
        self.ledger = BandwidthLedger(n_coh)
        self.log: list[Message] = []
        self.record_log = record_log

    @property
    def C(self) -> int:
        return self.topology.C

    def du(self, c: int) -> DuState:
        return self.dus[c]

    def local(self, c: int) -> "_LocalScope":
        """Scope in which only DU c's raw data may be read; yields DU c.

        It may be entered again after it exits, but not while it is open.
        """
        return _LocalScope(self, c)

    def route(self, src: int, dst: int, payloads) -> "_Route":
        """Bind the ``(kind, payload)`` messages to the link src -> dst, each
        payload an array counted at 2 real entries per element. The link is
        checked at every bind, so an illegal one raises every time; a payload
        of over 2 dimensions raises ShapeMismatch."""
        self.topology.check_link(src, dst)
        return _Route(self.ledger, self.log if self.record_log else None, (src, dst), payloads)

    def send(self, phase: str, src: int, dst: int, kind: str, payload) -> None:
        """Send ``payload`` as a one-message route."""
        self.route(src, dst, ((kind, payload),)).send(phase)

    def dump_log(self) -> str:
        return "\n".join(m.log_line() for m in self.log)


class _LocalScope:
    """Context manager of :meth:`Fabric.local`; restores the previous scope on exit."""

    __slots__ = ("_du", "_cell", "_prev")

    def __init__(self, fabric: Fabric, c: int):
        self._du = fabric.dus[c]
        self._cell = fabric._scope

    def __enter__(self) -> DuState:
        cell = self._cell
        self._prev = cell[0]
        cell[0] = self._du.id
        return self._du

    def __exit__(self, exc_type, exc, tb) -> None:
        self._cell[0] = self._prev


def make_fabric(realization: Realization, y: np.ndarray, kind: str, n_coh: int,
                record_log: bool = False) -> Fabric:
    """Build a fabric whose DUs hold the per-cluster slices of a realization."""
    part = realization.partition
    blocks = zip(realization.H_blocks(), realization.noise_blocks(), part.split(y))
    dus = [DuState(c, h, noise, yc) for c, (h, noise, yc) in enumerate(blocks, 1)]
    return Fabric(Topology(kind, part.C), dus, n_coh=n_coh, record_log=record_log)


def replay_totals(log_text: str) -> dict[str, int]:
    """Independent recomputation of a ledger's nonzero phases from a message-log
    dump, a label ``iteration[t]`` counted under ``iteration``."""
    totals: dict[str, int] = {}
    for line in log_text.splitlines():
        if not line.strip():
            continue
        label, _src, _dst, _kind, rows, cols, _entries = line.split(",")
        phase = label.partition("[")[0]
        totals[phase] = totals.get(phase, 0) + 2 * int(rows) * int(cols)
    return totals


# ---------------------------------------------------------------------------
# Reductions shared by the protocols
# ---------------------------------------------------------------------------

def _reduce(fabric: Fabric, phase: str, kind: str, part_of: Callable,
            last: int = OUT) -> np.ndarray:
    """Sum the parts ``part_of(du)`` of DU 1..C over the fabric; returns the sum.

    DU c forms its part in its own scope, at its own hop: on a star it
    sends the part to the CU; on a ring it forwards the running sum to
    DU c+1, and DU C's hop goes to ``last``: the output link for symbol
    estimates, the ring wrap for a Gram.
    """
    star = fabric.topology.kind == "star"
    acc = None
    for c in range(1, fabric.C + 1):
        with fabric.local(c) as du:
            part = part_of(du)
        acc = part if acc is None else acc + part
        dst = last if c == fabric.C and not star else fabric.topology.next(c)
        fabric.send(phase, c, dst, kind, part if star else acc)
    return acc


def _gram(fabric: Fabric, es: float) -> tuple[np.ndarray, np.ndarray]:
    """Each DU caches Q_c; returns (Gram, Atot), ``eq.bdac_operators`` of the summed Q_c H_c."""
    def gram_partial(du: DuState) -> np.ndarray:
        q = du.cache["Q"] = eq.local_compression(du.H, sample_covariance(du.noise))
        return q @ du.H

    gram = _reduce(fabric, "preprocessing", "gram_partial", gram_partial, last=1)
    return eq.bdac_operators(gram, es)


def accumulate_symbols(fabric: Fabric) -> np.ndarray:
    """Ring/star accumulation of the per-cluster partial estimates W_c y_c.

    On the ring the last hop is the delivery to the output (decoder)
    link, so the phase counts exactly 2*C*K entries per symbol.
    """
    return _reduce(fabric, "symbol_estimation", "symbol_partial",
                   lambda du: du.cache["W"] @ du.Y)


# ---------------------------------------------------------------------------
# Star protocols
# ---------------------------------------------------------------------------

def _ship_to_cu(fabric: Fabric, form: str, read: Callable):
    """DU c ships the arrays ``read(du)`` gives in its scope to the CU.

    They go as one ``{form}_channel``, ``{form}_samples`` hop (preprocessing) and
    a ``{form}_signal`` hop (symbol estimation); returns the arrays grouped by kind.
    """
    sent = []
    for c in range(1, fabric.C + 1):
        with fabric.local(c) as du:
            sent.append(read(du))
        channel, samples, signal = sent[-1]
        fabric.route(c, CU, ((f"{form}_channel", channel),
                             (f"{form}_samples", samples))).send("preprocessing")
        fabric.send("symbol_estimation", c, CU, f"{form}_signal", signal)
    return zip(*sent)


def _star_compress(fabric: Fabric):
    """(Q_c H_c), ({Q_c n_c^i}), (Q_c y_c), each DU compressing locally."""
    return _ship_to_cu(fabric, "compressed",
                       lambda du: eq.compress_cluster(du.H, du.Y, du.noise))


def run_sdr_star(fabric: Fabric, es: float):
    """Superimposed DR equalization over the star fabric."""
    return eq.dr_combine(*_star_compress(fabric), es, concatenate=False)


def run_cdr_star(fabric: Fabric, es: float):
    """Concatenated DR equalization; identical transfers to run_sdr_star."""
    return eq.dr_combine(*_star_compress(fabric), es, concatenate=True)


# ---------------------------------------------------------------------------
# BDAC (either topology)
# ---------------------------------------------------------------------------

def run_bdac(fabric: Fabric, es: float) -> tuple[eq.EqualizerResult, np.ndarray]:
    """Decentralized block-diagonal-covariance MMSE.

    K x K Gram partials flow up (star) or around the ring (daisy); the
    summed Gram flows back and each DU solves for its own W_c. Returns
    the result and the symbol estimates of :func:`accumulate_symbols`.
    """
    gram, atot = _gram(fabric, es)
    star = fabric.topology.kind == "star"
    blocks = []
    for c in range(1, fabric.C + 1):
        src, dst = (CU, c) if star else (c, fabric.topology.next(c))
        fabric.send("preprocessing", src, dst, "gram_total", gram)
        with fabric.local(c) as du:
            wc = hpd_solve(atot, du.cache["Q"])
            du.cache["W"] = wc
        blocks.append(wc)
    return eq.EqualizerResult(np.hstack(blocks)), accumulate_symbols(fabric)


# ---------------------------------------------------------------------------
# Daisy-chain LRD and BCD
# ---------------------------------------------------------------------------

def run_lrd_daisy(fabric: Fabric, r: int) -> None:
    """Sequential rank-r decomposition relay; stores G_c in each DU's cache.

    DU c relays D_c (cumulative-rows x r) and V_c (N x r) to its
    successor; the final V is broadcast (counted once per DU link).
    """
    if fabric.topology.kind != "daisy":
        raise TopologyError("LRD runs on the daisy-chain topology")
    d = v = None
    for c in range(1, fabric.C + 1):
        with fabric.local(c) as du:
            d, v = eq.lrd_stage(d, v, du.samples, r)
        if c < fabric.C:
            fabric.route(c, fabric.topology.next(c), (("lrd_d", d), ("lrd_v", v))).send("lrd")
    eq.check_lrd_rank(v, r)
    # ring broadcast of the final V: C -> 1 -> 2 -> ... -> C, one hop per link
    for c in range(1, fabric.C + 1):
        fabric.send("lrd", c - 1 or fabric.C, c, "lrd_v_broadcast", v)
        with fabric.local(c) as du:
            du.cache["G"] = du.samples @ v


def run_bcd_daisy(fabric: Fabric, es: float, sweeps: Optional[int] = None,
                  r: Optional[int] = None, tol: Optional[float] = None,
                  max_sweeps: int = 200) -> tuple[eq.EqualizerResult, np.ndarray]:
    """Gauss-Seidel BCD equalization over the ring; BCD-LRD when ``r`` is given.

    With a rank ``r`` the LRD relay (:func:`run_lrd_daisy`) runs first
    and every DU uses its rank-r G_c in place of its pilot samples.
    Preprocessing makes two ring passes: Gram-partial accumulation
    (K x K per hop), then the summed Gram plus the running compressed
    sample accumulator (K x K + K x N, or K x r with LRD) while each DU
    forms its BDAC initial block. Every sweep passes (A, B) around the
    ring as two messages, ``bcd_a`` (A - I in converge mode, the residual
    the loop steps on) and ``bcd_b``, views of the loop's one live state
    bound once per hop as a route; symbols are accumulated in a final ring pass.

    The sweeps run in :func:`dbpeq.equalizers.bcd_iterate`, each block's
    operators formed and steps run inside its DU's scope, for the sweeps that
    :func:`dbpeq.equalizers.bcd_limit` gives ``sweeps``, ``tol`` and
    ``max_sweeps``; a rejected rule raises before any message is sent.
    Either way the filter is bit-identical to
    :func:`dbpeq.equalizers.bcd_solve` run in the same mode.
    """
    if fabric.topology.kind != "daisy":
        raise TopologyError("BCD runs on the daisy-chain topology")
    limit = eq.bcd_limit(sweeps, tol, max_sweeps)
    if r is not None:
        run_lrd_daisy(fabric, r)

    # pass 1: the Gram partials around the ring
    gram, atot = _gram(fabric, es)
    k = gram.shape[0]

    # pass 2: relay the summed Gram, accumulate B0 = sum_j W_j0 S_j, and
    # factor each DU's block Gram
    ring = range(1, fabric.C + 1)
    b_acc = None
    wb, factors = [], []
    for c in ring:
        with fabric.local(c) as du:
            s = du.cache["S"] = du.samples if r is None else du.cache["G"]
            w0 = hpd_solve(atot, du.cache["Q"])
            part = w0 @ s
            factors.append(eq.BcdBlockFactor(du.H, s, es))
        wb.append(w0)
        b_acc = part if b_acc is None else b_acc + part
        fabric.route(c, fabric.topology.next(c),
                     (("gram_total", gram), ("b_acc", b_acc))).send("preprocessing")
    z = np.hstack([hpd_solve(atot, gram), b_acc])

    # each hop's route of the bcd_a and bcd_b views of the one state that the
    # loop steps in place, bound at the first hop; sweep t only labels the log
    routes = []

    def pass_on(t: int, i: int, z: np.ndarray) -> None:
        if t == i == 0:
            payloads = (("bcd_a", z[:, :k]), ("bcd_b", z[:, k:]))
            routes[:] = [fabric.route(c, fabric.topology.next(c), payloads) for c in ring]
        routes[i].send("iteration", t)

    n_sweeps = eq.bcd_iterate(factors, wb, z, limit, tol,
                              scopes=[fabric.local(c) for c in ring], after=pass_on)
    for c, w in zip(ring, wb):
        fabric.du(c).cache["W"] = w

    return eq.EqualizerResult(np.hstack(wb), n_sweeps), accumulate_symbols(fabric)


# ---------------------------------------------------------------------------
# Centralized raw shipping (the lmmse and zf protocol)
# ---------------------------------------------------------------------------

def _lmmse(h: np.ndarray, noise: np.ndarray, es: float) -> eq.EqualizerResult:
    return eq.lmmse_centralized(h, sample_covariance(noise), es)


def _zf(h: np.ndarray, noise: np.ndarray, es: float) -> eq.EqualizerResult:
    return eq.zf_centralized(h)


def run_centralized(fabric: Fabric, es: float, central: Callable = _lmmse):
    """Ship raw H_c, noise_c, y_c to the CU and equalize centrally.

    ``central(H, noise, es)`` is the equalizer the CU runs (LMMSE by
    default). Total transfer is 2M(n_coh + K + N) over a coherence block.
    """
    hs, ns, ys = _ship_to_cu(fabric, "raw", lambda du: (du.H, du.noise, du.Y))
    res = central(np.vstack(hs), np.vstack(ns), es)
    return res, res.W @ np.vstack(ys)


# ---------------------------------------------------------------------------
# Closed-form bandwidth expressions (per-symbol averages, exact rationals)
# ---------------------------------------------------------------------------

def formula_centralized(m: int, k: int, n: int, n_coh: int) -> Fraction:
    return Fraction(2 * m * (n_coh + k + n), n_coh)


def formula_dr(c: int, k: int, n: int, n_coh: int) -> Fraction:
    """Shared by the superimposed and concatenated DR equalizers."""
    return Fraction(2 * c * k * (n_coh + k + n), n_coh)


def formula_bdac(c: int, k: int, n_coh: int) -> Fraction:
    """K x K Gram partial and total per DU, then the K x n_coh symbol partials."""
    return Fraction(4 * c * k * k, n_coh) + 2 * c * k


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
    """Per-symbol average matching the simulated BCD(LRD) ledger exactly.

    The LRD phase, then BCD with the rank r in place of N.
    """
    return (Fraction(formula_lrd_ledger(sizes, n, r), n_coh)
            + formula_bcd(len(sizes), k, r, t, n_coh))


def formula_bcd_lrd_aggregate(c: int, m: int, k: int, n: int, t: int, r: int,
                              n_coh: int) -> Fraction:
    """The published aggregate ((C-1)Mr + 4CNr)/n_coh + ...

    Counts two more N x r hops than the simulated relay-plus-broadcast
    schedule; the difference is reported, never hidden.
    """
    return (Fraction((c - 1) * m * r + 4 * c * n * r, n_coh)
            + formula_bcd(c, k, r, t, n_coh))


# ---------------------------------------------------------------------------
# The algorithm table
# ---------------------------------------------------------------------------

class Algorithm(NamedTuple):
    """Where one equalizer runs, how, and what it costs on the fabric.

    ``run(fabric, es, spec)`` runs the protocol on a ``topology`` fabric
    and returns its ``(EqualizerResult, estimates)``; ``spec`` is a
    :class:`dbpeq.bench.AlgoSpec`, which may set only the ones of ``T``,
    ``tol`` and ``r`` named in ``params``. ``entries(cfg, spec)`` is the
    exact per-symbol ledger of a fixed-schedule run.
    """

    topology: str
    run: Callable
    entries: Callable
    params: tuple[str, ...] = ()


def _run_bcd(fabric: Fabric, es: float, spec) -> tuple[eq.EqualizerResult, np.ndarray]:
    return run_bcd_daisy(fabric, es, sweeps=spec.T, tol=spec.tol, r=spec.r,
                         max_sweeps=10000)


# Rows call the protocols and formulas by their module-level names, never
# through function objects bound here, so a replaced name is honored.
ALGORITHMS: dict[str, Algorithm] = {
    "zf": Algorithm(
        "star", lambda f, es, a: run_centralized(f, es, _zf),
        lambda cfg, a: formula_centralized(cfg.M, cfg.K, cfg.N, cfg.n_coh)),
    "lmmse": Algorithm(
        "star", lambda f, es, a: run_centralized(f, es, _lmmse),
        lambda cfg, a: formula_centralized(cfg.M, cfg.K, cfg.N, cfg.n_coh)),
    "bdac": Algorithm(
        "star", lambda f, es, a: run_bdac(f, es),
        lambda cfg, a: formula_bdac(cfg.C, cfg.K, cfg.n_coh)),
    "sdr": Algorithm(
        "star", lambda f, es, a: run_sdr_star(f, es),
        lambda cfg, a: formula_dr(cfg.C, cfg.K, cfg.N, cfg.n_coh)),
    "cdr": Algorithm(
        "star", lambda f, es, a: run_cdr_star(f, es),
        lambda cfg, a: formula_dr(cfg.C, cfg.K, cfg.N, cfg.n_coh)),
    "bcd": Algorithm(
        "daisy", _run_bcd,
        lambda cfg, a: formula_bcd(cfg.C, cfg.K, cfg.N, a.T, cfg.n_coh), ("T", "tol")),
    "bcd-lrd": Algorithm(
        "daisy", _run_bcd,
        lambda cfg, a: formula_bcd_lrd_ledger(balanced_partition(cfg.M, cfg.C).sizes,
                                              cfg.K, cfg.N, a.T, a.r, cfg.n_coh),
        ("T", "tol", "r")),
}


class Cell(NamedTuple):
    """One run of a row: its fabric, and its estimates or, if it failed, why."""

    fabric: Fabric
    shat: Optional[np.ndarray]
    error: Optional[str]  # None, or "<class>: <message>" of the NumericsError


def run_cell(spec, realization: Realization, y: np.ndarray, cfg,
             record_log: bool = False) -> Cell:
    """Run the row of ``spec`` (an AlgoSpec) on a new fabric built by the module-level
    ``make_fabric``, so a replaced name sees every cell. The one place where a
    NumericsError becomes a FAIL: the Cell's ``error``, instead of being raised."""
    row = ALGORITHMS[spec.name]
    fabric = make_fabric(realization, y, row.topology, n_coh=cfg.n_coh,
                         record_log=record_log)
    try:
        _, shat = row.run(fabric, cfg.Es, spec)
    except NumericsError as exc:
        return Cell(fabric, None, f"{type(exc).__name__}: {exc}")
    return Cell(fabric, shat, None)
