"""Fabric simulation: topology rules, locality, ledger-formula equality."""

import gc
import itertools
import weakref
from fractions import Fraction

import numpy as np
import pytest

from dbpeq import bench, dbpnet, equalizers as eq, ledger
from dbpeq.dbpnet import CU, OUT, LocalityError, TopologyError
from dbpeq.numerics import ShapeMismatch, hermitize
from dbpeq.scenario import (
    ConfigError,
    SystemConfig,
    gen_realization,
    gen_symbol_block,
    sample_covariance,
)


def _cfg(**kw):
    base = dict(M=32, K=4, C=4, N=64, snr_db=10.0, iot_db=10.0, seed=9,
                n_coh=480)
    base.update(kw)
    return SystemConfig(**base)


def _cell(cfg, algo, record_log=False):
    """dbpnet.run_cell on trial 0, which must not fail: (estimates, fabric, realization, block)."""
    rz = gen_realization(cfg, 0)
    blk = gen_symbol_block(cfg, rz, 0)
    cell = dbpnet.run_cell(algo, rz, blk.Y, cfg, record_log=record_log)
    assert cell.error is None
    return cell.shat, cell.fabric, rz, blk


def _fabric(cfg, trial=0, kind="star", record_log=False):
    rz = gen_realization(cfg, trial)
    blk = gen_symbol_block(cfg, rz, trial)
    fab = dbpnet.make_fabric(rz, blk.Y, kind, n_coh=cfg.n_coh,
                             record_log=record_log)
    return fab, rz, blk


def _route_send(fab, phase, src, dst, kind, payload):
    fab.route(src, dst, ((kind, payload),)).send(phase)


def _label_totals(fab):
    """Entries of ``fab``'s message log summed per label, in first-logged order,
    so BCD sweep t is its own ``iteration[t]``."""
    totals = {}
    for m in fab.log:
        totals[m.phase] = totals.get(m.phase, 0) + m.real_entry_count
    return totals


def _check_illegal_link_raises_every_time(send):
    # every bind checks its link, so an illegal one raises every time,
    # and a failed send or bind counts and logs nothing
    fab, _, _ = _fabric(_cfg(), kind="daisy", record_log=True)
    payload = np.zeros((2, 3))
    for _ in range(3):
        send(fab, "preprocessing", 1, 2, "k", payload)
        with pytest.raises(TopologyError):
            send(fab, "preprocessing", 1, 3, "k", payload)
    assert fab.ledger.total == 3 * 12
    assert [(m.src, m.dst) for m in fab.log] == [(1, 2)] * 3


def _check_counts_by_size_and_rejects_over_two_dimensions(send):
    # a scalar counts as 1 x 1 and a vector as a column; a 3-D payload
    # has no rows x cols form, so it raises rather than count 12 of 48
    fab, _, _ = _fabric(_cfg())
    for payload, entries in ((1.5 + 2j, 2), (np.ones(5), 10), (np.ones((3, 4)), 24)):
        fab.ledger.phases["preprocessing"] = 0
        send(fab, "preprocessing", 1, CU, "k", payload)
        assert fab.ledger.phases["preprocessing"] == entries
    with pytest.raises(ShapeMismatch):
        send(fab, "preprocessing", 1, CU, "k", np.zeros((2, 3, 4), complex))
    assert fab.ledger.phases["preprocessing"] == 24


# links of C = 4 fabrics with an end that is no node, or the CU's loop
NONEXISTENT_LINKS = [("star", CU, CU), ("star", 9, CU), ("star", CU, 0), ("star", CU, 5),
                     ("star", 0, CU), ("daisy", 0, 1), ("daisy", 8, 1), ("daisy", 5, 2)]


class TestTopology:
    def test_star_rejects_du_to_du(self):
        top = dbpnet.Topology("star", 4)
        with pytest.raises(TopologyError):
            top.check_link(1, 2)
        top.check_link(1, CU)
        top.check_link(CU, 3)

    def test_daisy_rejects_skips_and_cu(self):
        top = dbpnet.Topology("daisy", 4)
        top.check_link(1, 2)
        top.check_link(4, 1)       # ring wrap
        with pytest.raises(TopologyError):
            top.check_link(1, 3)
        with pytest.raises(TopologyError):
            top.check_link(2, 1)   # wrong direction
        with pytest.raises(TopologyError):
            top.check_link(1, CU)

    def test_out_link_always_allowed(self):
        dbpnet.Topology("daisy", 4).check_link(4, OUT)
        dbpnet.Topology("star", 4).check_link(CU, OUT)

    @pytest.mark.parametrize("kind,src,dst", [
        ("daisy", 2, OUT), ("daisy", OUT, 1), ("star", 1, OUT), ("star", OUT, CU)])
    def test_only_the_reduction_end_reaches_out(self, kind, src, dst):
        # the one output link leaves DU C on a daisy and the CU on a star
        with pytest.raises(TopologyError):
            dbpnet.Topology(kind, 4).check_link(src, dst)

    @pytest.mark.parametrize("kind,src,dst", NONEXISTENT_LINKS)
    def test_links_of_nonexistent_nodes_raise(self, kind, src, dst):
        # DUs are 1..4: a link to or from any other DU id, or from the CU
        # to itself, is one that no protocol can take
        with pytest.raises(TopologyError):
            dbpnet.Topology(kind, 4).check_link(src, dst)

    def test_unknown_kind(self):
        with pytest.raises(TopologyError):
            dbpnet.Topology("mesh", 4)

    def test_du_count_mismatch(self):
        with pytest.raises(TopologyError):
            dbpnet.Fabric(dbpnet.Topology("star", 3), [])

    # Fabric.send and a one-message route share every case below; the
    # route checks its link and shapes when it is bound
    def test_illegal_link_raises_on_every_send(self):
        _check_illegal_link_raises_every_time(dbpnet.Fabric.send)

    def test_illegal_link_raises_on_every_route_bind(self):
        _check_illegal_link_raises_every_time(_route_send)

    def test_send_counts_by_size_and_rejects_over_two_dimensions(self):
        _check_counts_by_size_and_rejects_over_two_dimensions(dbpnet.Fabric.send)

    def test_route_counts_by_size_and_rejects_over_two_dimensions_at_bind(self):
        _check_counts_by_size_and_rejects_over_two_dimensions(_route_send)

    def test_two_message_route_logs_a_snapshot_per_send(self):
        fab, _, _ = _fabric(_cfg(), kind="daisy", record_log=True)
        z = np.arange(12, dtype=complex).reshape(2, 6)
        route = fab.route(1, 2, (("bcd_a", z[:, :2]), ("bcd_b", z[:, 2:])))
        assert fab.ledger.total == 0 and fab.log == []   # binding sends nothing
        route.send("iteration", 0)
        z += 100                                        # write the bound views
        route.send("iteration", 1)
        assert [m.kind for m in fab.log] == ["bcd_a", "bcd_b"] * 2
        assert [(m.rows, m.cols) for m in fab.log] == [(2, 2), (2, 4)] * 2
        for first, second in zip(fab.log[:2], fab.log[2:]):
            np.testing.assert_array_equal(second.payload, first.payload + 100)
        assert _label_totals(fab) == {"iteration[0]": 24, "iteration[1]": 24}
        assert fab.ledger.phases["iteration"] == 48
        expected = {p: v for p, v in fab.ledger.phases.items() if v}
        assert dbpnet.replay_totals(fab.dump_log()) == expected

    @pytest.mark.parametrize("phase", ["iteration[0]", "p"])
    def test_unnamed_phase_raises_and_counts_nothing(self, phase):
        # the ledger's phases are fixed at four, so a send to any other name
        # raises before it counts or logs, and opens no fifth phase
        fab, _, _ = _fabric(_cfg(), kind="daisy", record_log=True)
        route = fab.route(1, 2, (("k", np.zeros((2, 3))),))
        route.send("preprocessing")
        with pytest.raises(KeyError):
            route.send(phase)
        assert fab.ledger.total == 12
        assert list(fab.ledger.phases) == ["preprocessing", "lrd", "iteration",
                                           "symbol_estimation"]
        assert [m.phase for m in fab.log] == ["preprocessing"]


class TestLocality:
    def test_foreign_read_raises(self):
        fab, _, _ = _fabric(_cfg())
        with fab.local(1):
            with pytest.raises(LocalityError):
                _ = fab.du(2).H
            with pytest.raises(LocalityError):
                _ = fab.du(2).noise
            with pytest.raises(LocalityError):
                _ = fab.du(2).Y
            _ = fab.du(1).H   # own data is fine

    def test_reads_allowed_outside_scopes(self):
        # no active scope = test/driver introspection, not a protocol read
        fab, _, _ = _fabric(_cfg())
        assert fab.du(2).H.shape == (8, 4)

    def test_scopes_nest_and_restore(self):
        fab, _, _ = _fabric(_cfg())
        with fab.local(1):
            with fab.local(2):
                _ = fab.du(2).H
            with pytest.raises(LocalityError):
                _ = fab.du(2).H

    def test_scope_restores_when_body_raises(self):
        fab, _, _ = _fabric(_cfg())
        with fab.local(1):
            with pytest.raises(ZeroDivisionError):
                with fab.local(2) as du:
                    assert du is fab.du(2)
                    _ = 1 / 0
            assert fab._scope[0] == 1
            with pytest.raises(LocalityError):
                _ = fab.du(2).H
        assert fab._scope[0] is None

    @staticmethod
    def _snoop(monkeypatch, fab, name):
        step = getattr(eq, name)

        def snooping_step(factor, z, w_c):
            own = fab._scope[0]
            assert own is not None
            _ = fab.du(own).H        # own data is fine
            _ = fab.du(own % fab.C + 1).H
            return step(factor, z, w_c)

        monkeypatch.setattr(eq, name, snooping_step)

    def test_tol_loop_steps_run_in_their_du_scope(self, monkeypatch):
        fab, _, _ = _fabric(_cfg(), kind="daisy")
        self._snoop(monkeypatch, fab, "bcd_newton_step")
        with pytest.raises(LocalityError):
            dbpnet.run_bcd_daisy(fab, 1.0, tol=1e-8)

    def test_tol_loop_forms_operators_in_their_du_scope(self, monkeypatch):
        # newton() ran for every factor before the first sweep, outside any
        # scope, so no DU formed X_c and P_c from its own H_c and S_c
        fab, _, _ = _fabric(_cfg(), kind="daisy")
        seen, newton = [], eq.BcdBlockFactor.newton

        def spy(factor):
            seen.append(fab._scope[0])
            return newton(factor)

        monkeypatch.setattr(eq.BcdBlockFactor, "newton", spy)
        dbpnet.run_bcd_daisy(fab, 1.0, tol=1e-6)
        assert seen == [1, 2, 3, 4]

    def test_fixed_sweep_steps_run_in_their_du_scope(self, monkeypatch):
        fab, _, _ = _fabric(_cfg(), kind="daisy")
        self._snoop(monkeypatch, fab, "bcd_sweep_step")
        with pytest.raises(LocalityError):
            dbpnet.run_bcd_daisy(fab, 1.0, sweeps=2)

    def test_fabric_freed_without_cycle_collector(self):
        # DUs share the fabric's scope cell, not the fabric, so dropping
        # the last reference frees the fabric, its DU caches and ledger
        gc.disable()
        try:
            fab, _, _ = _fabric(_cfg(), kind="daisy")
            dbpnet.run_bcd_daisy(fab, 1.0, sweeps=2)
            ref = weakref.ref(fab)
            del fab
            assert ref() is None
        finally:
            gc.enable()

    def test_samples_are_scaled_noise(self):
        fab, rz, _ = _fabric(_cfg())
        with fab.local(1) as du:
            np.testing.assert_allclose(du.samples,
                                       du.noise / np.sqrt(64), atol=1e-15)


class TestMessages:
    def test_log_line_format(self):
        m = dbpnet.Message(phase="preprocessing", src=1, dst=CU,
                           kind="gram_partial", rows=4, cols=4)
        assert m.log_line() == "preprocessing,1,-1,gram_partial,4,4,32"

    def test_real_entry_count(self):
        m = dbpnet.Message(phase="p", src=1, dst=2, kind="k", rows=3, cols=5)
        assert m.real_entry_count == 30

    def test_replay_matches_ledger(self):
        cfg = _cfg()
        fab, _, _ = _fabric(cfg, kind="daisy", record_log=True)
        dbpnet.run_bcd_daisy(fab, 1.0, sweeps=2)
        totals = dbpnet.replay_totals(fab.dump_log())
        phases = fab.ledger.phases
        assert sum(totals.values()) == fab.ledger.total
        assert totals["preprocessing"] == phases["preprocessing"]
        assert totals["iteration"] == phases["iteration"]
        assert totals["symbol_estimation"] == phases["symbol_estimation"]
        # the log alone keeps each sweep's share, and the two sum to iteration
        labels = _label_totals(fab)
        assert labels["iteration[0]"] + labels["iteration[1]"] == phases["iteration"]

    def test_replay_matches_ledger_in_tol_mode(self):
        fab, _, _ = _fabric(_cfg(), kind="daisy", record_log=True)
        res, _ = dbpnet.run_bcd_daisy(fab, 1.0, tol=1e-6)
        assert res.iterations > 1
        sweeps = [p for p in _label_totals(fab) if p.startswith("iteration[")]
        assert sweeps == [f"iteration[{t}]" for t in range(res.iterations)]
        expected = {p: v for p, v in fab.ledger.phases.items() if v}
        assert dbpnet.replay_totals(fab.dump_log()) == expected

    def test_a_sweep_costs_the_ledger_no_entry(self):
        # a capped tol-mode run: the phases stay the four of a fresh ledger,
        # every sweep charges iteration, and the log still names iteration[t]
        c, k, n = 4, 4, 8
        fab, _, _ = _fabric(_cfg(N=n), kind="daisy", record_log=True)
        res, _ = dbpnet.run_bcd_daisy(fab, 1.0, tol=1e-300, max_sweeps=1000)
        assert res.iterations == 1000
        assert list(fab.ledger.phases) == ["preprocessing", "lrd", "iteration",
                                           "symbol_estimation"]
        assert fab.ledger.phases["iteration"] == 1000 * 2 * c * k * (k + n)
        sweeps = [p for p in _label_totals(fab) if p.startswith("iteration[")]
        assert sweeps == [f"iteration[{t}]" for t in range(1000)]
        assert dbpnet.replay_totals(fab.dump_log()) == \
            {p: v for p, v in fab.ledger.phases.items() if v}

    def test_tol_mode_payloads_are_not_aliased(self):
        # the log keeps every payload, so no message may share memory
        # with a buffer that a later step writes
        fab, _, _ = _fabric(_cfg(), kind="daisy", record_log=True)
        res, _ = dbpnet.run_bcd_daisy(fab, 1.0, tol=1e-8)
        k, n = res.W.shape[0], fab.du(1).samples.shape[1]
        for kind, shape in (("bcd_a", (k, k)), ("bcd_b", (k, n))):
            sent = [m.payload for m in fab.log if m.kind == kind]
            assert len(sent) == 4 * res.iterations
            # the kernel steps on float64 views; one leaking into send
            # would count every entry twice
            assert all(p.dtype == np.complex128 and p.shape == shape for p in sent)
            for p1, p2 in zip(sent, sent[1:]):
                assert not np.shares_memory(p1, p2)
        for c in range(1, fab.C + 1):
            assert fab.du(c).cache["W"].dtype == np.complex128
        # converge mode carries the residual: bcd_a holds A - I
        last_a = [m.payload for m in fab.log if m.kind == "bcd_a"][-1]
        a_final = sum(fab.du(c).cache["W"] @ fab.du(c).H for c in range(1, fab.C + 1))
        np.testing.assert_allclose(last_a, a_final - np.eye(k), atol=1e-10)

    @pytest.mark.parametrize("mode", [dict(tol=1e-8, max_sweeps=30), dict(sweeps=3)])
    def test_logged_payloads_equal_the_loop_state(self, monkeypatch, mode):
        # both modes step one state (R or Z) in place: every logged
        # message must still hold what the loop held at its step, not a
        # live view of the state
        held = []
        iterate = eq.bcd_iterate

        def recording(*args, after, **kw):
            def both(t, i, z):
                held.append(z.copy())
                after(t, i, z)
            return iterate(*args, after=both, **kw)

        monkeypatch.setattr(eq, "bcd_iterate", recording)
        fab, _, _ = _fabric(_cfg(), kind="daisy", record_log=True)
        res, _ = dbpnet.run_bcd_daisy(fab, 1.0, **mode)
        k = res.W.shape[0]
        assert len(held) == 4 * res.iterations > 4
        for kind, part in (("bcd_a", np.s_[:, :k]), ("bcd_b", np.s_[:, k:])):
            sent = [m.payload for m in fab.log if m.kind == kind]
            assert len(sent) == len(held)
            for payload, z in zip(sent, held):
                np.testing.assert_array_equal(payload, z[part])


@pytest.mark.parametrize("modes", [[dict(sweeps=1), dict(sweeps=5)], [dict(tol=1e-6)]],
                         ids=["fixed", "tol"])
def test_ring_routes_are_bound_once_per_solve(monkeypatch, modes):
    # the sweep loop binds one (bcd_a, bcd_b) route per ring hop, however
    # many sweeps it runs, on views of the state that the loop steps
    bound, states = [], []
    route, iterate = dbpnet.Fabric.route, eq.bcd_iterate

    def spy_route(fabric, src, dst, payloads):
        if [kind for kind, _ in payloads] == ["bcd_a", "bcd_b"]:
            bound.append(((src, dst), [arr for _, arr in payloads]))
        return route(fabric, src, dst, payloads)

    def spy_iterate(*args, after, **kw):
        def keep(t, i, z):
            states.append(z)
            after(t, i, z)
        return iterate(*args, after=keep, **kw)

    monkeypatch.setattr(dbpnet.Fabric, "route", spy_route)
    monkeypatch.setattr(eq, "bcd_iterate", spy_iterate)
    for mode in modes:
        bound.clear()
        states.clear()
        fab, _, _ = _fabric(_cfg(), kind="daisy")
        res, _ = dbpnet.run_bcd_daisy(fab, 1.0, **mode)
        assert len(states) == 4 * res.iterations
        assert [link for link, _ in bound] == [(1, 2), (2, 3), (3, 4), (4, 1)]
        for _, arrays in bound:
            assert all(np.shares_memory(a, states[0]) for a in arrays)


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
@pytest.mark.parametrize("name", list(dbpnet.ALGORITHMS))
def test_one_route_send_per_hop(monkeypatch, name):
    # a hop is a maximal run of logged messages on one (phase, src, dst);
    # the messages one node passes to another in one phase go as one send
    sends = []
    send = ledger._Route.send

    def spy_send(route, *args):
        sends.append(args)
        send(route, *args)

    monkeypatch.setattr(ledger._Route, "send", spy_send)
    cfg = _cfg()
    _, fab, _, _ = _cell(cfg, bench.default_algo(name, cfg, T=2, r=4), record_log=True)
    hops = [(m.phase, m.src, m.dst) for m in fab.log]
    n_hops = sum(1 for i, hop in enumerate(hops) if i == 0 or hop != hops[i - 1])
    assert fab.log and len(sends) == n_hops


R = 4   # the LRD rank of the payload cells


def _logged_cell(name):
    """One logged desk cell of row ``name``, or of run_bdac on a daisy fabric
    for "bdac-daisy": (estimates, fabric, realization, block)."""
    cfg = _cfg()
    if name == "bdac-daisy":
        fab, rz, blk = _fabric(cfg, kind="daisy", record_log=True)
        return dbpnet.run_bdac(fab, cfg.Es)[1], fab, rz, blk
    return _cell(cfg, bench.default_algo(name, cfg, T=2, r=R), record_log=True)


def check_hop_payloads(name):
    """Run :func:`_logged_cell` of ``name`` and check every logged payload by
    value against arrays formed here from the realization and the library."""
    cfg = _cfg()
    shat, fab, rz, blk = _logged_cell(name)
    hs, ns, ys = rz.H_blocks(), rz.noise_blocks(), rz.partition.split(blk.Y)
    sent = {}
    for m in fab.log:
        sent.setdefault(m.kind, []).append(m.payload)
    want = {}

    def reduced(kind, parts):
        # a star hop carries DU c's part, a ring hop the running sum to DU c
        sums = list(itertools.accumulate(parts))
        want[kind] = parts if fab.topology.kind == "star" else sums
        return sums[-1]

    if "raw_channel" in sent:
        want["raw_channel"], want["raw_samples"], want["raw_signal"] = hs, ns, ys
    if "compressed_channel" in sent:
        (want["compressed_channel"], want["compressed_samples"],
         want["compressed_signal"]) = zip(*map(eq.compress_cluster, hs, ys, ns))
    if "gram_partial" in sent:
        parts = [eq.local_compression(h, sample_covariance(n)) @ h for h, n in zip(hs, ns)]
        want["gram_total"] = [hermitize(reduced("gram_partial", parts))] * cfg.C
    if "symbol_partial" in sent:
        parts = [fab.du(c).cache["W"] @ y for c, y in enumerate(ys, 1)]
        np.testing.assert_array_equal(reduced("symbol_partial", parts), shat)
    samples = [eq.scaled_samples(n) for n in ns]
    if "lrd_d" in sent:
        stages, d, v = [], None, None
        for s in samples:
            d, v = eq.lrd_stage(d, v, s, R)
            stages.append((d, v))
        want["lrd_d"], want["lrd_v"] = zip(*stages[:-1])   # DU C relays nothing
        samples, v = eq.lrd_sequential(samples, R)   # BCD-LRD's S_c are the G_c
        want["lrd_v_broadcast"] = [v] * cfg.C
    if "b_acc" in sent:
        wb, _, b0 = eq.bdac_state(hs, ns, samples, cfg.Es)
        np.testing.assert_array_equal(reduced("b_acc", [w @ s for w, s in zip(wb, samples)]), b0)
    # bcd_a and bcd_b hold the sweep state: test_logged_payloads_equal_the_loop_state
    assert set(sent) - {"bcd_a", "bcd_b"} == set(want)
    for kind, arrays in want.items():
        assert len(sent[kind]) == len(arrays), kind
        for got, expected in zip(sent[kind], arrays):
            np.testing.assert_array_equal(got, expected, err_msg=kind)


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
@pytest.mark.parametrize("name", [*dbpnet.ALGORITHMS, "bdac-daisy"])
def test_every_hop_payload_equals_its_value(name):
    # the log and the ledger see only shapes; a protocol that sends one
    # array and computes from another must fail here
    check_hop_payloads(name)


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_accepted_links_are_the_traffic():
    # check_link accepts a link exactly when some protocol takes it, with one
    # exception: the star's symbol reduction ends at the CU, so no row sends
    # CU -> OUT, and test_out_link_always_allowed pins that link
    c = _cfg().C
    logged = {"star": set(), "daisy": set()}
    for name in [*dbpnet.ALGORITHMS, "bdac-daisy"]:
        fab = _logged_cell(name)[1]
        logged[fab.topology.kind] |= {(m.src, m.dst) for m in fab.log}
    for kind, links in logged.items():
        top, accepted = dbpnet.Topology(kind, c), set()
        for link in itertools.product([OUT, CU, *range(c + 2)], repeat=2):
            try:
                top.check_link(*link)
                accepted.add(link)
            except TopologyError:
                pass
        assert links <= accepted, kind
        assert accepted - links == ({(CU, OUT)} if kind == "star" else set()), kind


class TestProtocolEquivalence:
    """Fabric protocols must reproduce the library results bit for bit."""

    def test_sdr(self):
        cfg = _cfg()
        fab, rz, blk = _fabric(cfg)
        res_p, shat_p = dbpnet.run_sdr_star(fab, 1.0)
        res_l, shat_l = eq.sdr_mmse(rz.H_blocks(),
                                    list(rz.partition.split(blk.Y)),
                                    rz.noise_blocks(), 1.0)
        np.testing.assert_array_equal(res_p.W, res_l.W)
        np.testing.assert_array_equal(shat_p, shat_l)

    def test_cdr(self):
        cfg = _cfg()
        fab, rz, blk = _fabric(cfg)
        res_p, shat_p = dbpnet.run_cdr_star(fab, 1.0)
        res_l, shat_l = eq.cdr_mmse(rz.H_blocks(),
                                    list(rz.partition.split(blk.Y)),
                                    rz.noise_blocks(), 1.0)
        np.testing.assert_array_equal(res_p.W, res_l.W)
        np.testing.assert_array_equal(shat_p, shat_l)

    @pytest.mark.parametrize("kind", ["star", "daisy"])
    def test_bdac(self, kind):
        cfg = _cfg()
        fab, rz, blk = _fabric(cfg, kind=kind)
        res_p, shat = dbpnet.run_bdac(fab, 1.0)
        r_blocks = [sample_covariance(nc) for nc in rz.noise_blocks()]
        res_l = eq.bdac_mmse(rz.H_blocks(), r_blocks, 1.0)
        np.testing.assert_array_equal(res_p.W, res_l.W)
        np.testing.assert_allclose(shat, res_l.W @ blk.Y, atol=1e-12)

    @pytest.mark.parametrize("sweeps,tol", [
        pytest.param(1, None, id="1"),
        pytest.param(4, None, id="4"),
        pytest.param(None, 1e-8, id="tol1e-8"),
    ])
    def test_bcd(self, sweeps, tol):
        cfg = _cfg()
        fab, rz, blk = _fabric(cfg, kind="daisy")
        mode = (dict(sweeps=sweeps) if tol is None
                else dict(tol=tol, max_sweeps=5000))
        res_p, shat_p = dbpnet.run_bcd_daisy(fab, 1.0, **mode)
        res_l = eq.bcd_solve(rz.H_blocks(), rz.noise_blocks(), 1.0, **mode)
        np.testing.assert_array_equal(res_p.W, res_l.W)
        assert res_p.iterations == res_l.iterations
        if tol is None:
            assert res_p.iterations == sweeps
        else:
            assert 1 < res_p.iterations < 5000
        np.testing.assert_allclose(shat_p, res_l.W @ blk.Y, atol=1e-12)

    def test_bcd_tol_blocks_are_owned_by_their_du(self):
        # converge mode keeps W in one flat loop buffer; no DU may be
        # handed a view into it or into another DU's block
        cfg = _cfg()
        fab, rz, _ = _fabric(cfg, kind="daisy")
        dbpnet.run_bcd_daisy(fab, 1.0, tol=1e-8, max_sweeps=5000)
        res_l = eq.bcd_solve(rz.H_blocks(), rz.noise_blocks(), 1.0,
                             tol=1e-8, max_sweeps=5000)
        ws = [fab.du(c).cache["W"] for c in range(1, fab.C + 1)]
        for i, w in enumerate(ws):
            assert w.dtype == np.complex128
            np.testing.assert_array_equal(w, res_l.W[:, rz.partition.rows(i)])
            assert not any(np.shares_memory(w, other) for other in ws[i + 1:])
            # disjoint views of one buffer share no memory either, so
            # check that nothing larger than the block stands behind it
            root = w
            while isinstance(root.base, np.ndarray):
                root = root.base
            assert root.nbytes == w.nbytes

    def test_bcd_lrd(self):
        cfg = _cfg(M=16, C=4, N=48)
        fab, rz, blk = _fabric(cfg, kind="daisy")
        res_p, _ = dbpnet.run_bcd_daisy(fab, 1.0, sweeps=3, r=4)
        sb = [eq.scaled_samples(n) for n in rz.noise_blocks()]
        g_blocks, _ = eq.lrd_sequential(sb, 4)
        res_l = eq.bcd_solve(rz.H_blocks(), rz.noise_blocks(), 1.0, sweeps=3,
                             sample_blocks=g_blocks)
        np.testing.assert_array_equal(res_p.W, res_l.W)

    def test_centralized_shipping(self):
        cfg = _cfg()
        fab, rz, blk = _fabric(cfg)
        res, shat = dbpnet.run_centralized(fab, 1.0)
        rhat = sample_covariance(rz.noise)
        w_ref = eq.lmmse_centralized(rz.H, rhat, 1.0).W
        np.testing.assert_allclose(res.W, w_ref, atol=1e-12)
        np.testing.assert_allclose(shat, w_ref @ blk.Y, atol=1e-12)

    @pytest.mark.parametrize("name", ["lmmse", "zf"])
    def test_centralized_row_matches_its_protocol(self, name):
        # the protocol ships raw data; the CU runs the library equalizer
        shat_p, _, rz, blk = _cell(_cfg(), bench.AlgoSpec(name))
        res_l = (eq.lmmse_centralized(rz.H, sample_covariance(rz.noise), 1.0)
                 if name == "lmmse" else eq.zf_centralized(rz.H))
        np.testing.assert_array_equal(shat_p, res_l.W @ blk.Y)

    def test_lrd_rank_guard(self):
        from dbpeq.numerics import RankOutOfRange
        for m, n in [(16, 48), (32, 12)]:   # r = min(M, N) + 1 for M < N and N < M
            fab, _, _ = _fabric(_cfg(M=m, C=4, N=n), kind="daisy")
            with pytest.raises(RankOutOfRange):
                dbpnet.run_lrd_daisy(fab, min(m, n) + 1)

    @pytest.mark.parametrize("r", [0, 17])   # min(M, N) = M = 16
    def test_lrd_rank_rule_is_shared(self, r):
        # the library checked the rank up front, with messages of its own
        from dbpeq.numerics import RankOutOfRange
        fab, rz, _ = _fabric(_cfg(M=16, C=4, N=48), kind="daisy")
        with pytest.raises(RankOutOfRange) as library:
            eq.lrd_sequential([eq.scaled_samples(n) for n in rz.noise_blocks()], r)
        with pytest.raises(RankOutOfRange) as protocol:
            dbpnet.run_lrd_daisy(fab, r)
        assert str(library.value) == str(protocol.value)

    def test_lrd_reads_du_data_only_in_scope(self):
        class SpyDu(dbpnet.DuState):
            # the raw arrays themselves refuse a read outside this DU's scope
            def _own(self, key):
                if self._scope[0] != self.id:
                    raise LocalityError(f"{key} of DU {self.id} read outside its scope")
                return self.__dict__[key]

            _h = property(lambda self: self._own("_h"))
            _noise = property(lambda self: self._own("_noise"))

        from dbpeq.numerics import RankOutOfRange
        for r in (12, 13):   # min(M, N) = N = 12
            fab, _, _ = _fabric(_cfg(M=32, C=4, N=12), kind="daisy")
            for du in fab.dus.values():
                du.__class__ = SpyDu
            if r > 12:
                with pytest.raises(RankOutOfRange):
                    dbpnet.run_lrd_daisy(fab, r)
            else:
                dbpnet.run_lrd_daisy(fab, r)
                for c in fab.dus:
                    with fab.local(c) as du:
                        assert du.cache["G"].shape == (du.H.shape[0], r)

    @pytest.mark.parametrize("mode", [
        dict(sweeps=2, tol=1e-3),
        dict(sweeps=-1),
        dict(tol=-1.0),
        dict(tol=0.0),
        dict(tol=1e-3, max_sweeps=0),
    ])
    def test_bcd_rejects_bad_sweep_settings(self, mode):
        # one rule in both forms: tol converges, sweeps counts, never both
        fab, rz, _ = _fabric(_cfg(), kind="daisy")
        with pytest.raises(ValueError):
            eq.bcd_solve(rz.H_blocks(), rz.noise_blocks(), 1.0, **mode)
        with pytest.raises(ValueError):
            dbpnet.run_bcd_daisy(fab, 1.0, **mode)

    @pytest.mark.parametrize("r", [None, 4])
    @pytest.mark.parametrize("mode", [dict(sweeps=-1), dict(sweeps=2, tol=1e-3),
                                      dict(tol=0.0), dict(sweeps=2.5)])
    def test_rejected_bcd_rule_sends_nothing(self, mode, r):
        # the rule used to be checked after the LRD relay and both
        # preprocessing passes had sent 4,160 entries and filled the caches
        fab, _, _ = _fabric(_cfg(M=16, N=64, n_coh=48), kind="daisy", record_log=True)
        with pytest.raises(ConfigError):
            dbpnet.run_bcd_daisy(fab, 1.0, r=r, **mode)
        assert fab.ledger.total == 0 and fab.log == []
        assert all(du.cache == {} for du in fab.dus.values())

    def test_bcd_requires_daisy(self):
        fab, _, _ = _fabric(_cfg(), kind="star")
        with pytest.raises(TopologyError):
            dbpnet.run_bcd_daisy(fab, 1.0)

    def test_lrd_requires_daisy(self):
        fab, _, _ = _fabric(_cfg(), kind="star")
        with pytest.raises(TopologyError):
            dbpnet.run_lrd_daisy(fab, 4)


GRID = [
    # (M, K, C, N, n_coh, T, r)
    (32, 4, 4, 64, 480, 4, 4),
    (16, 2, 2, 24, 100, 1, 2),
    (24, 3, 3, 36, 120, 2, 3),
    (34, 4, 4, 72, 256, 3, 4),      # uneven cluster sizes
    (128, 8, 8, 192, 480, 2, 8),    # the published operating point
]


class TestLedgerFormulas:
    """Simulated ledgers equal the closed forms in exact rational arithmetic."""

    @pytest.mark.parametrize("m,k,c,n,ncoh,t,r", GRID)
    def test_centralized(self, m, k, c, n, ncoh, t, r):
        cfg = _cfg(M=m, K=k, C=c, N=n, n_coh=ncoh)
        fab, _, _ = _fabric(cfg)
        dbpnet.run_centralized(fab, 1.0)
        assert fab.ledger.per_symbol_average() == \
            dbpnet.formula_centralized(m, k, n, ncoh)

    @pytest.mark.parametrize("m,k,c,n,ncoh,t,r", GRID)
    @pytest.mark.parametrize("algo", ["sdr", "cdr"])
    def test_dr(self, algo, m, k, c, n, ncoh, t, r):
        cfg = _cfg(M=m, K=k, C=c, N=n, n_coh=ncoh)
        fab, _, _ = _fabric(cfg)
        run = dbpnet.run_sdr_star if algo == "sdr" else dbpnet.run_cdr_star
        run(fab, 1.0)
        assert fab.ledger.per_symbol_average() == \
            dbpnet.formula_dr(c, k, n, ncoh)

    @pytest.mark.parametrize("m,k,c,n,ncoh,t,r", GRID)
    @pytest.mark.parametrize("kind", ["star", "daisy"])
    def test_bdac(self, kind, m, k, c, n, ncoh, t, r):
        cfg = _cfg(M=m, K=k, C=c, N=n, n_coh=ncoh)
        fab, _, _ = _fabric(cfg, kind=kind)
        dbpnet.run_bdac(fab, 1.0)
        assert fab.ledger.per_symbol_average() == dbpnet.formula_bdac(c, k, ncoh)

    # the LRD rows need the ridge fallback, as in test_bcd_lrd below
    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    @pytest.mark.parametrize("m,k,c,n,ncoh,t,r", GRID)
    @pytest.mark.parametrize("name", list(dbpnet.ALGORITHMS))
    def test_table_row(self, name, m, k, c, n, ncoh, t, r):
        # each row's protocol runs on its fabric with its formula's ledger
        cfg = _cfg(M=m, K=k, C=c, N=n, n_coh=ncoh)
        algo = bench.default_algo(name, cfg, T=t, r=r)
        _, fab, _, _ = _cell(cfg, algo)
        assert fab.ledger.per_symbol_average() == dbpnet.ALGORITHMS[name].entries(cfg, algo)

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    @pytest.mark.parametrize("m,k,c,n,ncoh,t,r", GRID)
    @pytest.mark.parametrize("name", list(dbpnet.ALGORITHMS))
    def test_table_row_replay(self, name, m, k, c, n, ncoh, t, r):
        # the message log alone reproduces every non-empty ledger phase
        cfg = _cfg(M=m, K=k, C=c, N=n, n_coh=ncoh)
        _, fab, _, _ = _cell(cfg, bench.default_algo(name, cfg, T=t, r=r), record_log=True)
        expected = {p: v for p, v in fab.ledger.phases.items() if v}
        assert dbpnet.replay_totals(fab.dump_log()) == expected

    @pytest.mark.parametrize("m,k,c,n,ncoh,t,r", GRID)
    def test_bcd(self, m, k, c, n, ncoh, t, r):
        cfg = _cfg(M=m, K=k, C=c, N=n, n_coh=ncoh)
        fab, _, _ = _fabric(cfg, kind="daisy")
        dbpnet.run_bcd_daisy(fab, 1.0, sweeps=t)
        assert fab.ledger.per_symbol_average() == \
            dbpnet.formula_bcd(c, k, n, t, ncoh)

    @pytest.mark.parametrize("m,k,c,n,ncoh,t,r", GRID)
    def test_bcd_tol(self, m, k, c, n, ncoh, t, r):
        cfg = _cfg(M=m, K=k, C=c, N=n, n_coh=ncoh)
        fab, _, _ = _fabric(cfg, kind="daisy")
        res, _ = dbpnet.run_bcd_daisy(fab, 1.0, tol=1e-3, max_sweeps=1000)
        assert res.iterations < 1000
        assert fab.ledger.per_symbol_average() == \
            dbpnet.formula_bcd(c, k, n, res.iterations, ncoh)

    # severe compression (r + K < M_c) makes some block Grams singular;
    # the ridge fallback warns, which is fine for a message-count test
    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    @pytest.mark.parametrize("m,k,c,n,ncoh,t,r", GRID)
    def test_bcd_lrd(self, m, k, c, n, ncoh, t, r):
        cfg = _cfg(M=m, K=k, C=c, N=n, n_coh=ncoh)
        fab, rz, _ = _fabric(cfg, kind="daisy")
        dbpnet.run_bcd_daisy(fab, 1.0, sweeps=t, r=r)
        assert fab.ledger.per_symbol_average() == \
            dbpnet.formula_bcd_lrd_ledger(rz.partition.sizes, k, n, t, r, ncoh)

    def test_bcd_lrd_aggregate_residual(self):
        # the aggregate closed form counts the final-V broadcast as C+2
        # hops; the simulated relay-plus-ring-broadcast uses C hops, a
        # deficit of exactly 2*N*r entries per coherence block
        m, k, c, n, ncoh, t, r = 128, 8, 8, 192, 480, 2, 8
        sizes = (16,) * 8
        aggregate = dbpnet.formula_bcd_lrd_aggregate(c, m, k, n, t, r, ncoh)
        ledger = dbpnet.formula_bcd_lrd_ledger(sizes, k, n, t, r, ncoh)
        assert aggregate - ledger == Fraction(2 * n * r, ncoh)

    def test_published_numbers(self):
        # 2M(n_coh+K+N)/n_coh at M=128, K=8, N=192, n_coh=480
        assert dbpnet.formula_centralized(128, 8, 192, 480) == Fraction(1088, 3)
        assert float(dbpnet.formula_centralized(128, 8, 192, 480)) == \
            pytest.approx(362.67, abs=0.01)
        # 2CK(n_coh+K+N)/n_coh at C=8, K=8
        assert dbpnet.formula_dr(8, 8, 192, 480) == Fraction(544, 3)
        assert float(dbpnet.formula_dr(8, 8, 192, 480)) == \
            pytest.approx(181.33, abs=0.01)

    def test_iteration_phase_costs_are_uniform(self):
        cfg = _cfg()
        fab, _, _ = _fabric(cfg, kind="daisy", record_log=True)
        dbpnet.run_bcd_daisy(fab, 1.0, sweeps=3)
        labels = _label_totals(fab)
        iterations = [v for p, v in labels.items() if p.startswith("iteration[")]
        assert len(iterations) == 3
        assert len(set(iterations)) == 1
        # each sweep: C hops of (K x K) + (K x N)
        assert labels["iteration[0]"] == 2 * 4 * (4 * 4 + 4 * 64)
        assert fab.ledger.phases["iteration"] == sum(iterations)
