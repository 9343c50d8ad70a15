"""End-to-end simulator runs: determinism, verdicts, and the exact match
between simulated tallies and the closed-form cost model."""

from __future__ import annotations

import ast
import dataclasses
import gc
import hashlib
import heapq
import hmac
import itertools
import json
import os
import re
import signal
import threading
import weakref
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hybft import messages as m
from hybft import resource_model as rm
from hybft.cli import _exact_cell
from hybft.clients import Client
from hybft.config import SimConfig
from hybft.encoding import _enc
from hybft.protocol import Replica, _Tracker
from hybft.sim import (TALLY_FIELDS, EventQueue, Ledger, Simulator,
                       measure_overhead, run, run_all, safety_violations)
from hybft.tc import ContextCertificate, TrustedComponent, UniqueIdentifier


def exact_cell(f: int, batch: int, **kw) -> SimConfig:
    """The cell `hybft overhead` runs: the regime where tallies equal the
    closed form (see cli._exact_cell)."""
    return _exact_cell(SimConfig(**kw), f, batch)


# ------------------------------------------------------------- fault-free


def test_fault_free_run_reaches_unanimous_execution():
    v = run(SimConfig(f=1, clients=2, requests_per_client=2)).verdict
    assert v["safety_ok"] is True
    assert v["violations"] == []
    assert v["all_clients_done"] is True
    assert v["completed_requests"] == 4
    assert v["max_view"] == 0
    assert v["flagged"] == []


def test_larger_group_fault_free():
    v = run(SimConfig(f=3, clients=2, requests_per_client=2, seed=9)).verdict
    assert v["safety_ok"] and v["all_clients_done"]
    assert v["max_view"] == 0


def test_state_request_for_an_unexecuted_checkpoint_goes_unanswered():
    # replica 0 adopts checkpoint 23 from its peers' certificates while it has
    # executed only up to 22, then receives a FetchState for 23
    v = run(SimConfig(f=1, clients=4, requests_per_client=20, seed=8,
                      record_trace=False)).verdict
    assert v["safety_ok"] and v["all_clients_done"]


@pytest.mark.parametrize("f,clients", [(1, 2), (1, 4), (2, 2), (2, 4)])
def test_fault_free_soak_is_safe_and_live(f, clients):
    # seeds 6-9 include 8, whose f=1 cells reach the state transfer above
    cells = list(itertools.product((20, 50), range(6, 10)))
    results = run_all([SimConfig(f=f, clients=clients,
                                 requests_per_client=requests, seed=seed,
                                 duration_ns=10_000_000_000,
                                 record_trace=False)
                       for requests, seed in cells])
    for (requests, seed), res in zip(cells, results):
        v = res.verdict
        assert v["safety_ok"] and v["all_clients_done"], (requests, seed)


def _entries(value) -> int:
    """The entries a container holds at any depth; a tracker holds its
    claims, and any other value none."""
    if isinstance(value, _Tracker):
        return _entries(value.claims)
    if isinstance(value, dict):
        return len(value) + sum(map(_entries, value.values()))
    if isinstance(value, (list, set, tuple)):
        return len(value) + sum(map(_entries, value))
    return 0


@pytest.mark.parametrize("adversary", ["none", "silent_repliers"])
@pytest.mark.parametrize("mode", ["detection", "prevention"])
def test_state_is_bounded_by_the_checkpoint_window(mode, adversary):
    # ROADMAP item 2: four times the history leaves every container of a
    # correct replica and its component the same size, but the timeline and
    # the request bindings of the view. The duration fits 400 requests per
    # client under silent repliers (about 16 s) with room to spare
    sizes = []
    for requests in (100, 400):
        sim = Simulator(SimConfig(
            f=1, clients=4, requests_per_client=requests, mode=mode,
            adversary=adversary, duration_ns=requests * 100_000_000,
            record_trace=False))
        assert sim.run().verdict["all_clients_done"]
        sizes.append({(r.id, owner, name): _entries(value)
                      for r in sim.replicas if r.id not in sim.byz_ids
                      for owner, obj in (("replica", r), ("tc", r.tc))
                      for name, value in vars(obj).items()
                      if name not in ("timeline", "bound")})
    assert sizes[0] == sizes[1]


# ------------------------------------------------------------- determinism


def test_identical_config_reruns_byte_identical():
    cfg = SimConfig(f=2, clients=2, requests_per_client=2, seed=11)
    a = run(cfg)
    b = run(cfg)
    ta = "\n".join(json.dumps(r, sort_keys=True) for r in a.trace)
    tb = "\n".join(json.dumps(r, sort_keys=True) for r in b.trace)
    assert ta == tb
    assert a.summary_dict() == b.summary_dict()


def test_seed_changes_the_schedule():
    base = SimConfig(f=1, clients=2, requests_per_client=2)
    a = run(dataclasses.replace(base, seed=1))
    b = run(dataclasses.replace(base, seed=2))
    assert [r["t"] for r in a.trace] != [r["t"] for r in b.trace]


def test_adversarial_run_is_equally_deterministic():
    cfg = SimConfig(f=1, clients=2, requests_per_client=3, seed=5,
                    adversary="equivocate_withhold")
    a, b = run(cfg), run(cfg)
    assert a.trace == b.trace


def test_takeover_stays_single_when_votes_beat_the_leaders_timer():
    # at this seed the defection quorum reaches the incoming leader before
    # its own suspicion fires; the joining vote must not double the takeover
    cfg = SimConfig(f=2, seed=127, clients=1, requests_per_client=2,
                    adversary="gap_forever", record_trace=True)
    r = run(cfg)
    assert r.verdict["safety_ok"] and r.verdict["all_clients_done"]
    assert r.verdict["max_view"] == 1
    assert sum(1 for e in r.trace if e.get("ev") == "newview") == 1


def _delay_from_scratch(cfg: SimConfig, src: str, dst: str, idx: int) -> int:
    """A channel's idx-th varying delay, hashed from scratch."""
    key = hashlib.sha256(_enc("delay", cfg.seed)).digest()[:32]
    h = hashlib.blake2b(_enc(src, dst) + _enc(idx), key=key,
                        digest_size=8).digest()
    span = cfg.delay_max_ns - cfg.delay_min_ns + 1
    return cfg.delay_min_ns + int.from_bytes(h, "big") % span


def test_each_channel_keeps_its_own_delay_sequence():
    cfg = SimConfig(f=1, clients=2, seed=9)
    sim = Simulator(cfg)   # its clients' first sends use no channel below
    chans = [(("replica", 0), ("replica", 1)), (("replica", 1), ("replica", 0)),
             (("replica", 2), ("client", 1))]
    for idx in range(200):
        for src, dst in chans:
            assert sim._delay(src, dst) == _delay_from_scratch(
                cfg, sim._labels[src], sim._labels[dst], idx)


def test_the_first_seeded_delays_are_pinned():
    # the literal values, so a change to the derivation that the helper
    # above copied as well still shows
    sim = Simulator(SimConfig(f=1, clients=2, seed=9))
    replica_link, reply_link = ((("replica", 0), ("replica", 1)),
                                (("replica", 2), ("client", 1)))
    assert [sim._delay(*replica_link) for _ in range(8)] == [
        2296077, 4634383, 4604696, 1515679, 1536827, 1321947, 2291145, 4913086]
    assert [sim._delay(*reply_link) for _ in range(8)] == [
        3897412, 3042304, 1186086, 3251147, 2363043, 2163030, 3631245, 1471351]


# ------------------------------------------------------------- event queue

# (delay, priority, entry): an entry of True appends to the list that
# EventQueue.slot returns, fetched once per key per step as the host does.
_KEYS = st.tuples(st.integers(0, 3), st.sampled_from((-1, 0, 1)), st.booleans())


@settings(max_examples=300, deadline=None)
@given(initial=st.lists(_KEYS, max_size=12),
       reactions=st.lists(st.lists(_KEYS, max_size=4), max_size=40))
def test_event_queue_pops_in_time_priority_insertion_order(initial, reactions):
    # The k-th event popped pushes reactions[k], each (delay, priority) after
    # its own time; a zero delay at a lower priority lands below the key
    # being drained. The reference is a heap of (time, priority, insertion).
    def replay(push, pop_all):
        eid = 0

        def step(t, keys):
            nonlocal eid
            held = {}
            for delay, prio, bulk in keys:
                eid += 1
                push(t + delay, prio, eid, bulk, held)

        step(0, initial)
        order = []
        for k, (t, prio, ev) in enumerate(pop_all()):
            order.append((t, prio, ev))
            step(t, reactions[k] if k < len(reactions) else ())
        return order

    queue = EventQueue()
    heap = []

    def queue_push(t, prio, ev, bulk, held):
        if not bulk:
            queue.push(t, prio, ev)
            return
        events = held.get((t, prio))
        if events is None:
            events = held[(t, prio)] = queue.slot(t, prio)
        events.append(ev)

    def heap_pop_all():
        while heap:
            yield heapq.heappop(heap)

    got = replay(queue_push, lambda: iter(queue))
    want = replay(lambda t, prio, ev, bulk, held:
                  heapq.heappush(heap, (t, prio, ev)), heap_pop_all)
    assert got == want


# ------------------------------------------------------- host bookkeeping

_CONSTANT = (1_000_000, 1_000_000)
_SEEDED = (1_000_000, 5_000_000)


def _bare_host(delays) -> Simulator:
    """A built f=1 simulator at t=1 ms with an empty queue and no counts."""
    sim = Simulator(SimConfig(f=1, clients=1, seed=9, delay_min_ns=delays[0],
                              delay_max_ns=delays[1]))
    sim._queue, sim.now = EventQueue(), 1_000_000
    sim.msgs_by_type.clear()
    sim.bytes_by_type.clear()
    return sim


@pytest.mark.parametrize("delays", [_CONSTANT, _SEEDED],
                         ids=["constant", "seeded"])
def test_a_step_counts_and_queues_each_send(delays):
    # message a to two peers, then the replies b, c and b again, then the
    # prepare p to two peers, then a again: runs of one object (a, p) or of
    # one fixed-size type (the replies), each counted at once
    sim = _bare_host(delays)
    cfg, src = sim.cfg, ("replica", 0)
    a, b = m.FetchBatch(seq=1, sender=0), m.Reply(0, 1, 1, b"r")
    c, p = m.Reply(0, 2, 2, b"s"), m.Prepare(0, 1, (), None)
    sends = [(("replica", 1), a), (("replica", 2), a), (("client", 0), b),
             (("client", 0), c), (("client", 0), b), (("replica", 1), p),
             (("replica", 2), p), (("replica", 1), a)]
    sim._apply(src, [("send", dst, msg) for dst, msg in sends])

    msgs, nbytes, want, used = {}, {}, [], {}
    for i, (dst, msg) in enumerate(sends):
        mtype = m.msg_type(msg)
        msgs[mtype] = msgs.get(mtype, 0) + 1
        nbytes[mtype] = nbytes.get(mtype, 0) + m.wire_size(msg, cfg.sizes, cfg.f)
        delay = cfg.delay_min_ns
        if delays == _SEEDED:
            idx = used[dst] = used.get(dst, -1) + 1
            delay = _delay_from_scratch(cfg, "r0", sim._labels[dst], idx)
        want.append((sim.now + delay, i, (dst, src, msg)))
    assert sim.msgs_by_type == msgs
    assert sim.bytes_by_type == nbytes
    assert list(sim._queue) == [(t, 0, ev) for t, _, ev in sorted(want)]


@pytest.mark.parametrize("delays", [_CONSTANT, _SEEDED],
                         ids=["constant", "seeded"])
def test_an_unsized_message_raises_before_it_is_queued_or_counted(delays):
    sim = _bare_host(delays)
    a = m.FetchBatch(seq=1, sender=0)
    with pytest.raises(TypeError, match="unsized message object"):
        sim._apply(("replica", 0), [("send", ("replica", 1), a),
                                    ("send", ("replica", 2), a),
                                    ("send", ("replica", 1), object()),
                                    ("send", ("replica", 2), a)])
    # a's first run is counted and queued as sent; nothing after it is
    assert sim.msgs_by_type == {"fetchbatch": 2}
    assert sim.bytes_by_type == {"fetchbatch": 2 * m.wire_size(
        a, sim.cfg.sizes, sim.cfg.f)}
    assert [ev for _, _, ev in sim._queue] == [
        (("replica", 1), ("replica", 0), a), (("replica", 2), ("replica", 0), a)]


# ------------------------------------------------------------ error context


def _failing(monkeypatch, owner, name, when):
    real = getattr(owner, name)

    def failing(self, *args):
        if when(self, *args):
            raise RuntimeError("boom")
        return real(self, *args)

    monkeypatch.setattr(owner, name, failing)


def test_a_handler_error_names_the_seed_event_time_and_message(monkeypatch):
    _failing(monkeypatch, Replica, "handle",
             lambda rep, msg, now: rep.id == 2 and isinstance(msg, m.Commit))
    with pytest.raises(RuntimeError) as info:
        run(SimConfig(f=1, clients=1, requests_per_client=1, seed=3))
    # the exception, its message and its traceback are the handler's own
    assert str(info.value) == "boom"
    assert info.traceback[-1].name == "failing"
    assert len(info.value.__notes__) == 1
    assert re.fullmatch(r"seed 3, event \d+ at t=\d+ ns: "
                        r"r2 handling commit from r[01]",
                        info.value.__notes__[0])


def test_a_timer_error_names_the_timer(monkeypatch):
    _failing(monkeypatch, Replica, "on_timer",
             lambda rep, kind, key, now: kind == "batch")
    with pytest.raises(RuntimeError) as info:
        run(SimConfig(f=1, clients=1, requests_per_client=3, batch_size=4,
                      seed=1))
    assert re.fullmatch(r"seed 1, event \d+ at t=\d+ ns: "
                        r"r0 handling timer batch", info.value.__notes__[0])


# -------------------------------------------------------- cycle collector


@pytest.fixture
def collector():
    """Puts back the cycle collector's state on entry after the test."""
    was = gc.isenabled()
    yield
    (gc.enable if was else gc.disable)()


@pytest.mark.parametrize("enabled", [True, False])
def test_a_run_leaves_the_collector_as_it_found_it(
        monkeypatch, collector, enabled):
    # the collector stays off while the host builds, runs and judges, and
    # under run(cfg) until the simulator is freed
    seen = []
    for owner, name in ((Client, "start"), (Replica, "handle"),
                        (Simulator, "_verdict")):
        real = getattr(owner, name)

        def spy(self, *args, real=real):
            seen.append(gc.isenabled())
            return real(self, *args)

        monkeypatch.setattr(owner, name, spy)
    cfg, freed = SimConfig(f=1, clients=1, requests_per_client=1, seed=3), []

    def on_free(sim):
        if sim.cfg is cfg:
            freed.append(gc.isenabled())

    monkeypatch.setattr(Simulator, "__del__", on_free, raising=False)
    (gc.enable if enabled else gc.disable)()
    run(cfg)
    assert gc.isenabled() is enabled
    assert freed == [False]
    Simulator(dataclasses.replace(cfg)).run()
    assert gc.isenabled() is enabled
    assert seen and not any(seen)


@pytest.mark.parametrize("enabled", [True, False])
def test_a_failed_run_leaves_the_collector_as_it_found_it(
        monkeypatch, collector, enabled):
    cfg = SimConfig(f=1, clients=1, requests_per_client=1, seed=3)
    (gc.enable if enabled else gc.disable)()
    with monkeypatch.context() as patch:
        _failing(patch, Replica, "handle",
                 lambda rep, msg, now: isinstance(msg, m.Commit))
        with pytest.raises(RuntimeError):
            run(cfg)
    assert gc.isenabled() is enabled
    # a construction that raises, at the first client's first request
    _failing(monkeypatch, Client, "start", lambda client, now: True)
    with pytest.raises(RuntimeError):
        Simulator(cfg)
    assert gc.isenabled() is enabled


def test_a_finished_run_frees_its_replicas_by_reference_counting(collector):
    gc.disable()
    sim = Simulator(SimConfig(f=1, clients=2, requests_per_client=2, seed=3))
    replica = weakref.ref(sim.replicas[1])
    result = sim.run()
    del sim
    assert replica() is None
    assert result.verdict["all_clients_done"]


# --------------------------------------------------------- model vs tallies


@pytest.mark.parametrize("f", [1, 2, 3])
@pytest.mark.parametrize("batch", [1, 10])
def test_simulated_counts_equal_closed_form(f, batch):
    res = measure_overhead(exact_cell(f, batch))
    assert res["msgs_match"], res
    assert res["bytes_match"], res


def test_smallest_cell_counts_frozen():
    res = measure_overhead(exact_cell(1, 1))
    # two consensus rounds of the n=3 count table
    assert res["sim_msgs_on"] == 32
    assert res["sim_msgs_off"] == 28
    assert res["sim_msg_overhead"] == Fraction(1, 7)
    assert res["sim_byte_overhead"] == Fraction(23, 110)


def test_decision_traffic_absent_when_disabled():
    r = run(exact_cell(2, 1, decisions=False))
    assert r.msgs_by_type.get("decision", 0) == 0
    assert r.verdict["decisions_sent"] == 0


# ---------------------------------------------------------- delta deferral


def test_patient_timer_suppresses_every_decision():
    # evidence of peer progress arrives before a patient timer fires
    cfg = SimConfig(f=1, clients=2, requests_per_client=3,
                    delay_min_ns=1_000_000, delay_max_ns=1_000_000,
                    delta_ns=4_000_000, checkpoint_interval=1,
                    record_trace=False)
    r = run(cfg)
    assert r.verdict["all_clients_done"]
    assert r.msgs_by_type.get("decision", 0) == 0
    assert r.verdict["decisions_sent"] == 0
    assert r.verdict["decisions_suppressed"] > 0


def test_eager_timer_ships_decisions():
    cfg = SimConfig(f=1, clients=2, requests_per_client=3,
                    delay_min_ns=1_000_000, delay_max_ns=5_000_000,
                    delta_ns=0, record_trace=False)
    r = run(cfg)
    assert r.verdict["all_clients_done"]
    assert r.msgs_by_type.get("decision", 0) > 0


# ------------------------------------------------------------ mode costs


def test_signature_mode_spares_verifier_accesses():
    base = dict(f=1, clients=1, requests_per_client=2, record_trace=False)
    hm = run(SimConfig(tc_mode="hmac", **base))
    sg = run(SimConfig(tc_mode="sig", **base))
    assert hm.verdict["all_clients_done"] and sg.verdict["all_clients_done"]
    for rid in range(3):
        assert sg.tc_accesses[rid] < hm.tc_accesses[rid]


def _certificate_crypto(monkeypatch, cfg, afresh):
    """One run, and its counts of certificate checks, certificates issued
    and HMACs under the system key; afresh drops each certificate's
    expected tag before every check."""
    sim = Simulator(cfg)
    n = {"checks": 0, "issued": 0, "hmacs": 0}
    real_verify, real_prove = TrustedComponent.verify, TrustedComponent._prove
    real_digest = hmac.digest

    def verify(self, cert, directory):
        n["checks"] += 1
        if afresh:
            cert.__dict__.pop("_hmac_tag", None)
        return real_verify(self, cert, directory)

    def prove(self, payload):
        n["issued"] += 1
        return real_prove(self, payload)

    def digest(key, msg, name):
        n["hmacs"] += key == sim.system_key
        return real_digest(key, msg, name)

    with monkeypatch.context() as mp:
        mp.setattr(TrustedComponent, "verify", verify)
        mp.setattr(TrustedComponent, "_prove", prove)
        mp.setattr(hmac, "digest", digest)
        return sim.run(), n


def test_a_run_computes_each_certificate_tag_at_most_twice(monkeypatch):
    # issuing computes a certificate's proof, and its first check the tag
    # every later check compares against; the memo changes no output or count
    cfg = GOLDEN["gap_forever"][0]
    res, n = _certificate_crypto(monkeypatch, cfg, afresh=False)
    ref, ref_n = _certificate_crypto(monkeypatch, cfg, afresh=True)
    assert res.msgs_by_type["viewchange"] > 0
    assert res.summary_dict() == ref.summary_dict()
    assert res.tc_accesses == ref.tc_accesses
    assert (n["checks"], n["issued"]) == (ref_n["checks"], ref_n["issued"])
    assert n["issued"] < n["hmacs"] <= 2 * n["issued"] < ref_n["hmacs"]


# -------------------------------------------------------------- scenarios


def test_silent_repliers_dichotomy_smallest():
    on = run(SimConfig(f=1, clients=2, requests_per_client=2, seed=3,
                       adversary="silent_repliers", decisions=True,
                       record_trace=False)).verdict
    off = run(SimConfig(f=1, clients=2, requests_per_client=2, seed=3,
                        adversary="silent_repliers", decisions=False,
                        record_trace=False)).verdict
    assert on["safety_ok"] and on["all_clients_done"]
    assert off["safety_ok"] and not off["all_clients_done"]


@pytest.mark.parametrize("f", [1, 2])
def test_n_f_replies_and_threshold_proofs_under_silent_repliers(f):
    # the two options no other simulator run sets; 10 s of virtual time,
    # since the default 2 s can end a longer run before its last request
    r = run(SimConfig(f=f, clients=4, requests_per_client=20, seed=42,
                      adversary="silent_repliers", reply_policy="n-f",
                      threshold_proofs=True, duration_ns=10_000_000_000,
                      record_trace=False))
    v = r.verdict
    assert v["safety_ok"] and v["all_committed"] and v["all_clients_done"]
    decisions = r.msgs_by_type["decision"]
    assert decisions > 0
    assert r.bytes_by_type["decision"] == decisions * rm.decision_size(
        r.cfg.sizes, f, threshold=True)


@pytest.mark.parametrize("mode", ["detection", "prevention"])
@pytest.mark.parametrize("f", [1, 2])
@pytest.mark.parametrize("option", [{"reply_policy": "n-f"},
                                    {"threshold_proofs": True}],
                         ids=["n_f_replies", "threshold_proofs"])
def test_each_reply_option_alone_is_safe_and_live(option, f, mode):
    # fault-free, each option without the other, in both modes
    v = run(SimConfig(f=f, mode=mode, clients=4, requests_per_client=20,
                      seed=42, duration_ns=10_000_000_000, record_trace=False,
                      **option)).verdict
    assert v["safety_ok"] and v["all_committed"] and v["all_clients_done"]


def test_crash_beyond_f_stalls_and_restore_recovers():
    base = SimConfig(f=1, clients=2, requests_per_client=2, seed=7,
                     record_trace=False)
    stall = run(dataclasses.replace(base, adversary="crash_tcs",
                adversary_params={"k": 2, "crash_at_ns": 8_000_000})).verdict
    assert stall["safety_ok"] and not stall["all_clients_done"]
    resumed = run(dataclasses.replace(base, adversary="crash_tcs",
                  adversary_params={"k": 2, "crash_at_ns": 8_000_000,
                                    "restore_at_ns": 700_000_000})).verdict
    assert resumed["safety_ok"] and resumed["all_clients_done"]


def test_restarted_component_cannot_rejoin_the_timeline():
    cfg = SimConfig(f=1, clients=2, requests_per_client=3, seed=7,
                    adversary="crash_tcs",
                    adversary_params={"k": 1, "crash_at_ns": 8_000_000,
                                      "restart_at_ns": 11_000_000},
                    record_trace=False)
    v = run(cfg).verdict
    assert v["safety_ok"] and v["all_clients_done"]
    assert v["stale_epoch_drops"] > 0


# ---------------------------------------------------------------- outputs


def test_write_outputs_round_trips(tmp_path):
    r = run(SimConfig(f=1, clients=1, requests_per_client=1, seed=2))
    r.write_outputs(str(tmp_path))
    lines = (tmp_path / "trace.jsonl").read_text().splitlines()
    assert lines and all(json.loads(ln) for ln in lines)
    summary = json.loads((tmp_path / "summary.json").read_text())
    assert summary["verdict"]["safety_ok"] is True
    header = (tmp_path / "tallies.csv").read_text().splitlines()[0]
    assert header.split(",") == TALLY_FIELDS


# Pinned sha256 of trace.jsonl followed by summary.json. A change that is
# meant to keep behaviour must keep these; one that changes behaviour on
# purpose must say why the new hashes are right.
GOLDEN = {
    "hmac": (SimConfig(f=1, clients=2, requests_per_client=2, seed=1),
             "2616b76fce7f00c5ea310915969306f7214d5ce8026ab33791e102f74e3571b0"),
    "sig": (SimConfig(f=1, clients=2, requests_per_client=2, seed=2,
                      tc_mode="sig"),
            "ed9347aa9fca0770327972cafc3ed6bcd2282c4da844d7173287c2bda4ca5a64"),
    "prevention": (
        SimConfig(f=1, clients=2, requests_per_client=2, seed=3,
                  mode="prevention"),
        "9a1b50f34b73837451df923febd8ad59be35e924641cf5c7a5c334e91ea91418"),
    "equivocate_withhold": (
        SimConfig(f=1, clients=2, requests_per_client=3, seed=5,
                  adversary="equivocate_withhold"),
        "fd1c3a97b8dbf9719403f228b46be6a07c2864f336590d8d1e4a21c9d966ed5a"),
    "gap_forever": (
        SimConfig(f=1, clients=1, requests_per_client=3, seed=4,
                  adversary="gap_forever"),
        "457255bb4eb93cd67108aca23ab1f24619624f278cf0e0513f0de7d2493ba387"),
    "gap_forever_prevention": (
        SimConfig(f=1, clients=1, requests_per_client=3, seed=4,
                  adversary="gap_forever", mode="prevention"),
        "ce36ecdf71ebc9989b4a87d514cab24b5d76843a727bb1a2234a132dd6033735"),
    "gap_forever_sig": (
        SimConfig(f=1, clients=1, requests_per_client=3, seed=4,
                  adversary="gap_forever", tc_mode="sig"),
        "607071887be06bcb74b4c7ed25c084cc352ba51541e89826b2530320a7d8ae54"),
    "silent_repliers": (
        SimConfig(f=1, clients=2, requests_per_client=2, seed=3,
                  adversary="silent_repliers"),
        "3acdf2088a2392049f720d2f47b65854e5f28166047e96329f433ca162233097"),
    "counter_identity": (  # unsafe: pins the violation path of the verdict
        SimConfig(f=1, clients=1, requests_per_client=1, seed=5,
                  adversary="counter_identity", vulnerable_tc=True,
                  counter_policy="announced"),
        "180576da8600af3860038e6b11f2923454173f436c620a9f6f3ff30ec609047b"),
    "crash_restore": (
        SimConfig(f=1, clients=2, requests_per_client=2, seed=7,
                  adversary="crash_tcs",
                  adversary_params={"k": 2, "crash_at_ns": 8_000_000,
                                    "restore_at_ns": 700_000_000}),
        "5b4820b16d9c945466defe707512fd53bf80bcdbce923449005dddc62eb4242c"),
    "crash_restart": (
        SimConfig(f=1, clients=2, requests_per_client=3, seed=7,
                  adversary="crash_tcs",
                  adversary_params={"k": 1, "crash_at_ns": 8_000_000,
                                    "restart_at_ns": 11_000_000}),
        "b44d66298ca0cd84d7db92956aa229403962f87502c826f8a7cb7cf168116718"),
    # the batch timer proposes partial batches: batch_size above clients
    "batch_timer": (
        SimConfig(f=1, clients=1, requests_per_client=3, batch_size=4, seed=1),
        "e509b207edaf05c4f459d5538585a9cf7f1ddb2f6863a2592e7df6ecec330454"),
    "batch_timer_prevention": (
        SimConfig(f=1, clients=1, requests_per_client=3, batch_size=4, seed=1,
                  mode="prevention"),
        "2a3d549f89e958cef6810dcfc1936e83258c4eb9c3a53d99da2ffb9657d547fd"),
    # a partial batch still waits after the timer fires, so it re-arms
    "batch_timer_backlog": (
        SimConfig(f=1, clients=7, requests_per_client=5, batch_size=4, seed=1),
        "10fe72dc96d6bc65626a67a8192052bff38e99cfe2bd5c2b8b82fa2dfa3338a8"),
    # the new leader arms the batch timer for the backlog it inherits
    "batch_timer_view_change": (
        SimConfig(f=1, clients=1, requests_per_client=3, batch_size=4, seed=4,
                  adversary="gap_forever"),
        "b8ae2940c22a387f92f4d89152ea978c28c1f0195c379285676e741eb6a53959"),
    "pipelining": (
        SimConfig(f=1, clients=3, requests_per_client=10, batch_size=4,
                  pipelining=True, pipeline_depth=4, seed=1),
        "b2e4fe098b96c736cc73ea921acc6e3c475d8e0692938ee3979757e0c4a910f1"),
    "pipelining_prevention": (
        SimConfig(f=1, clients=3, requests_per_client=10, batch_size=4,
                  pipelining=True, pipeline_depth=4, seed=1, mode="prevention"),
        "64bb7270e57196583d279585bc36b022f08b1804f21d545adb12698984bfc2bd"),
    # followers withhold a commit until its predecessor commits
    "deferred_commit": (
        SimConfig(f=2, clients=4, requests_per_client=5, seed=2),
        "b78177aff9d6c646ce62e0a1106f726e881d8277209c42d37bf320864930ba3e"),
    # zero delay: deliveries land at the instant of the timers that send
    # them, so they must run before that instant's remaining timers
    "gap_forever_zero_delay": (
        SimConfig(f=1, clients=2, requests_per_client=3, seed=4,
                  adversary="gap_forever", delay_min_ns=0, delay_max_ns=0,
                  delta_ns=0),
        "09c416ca55b8621a5363b130c16ea240ae36de315dc7def16a2f55d97edfc8e9"),
    # constant delay: every broadcast arrives at one instant
    "equivocate_withhold_constant_delay": (
        SimConfig(f=1, clients=2, requests_per_client=3, seed=5,
                  adversary="equivocate_withhold", delay_min_ns=1_000_000,
                  delay_max_ns=1_000_000),
        "8c3fee6d436a0b014218d9d1026c84cf34a37ef2d2f575c1972acfac3446a3d1"),
}


@pytest.mark.parametrize("name", sorted(GOLDEN))
def test_outputs_match_the_golden_hashes(name, tmp_path):
    cfg, want = GOLDEN[name]
    gc.collect()
    result = run(cfg)
    # a run makes no reference cycles, so its loop can leave the collector off
    assert gc.collect() == 0
    result.write_outputs(str(tmp_path))
    got = hashlib.sha256((tmp_path / "trace.jsonl").read_bytes()
                         + (tmp_path / "summary.json").read_bytes())
    assert got.hexdigest() == want


# ---------------------------------------------------------------- run_all

# traced: fault-free, two attacks, restored components and an unsafe run
RUN_ALL_CELLS = [
    GOLDEN["hmac"][0], GOLDEN["equivocate_withhold"][0],
    GOLDEN["gap_forever_sig"][0],
    SimConfig(f=2, clients=2, requests_per_client=2, seed=7, mode="prevention",
              adversary="crash_tcs",
              adversary_params={"k": 2, "crash_at_ns": 8_000_000,
                                "restore_at_ns": 700_000_000}),
    GOLDEN["counter_identity"][0],
]


def _no_child_left() -> None:
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def test_run_all_equals_serial_runs(monkeypatch):
    assert run_all(RUN_ALL_CELLS) == [run(cfg) for cfg in RUN_ALL_CELLS]
    _no_child_left()
    # one run more than there are cores, and at most one child per core
    cores = len(os.sched_getaffinity(0))
    cfgs = [SimConfig(f=1, clients=1, requests_per_client=2, seed=seed,
                      adversary="gap_forever", record_trace=False)
            for seed in range(cores + 1)]
    fork, forks = os.fork, []

    def counted_fork():
        forks.append(os.getpid())
        return fork()

    monkeypatch.setattr(os, "fork", counted_fork)
    assert run_all(cfgs) == [run(cfg) for cfg in cfgs]
    assert len(forks) == (cores if cores > 1 else 0)
    _no_child_left()


def test_overhead_pair_equals_serial_runs():
    cfg = exact_cell(1, 4)
    assert list(measure_overhead(cfg)["runs"]) == [
        run(dataclasses.replace(cfg, decisions=on)) for on in (True, False)]
    _no_child_left()


@pytest.mark.parametrize("why", ["one core", "another thread"])
def test_run_all_forks_nothing_on_one_core_or_beside_a_thread(monkeypatch,
                                                              why):
    want = [run(cfg) for cfg in RUN_ALL_CELLS]

    def no_fork():
        raise AssertionError("forked")

    monkeypatch.setattr(os, "fork", no_fork)
    if why == "one core":
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0})
        assert run_all(RUN_ALL_CELLS) == want
        return
    release = threading.Event()
    waiter = threading.Thread(target=release.wait)
    waiter.start()
    try:
        assert run_all(RUN_ALL_CELLS) == want
    finally:
        release.set()
        waiter.join(timeout=10)
    assert not waiter.is_alive()


def test_run_all_raises_what_the_first_failing_run_raises(monkeypatch):
    # seeds 3 and 4 fail, in different shares on two cores: the serial
    # path meets seed 3 first, and so must run_all, whichever share ends first
    handle = Replica.handle

    def failing(self, msg, now):
        if self.cfg.seed in (3, 4):
            raise RuntimeError(f"handler failed at seed {self.cfg.seed}")
        return handle(self, msg, now)

    monkeypatch.setattr(Replica, "handle", failing)
    cfgs = [SimConfig(f=1, clients=1, requests_per_client=1, seed=seed)
            for seed in range(5)]
    with pytest.raises(RuntimeError) as serial:
        run(cfgs[3])
    with pytest.raises(RuntimeError) as shared:
        run_all(cfgs)
    assert str(shared.value) == str(serial.value)
    assert shared.value.__notes__ == serial.value.__notes__
    assert "seed 3, event" in serial.value.__notes__[0]
    _no_child_left()


def test_a_child_that_dies_has_its_share_run_by_the_caller(monkeypatch):
    caller, handle = os.getpid(), Replica.handle

    def dying(self, msg, now):
        if os.getpid() != caller:
            os.kill(os.getpid(), signal.SIGKILL)
        return handle(self, msg, now)

    monkeypatch.setattr(Replica, "handle", dying)
    assert run_all(RUN_ALL_CELLS[:3]) == [run(cfg) for cfg in RUN_ALL_CELLS[:3]]
    _no_child_left()


def test_only_run_all_starts_and_ends_processes():
    """Children are forked, reaped and killed in one place, sim.run_all,
    which bounds their number and outlives none of them. A name imported
    from os would hide a call, so none is."""
    src = Path(__file__).resolve().parent.parent / "src" / "hybft"
    calls = {"fork", "_exit", "waitpid", "kill"}
    inside, offenders = set(), []
    for path in sorted(src.glob("*.py")):
        tree = ast.parse(path.read_text())
        allowed = range(0)
        if path.name == "sim.py":
            fn = next(node for node in ast.walk(tree)
                      if isinstance(node, ast.FunctionDef)
                      and node.name == "run_all")
            allowed = range(fn.lineno, fn.end_lineno + 1)
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom) and node.module == "os":
                offenders.append(f"{path.name}:{node.lineno}")
            if (isinstance(node, ast.Call)
                    and isinstance(node.func, ast.Attribute)
                    and getattr(node.func.value, "id", None) == "os"
                    and node.func.attr in calls):
                if node.lineno in allowed:
                    inside.add(node.func.attr)
                else:
                    offenders.append(f"{path.name}:{node.lineno}")
    assert offenders == []
    assert inside == calls


# ----------------------------------------------------------------- oracle


def test_oracle_reports_each_kind_of_violation():
    d1, d2 = hashlib.sha256(b"one").digest(), hashlib.sha256(b"two").digest()
    ui = UniqueIdentifier(0, 1, "r0:msg", 1, d1, b"")
    ctx = ContextCertificate(0, 1, "prepare", 0, 1, d1, b"")
    # a restart's new epoch counts afresh: these two are no double issue
    restarted = (UniqueIdentifier(0, 2, "r0:msg", 1, d2, b""),
                 ContextCertificate(0, 2, "prepare", 0, 1, d2, b""))
    ledger = Ledger()
    # replica 0 is faulty: its history is ignored, its certificates audited
    for rid, dig in ((0, d2), (1, d1), (2, d2)):
        ledger.note(rid, ("fact", "admit", (0, 1), dig))
        ledger.note(rid, ("fact", "commit", 1, dig))
        ledger.note(rid, ("fact", "execute", 1, dig))
    ledger.records[0].issued += [ui, ctx, ui, ctx, *restarted]
    assert safety_violations(ledger, {0}) == [
        {"kind": "conflicting_commit", "seq": 1,
         "claims": {d1.hex()[:12]: [1], d2.hex()[:12]: [2]}},
        {"kind": "conflicting_admission", "view": 0, "seq": 1,
         "claims": {d1.hex()[:12]: [1], d2.hex()[:12]: [2]}},
        {"kind": "divergent_execution", "seq": 1, "replicas": [1, 2]},
        {"kind": "double_ui", "replica": 0, "counter": "r0:msg", "value": 1},
        {"kind": "double_context", "replica": 0, "context": ("prepare", 0, 1)},
    ]
    # with replica 2 faulty too, one correct replica is left to contradict
    assert [v["kind"] for v in safety_violations(ledger, {0, 2})] == [
        "double_ui", "double_context"]
    alone = Ledger()
    alone.note(1, ("fact", "commit", 1, d1))
    assert safety_violations(alone, set()) == []


def test_audit_spans_a_components_crash_and_restore(monkeypatch):
    # a restore that loses the counters lets the component issue its old
    # (counter, value) pairs again in the same epoch; the host's ledger holds
    # the certificates from before the crash, so the oracle sees the doubles
    def forgetful_restore(tc, blob):
        tc.epoch = blob.epoch

    monkeypatch.setattr(TrustedComponent, "restore", forgetful_restore)
    v = run(GOLDEN["crash_restore"][0]).verdict
    assert "double_ui" in {x["kind"] for x in v["violations"]}
