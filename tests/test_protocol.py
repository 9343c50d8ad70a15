"""Replica behavior driven by hand, one message at a time.

A tiny pump routes effects between replicas synchronously; timers are fired
explicitly so each test controls exactly which asynchrony happens. End-to-end
timing behavior lives in test_sim.py.
"""

from __future__ import annotations

import ast
import dataclasses
import hashlib
import hmac as hmaclib
from pathlib import Path

import pytest

from hybft import messages as m
from hybft import protocol
from hybft.config import SimConfig
from hybft.protocol import (_CONFIG, _NOT_STATE, Replica, _Tracker,
                             proposal_counter)
from hybft.sim import Ledger, safety_violations
from hybft.tc import Directory, TcMode, TrustedComponent, VerifyStatus

SYSKEY = b"s" * 32
CLIENT_KEY = hashlib.sha256(b"client0").digest()


class Cluster:
    """n replicas, synchronous FIFO delivery, manual timers."""

    def __init__(self, f=1, **cfg_kw):
        strict = cfg_kw.pop("strict", True)
        cfg_kw.setdefault("checkpoint_interval", 1000)
        cfg_kw.setdefault("window", 2000)
        self.cfg = SimConfig(f=f, **cfg_kw)
        n = self.cfg.n
        self.directory = Directory(TcMode.HMAC)
        self.tcs = []
        for rid in range(n):
            tc = TrustedComponent(rid, mode=TcMode.HMAC, system_key=SYSKEY,
                                  strict=strict)
            self.directory.register(rid, tc.epoch)
            self.tcs.append(tc)
        self.replicas = [Replica(rid, self.cfg, self.tcs[rid],
                                 self.directory, {0: CLIENT_KEY})
                         for rid in range(n)]
        self.client_box = []
        self.timers = []   # (replica_id, kind, key)
        self.notes = []
        self.queue = []    # (dst_rid, msg)
        self.ledger = Ledger()
        self.now = 0

    def _absorb(self, rid, effects):
        for eff in effects:
            if eff[0] == "send":
                _, (kind, ident), msg = eff
                if kind == "replica":
                    self.queue.append((ident, msg))
                else:
                    self.client_box.append((ident, msg))
            elif eff[0] == "timer":
                self.timers.append((rid, eff[1], eff[2]))
            elif eff[0] == "note":
                self.notes.append((rid, eff[1]))
            elif eff[0] == "fact":
                self.ledger.note(rid, eff)
        self.ledger.take_issued(rid, self.replicas[rid].tc)

    def inject(self, rid, msg):
        self._absorb(rid, self.replicas[rid].handle(msg, self.now))
        return self

    def request(self, rid, req):
        self._absorb(rid, self.replicas[rid].handle(req, self.now))
        return self

    def fire(self, rid, kind, key):
        self._absorb(rid, self.replicas[rid].on_timer(kind, key, self.now))
        return self

    def pump(self, drop_to=()):
        while self.queue:
            dst, msg = self.queue.pop(0)
            if dst in drop_to:
                continue
            self._absorb(dst, self.replicas[dst].handle(msg, self.now))
        return self

    def note_events(self):
        return [(rid, d["ev"]) for rid, d in self.notes]


def authed(seq: int, payload: bytes = b"op") -> m.Request:
    req = m.Request(0, seq, payload)
    mac = hmaclib.new(CLIENT_KEY, req.digest(), "sha256").digest()
    return m.Request(0, seq, payload, mac)


def broadcast_request(c: Cluster, seq: int) -> m.Request:
    req = authed(seq)
    for rid in range(c.cfg.n):
        c.request(rid, req)
    return req


# ------------------------------------------------------------ normal case


def test_leader_proposes_on_first_authed_request():
    c = Cluster()
    c.request(0, authed(1))
    prepares = [(d, msg) for d, msg in c.queue if isinstance(msg, m.Prepare)]
    echoes = [(d, msg) for d, msg in c.queue
              if isinstance(msg, m.Commit) and msg.echo]
    assert sorted(d for d, _ in prepares) == [1, 2]
    assert sorted(d for d, _ in echoes) == [1, 2]
    prep = prepares[0][1]
    assert prep.seq == 1 and prep.cert.value == 1
    assert prep.cert.counter == "r0:" + proposal_counter(0)


def test_unauthenticated_request_refused():
    c = Cluster()
    req = m.Request(0, 1, b"op")
    other = hashlib.sha256(b"client1").digest()
    c.request(0, dataclasses.replace(req, auth=b"junk"))
    # a tag that is valid under another client's key
    c.request(1, dataclasses.replace(
        req, auth=hmaclib.new(other, req.digest(), "sha256").digest()))
    assert c.queue == []
    assert c.note_events() == [(0, "bad_auth"), (1, "bad_auth")]
    assert c.replicas[0].pending == {} == c.replicas[1].pending


def test_a_retagged_copy_of_an_accepted_request_is_refused():
    # the accepted request keeps its expected tag; the copy is a new
    # instance and is checked against its own tag
    c = Cluster()
    req = authed(1)
    c.request(0, req)
    assert req.key() in c.replicas[0].pending
    c.request(1, dataclasses.replace(req, auth=b"junk"))
    assert c.note_events() == [(0, "propose"), (1, "bad_auth")]
    assert c.replicas[1].pending == {}


def test_full_round_executes_everywhere_and_replies():
    c = Cluster()
    broadcast_request(c, 1)
    c.pump()
    for r in c.replicas:
        assert r.exec_cursor == 1
        assert r.trackers[1].committed is not None
    digests = {r.exec_digest for r in c.replicas}
    assert len(digests) == 1
    replies = [msg for _, msg in c.client_box if isinstance(msg, m.Reply)]
    assert {rep.replica_id for rep in replies} == {0, 1, 2}
    assert {rep.client_seq for rep in replies} == {1}


def test_commit_quorum_counts_own_attestation():
    # at f=1 a follower holds the leader's prepare credit plus its own
    # commit, which is already a weak quorum: no third voice needed
    c = Cluster()
    c.request(0, authed(1))
    prep = next(msg for dst, msg in c.queue
                if dst == 1 and isinstance(msg, m.Prepare))
    c.queue.clear()
    c.inject(1, prep)
    t = c.replicas[1].trackers[1]
    assert t.committed == prep.bdigest()
    assert t.via == "quorum"


def test_out_of_order_prepare_buffers_until_gap_fills():
    c = Cluster(pipelining=True, pipeline_depth=4)
    r1, r2 = authed(1), authed(2)
    c.request(0, r1)
    c.request(0, r2)
    preps = [msg for dst, msg in c.queue
             if dst == 1 and isinstance(msg, m.Prepare)]
    assert [p.seq for p in preps] == [1, 2]
    c.queue.clear()
    c.inject(1, preps[1])
    assert c.replicas[1].prepared_log == {}
    assert (1, "buffer") in c.note_events()
    c.inject(1, preps[0])
    assert sorted(c.replicas[1].prepared_log) == [1, 2]


def test_duplicate_delivery_is_idempotent():
    c = Cluster()
    broadcast_request(c, 1)
    sends = list(c.queue)
    c.pump()
    done = {r.id: r.exec_digest for r in c.replicas}
    for dst, msg in sends:
        c.inject(dst, msg)
    c.pump()
    assert {r.id: r.exec_digest for r in c.replicas} == done


# ----------------------------------------------------- equivocation evidence


def test_request_bound_at_two_seqs_flags_the_leader():
    c = Cluster()
    req = authed(1)
    tc0 = c.tcs[0]
    b1 = m.batch_digest((req,))
    u1 = tc0.create_ui(m.prepare_digest(0, 1, b1), counter=proposal_counter(0))
    px = m.Prepare(0, 1, (req,), u1)
    u2 = tc0.create_ui(m.prepare_digest(0, 2, b1), counter=proposal_counter(0))
    py = m.Prepare(0, 2, (req,), u2)
    c.inject(1, px)
    c.queue.clear()
    c.inject(1, py)
    assert (1, "flag_leader") in c.note_events()
    assert 0 in c.replicas[1].flagged_views
    # r1 is the view-1 leader, so its own vote is absorbed locally
    assert c.replicas[1].voted_view == 1
    assert 1 in c.replicas[1].vc_votes.get(1, {})
    # a different flagging replica routes its vote to r1 over the wire
    c.inject(2, px)
    c.queue.clear()
    c.inject(2, py)
    vcs = [(dst, msg) for dst, msg in c.queue if isinstance(msg, m.ViewChange)]
    assert [(dst, msg.new_view) for dst, msg in vcs] == [(1, 1)]


def test_flagged_view_stops_admitting():
    c = Cluster()
    req = authed(1)
    tc0 = c.tcs[0]
    b1 = m.batch_digest((req,))
    u1 = tc0.create_ui(m.prepare_digest(0, 1, b1), counter=proposal_counter(0))
    u2 = tc0.create_ui(m.prepare_digest(0, 2, b1), counter=proposal_counter(0))
    c.inject(1, m.Prepare(0, 1, (req,), u1))
    c.inject(1, m.Prepare(0, 2, (req,), u2))
    c.queue.clear()
    other = authed(9)
    b3 = m.batch_digest((other,))
    u3 = tc0.create_ui(m.prepare_digest(0, 3, b3), counter=proposal_counter(0))
    c.inject(1, m.Prepare(0, 3, (other,), u3))
    assert 3 not in c.replicas[1].prepared_log


# -------------------------------------------------------------- decisions


def test_decision_lets_excluded_replica_commit():
    c = Cluster()
    broadcast_request(c, 1)
    c.pump(drop_to={2})  # r2 hears nothing about seq 1
    assert c.replicas[2].trackers.get(1) is None
    c.fire(1, "decision", 1)
    decisions = [(dst, msg) for dst, msg in c.queue
                 if isinstance(msg, m.Decision)]
    assert {dst for dst, _ in decisions} == {2}
    c.pump()
    t = c.replicas[2].trackers[1]
    assert t.via == "decision"
    assert c.replicas[2].exec_cursor == 1  # batch fetched, then executed


def test_decision_suppressed_when_peer_known_committed():
    c = Cluster()
    broadcast_request(c, 1)
    c.pump()
    broadcast_request(c, 2)
    c.pump()
    # peers' commits for seq 2 prove (pipelining off) that seq 1 committed
    c.fire(1, "decision", 1)
    assert not any(isinstance(msg, m.Decision) for _, msg in c.queue)
    assert c.replicas[1].decisions_suppressed == 1
    # no such proof exists yet for the newest seq, so that one still ships
    c.fire(1, "decision", 2)
    assert any(isinstance(msg, m.Decision) for _, msg in c.queue)
    assert c.replicas[1].decisions_sent == 1


def test_decision_proof_needs_weak_quorum():
    c = Cluster()
    broadcast_request(c, 1)
    c.pump(drop_to={2})
    c.fire(1, "decision", 1)
    dec = next(msg for _, msg in c.queue if isinstance(msg, m.Decision))
    short = m.Decision(dec.view, dec.seq, dec.sender, dec.bdigest,
                       dec.proof[:1])
    c.queue.clear()
    c.inject(2, short)
    assert c.replicas[2].trackers.get(1) is None
    assert c.replicas[2].stats["invalid_drops"] == 1


def test_a_decision_below_the_window_commits_nothing():
    # window 2 clamps the checkpoint interval to 1: after 5 requests every
    # replica is stable at 5 and keeps the trackers of seqs 4 and 5 only
    c = Cluster(window=2)
    broadcast_request(c, 1)
    c.pump()
    bdig = c.replicas[2].trackers[1].committed
    proof = c.replicas[2]._commit_proof(1)
    for seq in range(2, 6):
        broadcast_request(c, seq)
        c.pump()
    r1 = c.replicas[1]
    assert (r1.stable_seq, sorted(r1.trackers)) == (5, [4, 5])
    effects = r1.handle(m.Decision(0, 1, 2, bdig, proof), c.now)
    assert [eff for eff in effects if eff[:2] == ("fact", "commit")] == []


def test_late_commits_below_the_window_commit_nothing():
    # the leader's echo and replica 2's commit of seq 1 reach replica 1 again
    # once it is stable at 5: f+1 claims, but seq 1's tracker is gone
    c = Cluster(window=2)
    broadcast_request(c, 1)
    late = []
    while c.queue:
        dst, msg = c.queue.pop(0)
        if dst == 1 and isinstance(msg, m.Commit):
            late.append(msg)
        c.inject(dst, msg)
    for seq in range(2, 6):
        broadcast_request(c, seq)
        c.pump()
    r1 = c.replicas[1]
    assert (r1.stable_seq, sorted(r1.trackers)) == (5, [4, 5])
    assert sorted((com.sender, com.echo) for com in late) == [(0, True),
                                                              (2, False)]
    effects = [eff for com in late for eff in r1.handle(com, c.now)]
    assert [eff for eff in effects if eff[0] in ("fact", "timer")] == []
    assert sorted(r1.trackers) == [4, 5]


@pytest.mark.xfail(strict=True, reason=(
    "a Decision timer that fires after its tracker was pruned sends no "
    "Decision and counts no suppression: ROADMAP item 6 (f)"))
def test_a_decision_timer_fired_after_pruning_is_accounted_for():
    # replica 2 is cut off from seqs 1-5, while replica 1 becomes stable at 5
    # and keeps the trackers of seqs 4 and 5 only
    c = Cluster(window=2)
    for seq in range(1, 6):
        broadcast_request(c, seq)
        c.pump(drop_to={2})
    r1 = c.replicas[1]
    assert (r1.stable_seq, sorted(r1.trackers)) == (5, [4, 5])
    assert (1, "decision", 1) in c.timers
    assert c.replicas[2].exec_cursor == 0
    before = r1.decisions_sent + r1.decisions_suppressed
    c.fire(1, "decision", 1)
    assert r1.decisions_sent + r1.decisions_suppressed > before


def test_a_decision_commit_fetches_its_batch_once():
    c = Cluster()
    broadcast_request(c, 1)
    c.pump(drop_to={2})  # r2 misses the prepare of seq 1
    c.fire(1, "decision", 1)
    dec = next(msg for dst, msg in c.queue
               if dst == 2 and isinstance(msg, m.Decision))
    assert c.replicas[2].prepared_log.get(1) is None
    effects = c.replicas[2].handle(dec, c.now)
    # from the Decision's sender, which holds the batch
    assert [eff[1] for eff in effects if isinstance(eff[-1], m.FetchBatch)] \
        == [("replica", dec.sender)]


def test_decisions_disabled_never_arms_timer():
    c = Cluster(decisions=False)
    broadcast_request(c, 1)
    c.pump()
    assert not any(kind == "decision" for _, kind, _ in c.timers)
    assert all(r.decisions_sent == 0 for r in c.replicas)


# ---------------------------------------------------------- counter policy


def test_pinned_policy_drops_minted_counter_proposals():
    c = Cluster(strict=False)
    req = authed(1)
    q = c.tcs[0].flexi_create_counter()
    b1 = m.batch_digest((req,))
    ui = c.tcs[0].create_ui(m.prepare_digest(0, 1, b1), counter=q)
    c.inject(1, m.Prepare(0, 1, (req,), ui))
    assert c.replicas[1].prepared_log == {}
    assert c.replicas[1].stats["invalid_drops"] == 1


def test_announced_policy_admits_minted_counter():
    c = Cluster(strict=False, counter_policy="announced")
    req = authed(1)
    q = c.tcs[0].flexi_create_counter()
    b1 = m.batch_digest((req,))
    ui = c.tcs[0].create_ui(m.prepare_digest(0, 1, b1), counter=q)
    c.inject(1, m.Prepare(0, 1, (req,), ui))
    assert 1 in c.replicas[1].prepared_log


# ------------------------------------------------------------ stale epochs


def test_stale_epoch_prepare_dropped_and_counted():
    c = Cluster()
    restarted = TrustedComponent(0, mode=TcMode.HMAC, system_key=SYSKEY,
                                 epoch=2)
    req = authed(1)
    b1 = m.batch_digest((req,))
    ui = restarted.create_ui(m.prepare_digest(0, 1, b1),
                             counter=proposal_counter(0))
    c.inject(1, m.Prepare(0, 1, (req,), ui))
    assert c.replicas[1].stats["stale_epoch_drops"] == 1
    assert c.replicas[1].prepared_log == {}


# ------------------------------------------------------------- prevention


def test_prevention_round_trip_uses_context_certificates():
    c = Cluster(mode="prevention")
    broadcast_request(c, 1)
    prep = next(msg for _, msg in c.queue if isinstance(msg, m.Prepare))
    assert (prep.cert.phase, prep.cert.view, prep.cert.seq) == ("prepare", 0, 1)
    c.pump()
    for r in c.replicas:
        assert r.exec_cursor == 1
    assert len({r.exec_digest for r in c.replicas}) == 1


# -------------------------------------------------------------- suspicion


def test_follower_suspects_stalled_leader():
    c = Cluster()
    c.request(2, authed(1))  # one follower only: nothing will progress
    assert (2, "suspect", 0) in c.timers
    c.fire(2, "suspect", 0)
    # the defection vote travels to the view-1 leader, r1
    vcs = [(dst, msg) for dst, msg in c.queue if isinstance(msg, m.ViewChange)]
    assert [(dst, msg.new_view) for dst, msg in vcs] == [(1, 1)]
    assert c.replicas[2].voted_view == 1


def test_suspicion_cleared_once_backlog_empties():
    c = Cluster()
    broadcast_request(c, 1)
    assert (1, "suspect", 0) in c.timers
    c.pump()
    c.fire(1, "suspect", 0)
    assert not any(isinstance(msg, m.ViewChange) for _, msg in c.queue)
    assert c.replicas[1].voted_view == 0


def test_suspicion_rearms_while_progress_continues():
    c = Cluster()
    broadcast_request(c, 1)  # arms r1's timer with a mark of zero progress
    c.pump()
    c.request(1, authed(2))  # only r1 hears this one: backlog stays non-empty
    c.queue.clear()
    n_timers = len(c.timers)
    c.fire(1, "suspect", 0)
    # seq 1 landed since arming, so the period renews instead of defecting
    assert not any(isinstance(msg, m.ViewChange) for _, msg in c.queue)
    assert c.timers[n_timers:] == [(1, "suspect", 0)]
    # a full quiet period with the same backlog does defect
    c.fire(1, "suspect", 0)
    assert c.replicas[1].voted_view == 1


def test_leader_joining_a_ready_quorum_installs_the_view_once():
    # f+1 defection votes can reach the incoming leader before its own timer
    # fires; casting its joining vote completes the quorum on the spot, and
    # the handler must not then treat the original quorum as a second one
    c = Cluster(f=2)
    req = authed(1)
    for rid in (1, 2, 3, 4):
        c.request(rid, req)
    for rid in (2, 3, 4):
        c.fire(rid, "suspect", 0)
        c.pump()
    emitted = [(rid, ev) for rid, ev in c.note_events() if ev == "newview"]
    assert emitted == [(1, "newview")]
    assert all(r.view == 1 for r in c.replicas)
    assert all(r.exec_cursor == 1 for r in c.replicas)
    # sequencing stays in step with the proposal counter afterwards
    req2 = authed(2)
    for rid in range(5):
        c.request(rid, req2)
    c.pump()
    assert all(r.exec_cursor == 2 for r in c.replicas)
    assert c.replicas[1].next_seq == 3


# -------------------------------------------------------------- checkpoints


def test_checkpoints_advance_the_stable_floor():
    c = Cluster(checkpoint_interval=2)
    broadcast_request(c, 1)
    c.pump()
    broadcast_request(c, 2)
    c.pump()
    for r in c.replicas:
        assert r.stable_seq == 2


def test_the_window_clamps_the_checkpoint_interval_for_every_replica():
    # the derived settings have one definition (SimConfig): a window of 4
    # clamps the interval to 2, so stable checkpoints keep the window open
    c = Cluster(checkpoint_interval=100, window=4)
    for seq in range(1, 7):
        broadcast_request(c, seq)
        c.pump()
    for r in c.replicas:
        assert r.exec_cursor == 6
        assert r.stable_seq == 6


# ------------------------------------------------------------------ forks


def _owned_containers(rep: Replica) -> set:
    """ids of every mutable object a replica owns, at any depth."""
    found = {id(rep.tc)}

    def walk(obj):
        if isinstance(obj, _Tracker):
            found.add(id(obj))
            walk(obj.claims)
        elif isinstance(obj, (dict, list, set)):
            found.add(id(obj))
            if not isinstance(obj, set):
                for item in (obj.values() if isinstance(obj, dict) else obj):
                    walk(item)

    # the configuration is shared by design; the component is walked below
    for name, value in vars(rep).items():
        if name not in _CONFIG | {"tc"}:
            walk(value)
    for value in vars(rep.tc).values():
        walk(value)
    return found


def _forked_cluster() -> Cluster:
    """Three replicas past two stable checkpoints and a view change, with
    request 3 pending at replicas 1 and 2."""
    c = Cluster(checkpoint_interval=1)
    broadcast_request(c, 1)
    c.pump()
    broadcast_request(c, 2)
    c.pump()
    r3 = authed(3)
    c.request(1, r3).request(2, r3)
    c.fire(1, "suspect", 0).fire(2, "suspect", 0).pump()
    c.fire(1, "suspect", 0).fire(2, "suspect", 0).pump()
    assert all(r.view == 1 and r.stable_seq == 3 for r in c.replicas)
    return c


def test_clone_shares_no_mutable_state_with_its_parent():
    for rep in _forked_cluster().replicas:
        assert rep.trackers and rep.checkpoint_claims
        child = rep.clone()
        assert child.state_key() == rep.state_key()
        assert not _owned_containers(child) & _owned_containers(rep)


def _change(value):
    """`value` changed: a container, tracker or component in place at its
    first mutable element, or at the top; any other value replaced by a
    different one of its type."""
    if isinstance(value, dict):
        inner = next((v for v in value.values()
                      if isinstance(v, (dict, list, set, _Tracker))), None)
        if inner is None:
            value[("changed",)] = ("changed",)
        else:
            _change(inner)
    elif isinstance(value, _Tracker):
        _change(value.claims)
    elif isinstance(value, list):
        value.append(("changed",))
    elif isinstance(value, set):
        value.add(("changed",))
    elif isinstance(value, TrustedComponent):
        value.create_ui(b"c" * 32)
    elif isinstance(value, bool):
        return not value
    elif isinstance(value, int):
        return value + 1
    elif isinstance(value, (bytes, tuple)):
        return value + type(value)([0])
    else:
        raise TypeError(f"no change for {type(value).__name__}")
    return value


def test_every_state_attribute_is_cloned_and_keyed():
    # one rule decides what is state: whatever attribute of a clone changes,
    # its key changes and its parent's does not
    rep = _forked_cluster().replicas[2]
    key = rep.state_key()
    kinds = set()
    for name, value in vars(rep).items():
        if name in _NOT_STATE:
            continue
        kinds.add(type(value).__name__)
        child = rep.clone()
        setattr(child, name, _change(getattr(child, name)))
        assert child.state_key() != key, name
        assert rep.state_key() == key, name
    assert kinds == {"dict", "list", "set", "tuple", "int", "bool", "bytes",
                     "TrustedComponent"}
    # the counters are copied, not keyed
    child = rep.clone()
    child.stats["verifies"] += 1
    child.decisions_sent += 1
    assert child.state_key() == key and child.stats != rep.stats


def test_clone_keeps_the_subclass_and_its_attributes():
    class Tagged(Replica):
        pass

    c = Cluster()
    rep = Tagged(1, c.cfg, c.tcs[1], c.directory, {0: CLIENT_KEY})
    rep.tag = "faulty"
    rep.seen = {1: {2}}
    child = rep.clone()
    assert type(child) is Tagged and child.tag == "faulty"
    # an attribute the subclass adds is state: copied at every depth, keyed
    assert child.state_key() == rep.state_key()
    child.seen[1].add(3)
    assert rep.seen == {1: {2}}
    assert child.state_key() != rep.state_key()
    child.seen[1].discard(3)
    child.tag = "correct"
    assert child.state_key() != rep.state_key()


# ------------------------------------------------------- forged issuers
#
# A faulty replica's component certifies whatever the replica asks, but every
# certificate names the component that issued it. Each case below presents a
# certificate minted by the faulty replica's own component as a statement of
# some other replica; a correct replica must refuse it.


def _forged_decision_proof():
    # f=1: replica 2 forges both the leader's prepare and its own commit for
    # a batch the leader never proposed, and hands the proof to replica 1
    c = Cluster()
    forger = c.tcs[2]
    other = m.batch_digest((authed(9),))
    proof = ((0, "prepare", forger.create_ui(m.prepare_digest(0, 1, other))),
             (2, "commit", forger.create_ui(m.commit_digest(0, 1, 2, other))))
    c.inject(1, m.Decision(0, 1, 2, other, proof))
    c.request(0, authed(1)).request(1, authed(1)).pump(drop_to={2})
    assert safety_violations(c.ledger, {2}) == []
    assert c.replicas[0].exec_cursor == c.replicas[1].exec_cursor == 1


def _forged_commits_and_echo():
    # f=2: replica 4 speaks for replicas 2 and 3 and for the leader's echo
    c = Cluster(f=2)
    forger = c.tcs[4]
    other = m.batch_digest((authed(9),))
    forged = [m.Commit(0, 1, s, other,
                       forger.create_ui(m.commit_digest(0, 1, s, other)))
              for s in (2, 3)]
    forged.append(m.Commit(0, 1, 0, other,
                           forger.create_ui(m.prepare_digest(0, 1, other)),
                           echo=True))
    for com in forged:
        c.inject(1, com)
    assert 1 not in c.replicas[1].trackers
    assert c.replicas[1].stats["invalid_drops"] == 3


def _forged_stable_certificate():
    # replica 2's component signs the same checkpoint under two names
    c = Cluster()
    forger = c.tcs[2]
    exec_digest = hashlib.sha256(b"forged-state").digest()
    sdig = c.replicas[1]._state_digest_from(exec_digest, ())
    cert = tuple(m.Checkpoint(1, sdig, name, forger.create_ui(
        m.checkpoint_digest(1, sdig))) for name in (0, 2))
    c.inject(1, m.StateResponse(1, exec_digest, (), cert, 2))
    assert c.replicas[1].exec_cursor == 0
    assert c.replicas[1].stable_seq == 0


def _forged_prepare_in_a_vote():
    # replica 2 votes for view 1 carrying a "view-0 prepare" it minted itself,
    # behind its own commit of it
    c = Cluster()
    voter = c.replicas[2]
    req = authed(9)
    cert = c.tcs[2].create_ui(m.prepare_digest(0, 1, m.batch_digest((req,))),
                              counter=proposal_counter(0))
    voter._cert("commit", 0, 1, m.Prepare(0, 1, (req,), cert))
    c._absorb(2, voter._start_view_change(1, reason="timeout"))
    c.pump()
    assert 2 not in c.replicas[1].vc_votes.get(1, {})
    assert (1, {"ev": "drop", "why": "viewchange", "seq": 1}) in c.notes


def _forged_new_view_digest():
    # the view-1 leader certifies a digest other than the NewView it sends
    c = Cluster()
    req = authed(1)
    for rid in (1, 2):
        c.request(rid, req)
    c.fire(2, "suspect", 0).pump()
    c.fire(1, "suspect", 0)
    nv = next(msg for dst, msg in c.queue
              if dst == 2 and isinstance(msg, m.NewView))
    c.queue.clear()
    wrong = c.tcs[1].create_ui(hashlib.sha256(b"another view").digest())
    c.inject(2, dataclasses.replace(nv, cert=wrong))
    assert c.replicas[2].view == 0
    assert (2, {"ev": "drop", "why": "newview", "seq": 1}) in c.notes


@pytest.mark.parametrize("forge", [
    _forged_decision_proof, _forged_commits_and_echo,
    _forged_stable_certificate, _forged_prepare_in_a_vote,
    _forged_new_view_digest,
], ids=lambda fn: fn.__name__[len("_forged_"):])
def test_a_certificate_speaks_only_for_its_issuer(forge):
    forge()


# --------------------------------------------------------- vote completeness


def test_a_prepare_certifies_its_requests():
    # faulty leader 0 certifies batch A at seq 1, then shows replica 2 other
    # requests under that one certificate; were the batch digest a field the
    # sender sets, replicas 1 and 2 would both commit and execute different
    # requests at seq 1
    c = Cluster()
    ra, rb = authed(1), authed(2)
    for rid in (1, 2):
        c.request(rid, ra).request(rid, rb)
    c.request(0, ra)
    prep = next(msg for dst, msg in c.queue
                if dst == 1 and isinstance(msg, m.Prepare))
    c.queue.clear()
    c.inject(1, prep).inject(2, dataclasses.replace(prep, requests=(rb,)))
    c.pump()
    assert safety_violations(c.ledger, {0}) == []
    assert (2, {"ev": "drop", "why": "invalid_cert", "seq": 1}) in c.notes


def test_the_walk_takes_a_streams_certificates_in_the_components_order():
    # one counter and one phase of one component: each certificate follows
    # the one before it on its stream, a skip from exactly where the stream
    # stands, and without any one the next is out of step
    tc = TrustedComponent(0, mode=TcMode.HMAC, system_key=SYSKEY)
    d = hashlib.sha256(b"d").digest()
    streams = ([tc.create_ui(d), tc.skip_values("msg", 2), tc.create_ui(d)],
               [tc.certify_context("commit", 0, 1, d),
                tc.skip_contexts("commit", 1, 2),
                tc.certify_context("commit", 1, 3, d)])
    at = {}
    for certs in streams:
        for cert, after in zip(certs, certs[1:] + [None]):
            assert after is None or protocol._step(after, at)[1] is None
            stream, pos = protocol._step(cert, at)
            assert pos is not None
            at[stream] = pos
    att = tc.attest_state(b"nonce")
    assert at == {("counter", "r0:msg"): dict(att.counters)["r0:msg"],
                  ("phase", "commit"): tuple(att.phases[0][1:])}


def _decision_voter(c, seq):
    """Replica 2, cut off from seqs 1..`seq`, commits `seq` through replica
    1's Decision alone; the batch fetches it sends are left in the queue."""
    for s in range(1, seq + 1):
        broadcast_request(c, s)
        c.pump(drop_to={2})
    c.fire(1, "decision", seq)
    dec = next(msg for dst, msg in c.queue
               if dst == 2 and isinstance(msg, m.Decision))
    c.queue.clear()
    c.inject(2, dec)
    assert c.replicas[2].trackers[seq].via == "decision"
    return c.replicas[2]


def _votes_for_view_1(c, voter):
    c._absorb(voter.id, voter._start_view_change(1, reason="timeout"))
    c.pump()
    return c.replicas[1].vc_votes.get(1, {})


def test_a_vote_after_a_decision_commit_past_a_hole_is_counted():
    # ROADMAP item 6 (g): replica 2's prepared_log holds the fetched seq 2
    # and nothing at seq 1. Its vote shows what it certified, which is
    # nothing, so the hole is not a gap in it
    c = Cluster()
    voter = _decision_voter(c, 2)
    c.pump()
    assert sorted(voter.prepared_log) == [2]
    assert voter.id in _votes_for_view_1(c, voter)


def test_a_vote_after_a_forged_fetched_prepare_is_counted():
    # ROADMAP item 6 (c): replica 2 keeps a fetched prepare whose
    # certificate replica 1 minted; the batch is right, so it executes.
    # A prepare it only fetched has no place in its vote
    c = Cluster()
    voter = _decision_voter(c, 1)
    good = c.replicas[1].prepared_log[1]
    forged = dataclasses.replace(good, cert=c.tcs[1].create_ui(good.pdigest()))
    c.queue.clear()
    c.inject(2, m.BatchResponse(forged, 1))
    assert voter.prepared_log[1] is forged and voter.exec_cursor == 1
    assert voter.id in _votes_for_view_1(c, voter)


def _a_vote_carries(mode, view, certify):
    """f=1. Faulty replica 0 certifies batch A at seq 1 of its view-0 stream
    and shows it only to replica 1, which commits A. Its vote for view 1 then
    carries a view-`view` prepare of batch B at seq 1, certified by
    `certify(component, prepare digest)` and entered in its timeline, and
    reaches replica 1, the view-1 leader, before replica 1's own vote (two
    suspicion periods). B's entry carries B's prepare."""
    c = Cluster(mode=mode)
    ra, rb = authed(1), authed(2)
    for rid in (1, 2):
        c.request(rid, ra).request(rid, rb)
    faulty = c.replicas[0]
    c.inject(1, faulty._cert("prepare", 0, 1, (ra,)).prepare)
    assert c.ledger.records[1].committed[1] == m.batch_digest((ra,))
    c.queue.clear()
    bpdig = m.prepare_digest(view, 1, m.batch_digest((rb,)))
    bcert = certify(c.tcs[0], bpdig)
    faulty.timeline.append(m.TimelineEntry(
        "prepare", 1, bpdig, bcert, m.Prepare(view, 1, (rb,), bcert)))
    c._absorb(0, faulty._start_view_change(1, reason="timeout"))
    c.pump(drop_to={0})
    c.fire(1, "suspect", 0).fire(1, "suspect", 0).pump(drop_to={0})
    return c


@pytest.mark.parametrize("mode", ["detection", "prevention"])
def test_a_vote_cannot_carry_a_prepare_off_the_leaders_stream(mode):
    # B is bound to the message counter, or to a commit-phase context; were
    # the vote counted, the union would elect B over the committed A
    def off_stream(tc, pdig):
        if mode == "detection":
            return tc.create_ui(pdig)
        return tc.certify_context("commit", 0, 1, pdig)

    c = _a_vote_carries(mode, 0, off_stream)
    assert safety_violations(c.ledger, {0}) == []
    assert (1, {"ev": "drop", "why": "viewchange", "seq": 1}) in c.notes


@pytest.mark.xfail(strict=True, reason=(
    "a vote may carry a prepare from a view that was never installed: "
    "ROADMAP item 6 (h)"))
@pytest.mark.parametrize("mode", ["detection", "prevention"])
def test_a_vote_cannot_carry_a_prepare_from_an_uninstalled_view(mode):
    # B holds its slot on replica 0's view-3 stream, and the union takes the
    # highest view, so B replaces the committed A
    def view_3_stream(tc, pdig):
        if mode == "detection":
            return tc.create_ui(pdig, counter=proposal_counter(3))
        return tc.certify_context("prepare", 3, 1, pdig)

    c = _a_vote_carries(mode, 3, view_3_stream)
    assert safety_violations(c.ledger, {0}) == []


def test_a_seq_committed_in_two_views_leaves_its_voters_valid():
    c = Cluster()
    broadcast_request(c, 1)
    c.pump()
    # request 2 bypasses the view-0 leader; view 1 re-proposes seq 1, and
    # every replica commits it a second time
    r2 = authed(2)
    c.request(1, r2).request(2, r2)
    c.fire(1, "suspect", 0).fire(2, "suspect", 0).pump()
    c.fire(1, "suspect", 0).fire(2, "suspect", 0).pump()
    assert [r.view for r in c.replicas] == [1, 1, 1]
    # request 3 bypasses the view-1 leader, so replicas 0 and 2 vote for
    # view 2; its leader, replica 2, must count its own vote
    r3 = authed(3)
    c.request(0, r3).request(2, r3)
    for rid in (0, 2):
        c.fire(rid, "suspect", 1).fire(rid, "suspect", 1)
    c.pump()
    assert c.replicas[2].view == 2


def test_a_reproposed_request_that_executed_leaves_pending():
    c = Cluster()
    broadcast_request(c, 1)
    c.pump()
    # request 2 bypasses the view-0 leader, and view 1 re-proposes seq 1
    r2 = authed(2)
    c.request(1, r2).request(2, r2)
    c.fire(1, "suspect", 0).fire(2, "suspect", 0).pump()
    c.fire(1, "suspect", 0).fire(2, "suspect", 0).pump()
    assert [(r.view, r.exec_cursor) for r in c.replicas] == [(1, 2)] * 3
    assert all(r.last_reply[0].client_seq >= 1 for r in c.replicas)
    assert [r.id for r in c.replicas if (0, 1) in r.pending] == []


def test_a_request_covered_by_a_state_transfer_executes_once():
    # replica 2 hears only the checkpoints of seq 2, so it takes seq 2's
    # state, requests (0, 1) and (0, 2) included, by one state transfer, and
    # neither stays pending.
    # Faulty replica 1, view 1's leader, then proposes (0, 1) again at seq
    # 4; replica 0, which executed it itself, skips it there, and so must
    # replica 2
    c = Cluster(checkpoint_interval=1, window=2)
    req1 = authed(1)
    for req in (req1, authed(2)):
        for rid in (0, 1, 2):
            c.request(rid, req)
        while c.queue:
            dst, msg = c.queue.pop(0)
            if dst != 2 or isinstance(msg, m.StateResponse) or (
                    isinstance(msg, m.Checkpoint) and msg.seq == 2):
                c.inject(dst, msg)
    r2 = c.replicas[2]
    assert (r2.exec_cursor, r2.last_reply[0].client_seq) == (2, 2)
    assert r2.prepared_log == {}
    req3 = authed(3)
    c.request(1, req3).request(2, req3)
    c.fire(1, "suspect", 0).fire(2, "suspect", 0).pump()
    c.fire(1, "suspect", 0).fire(2, "suspect", 0).pump()
    assert [(r.view, r.exec_cursor) for r in c.replicas] == [(1, 3)] * 3
    replayed = c.replicas[1]._cert("prepare", 1, 4, (req1,)).prepare
    c.inject(0, replayed).inject(2, replayed).pump(drop_to={1})
    assert c.replicas[0].exec_cursor == r2.exec_cursor == 4
    assert safety_violations(c.ledger, {1}) == []
    assert c.replicas[0].exec_digest == r2.exec_digest
    assert r2.pending == {}


def test_a_transferred_reply_cannot_claim_a_later_request():
    # replica 2 takes seq 2's state by transfer, but faulty replica 1 gets
    # its response in first: the certified state, with the last reply to
    # client 0 claiming client seq 10**6. Replica 2 must drop it, take the
    # correct one and still execute (0, 3)
    c = Cluster(checkpoint_interval=1, window=2)
    for req in (authed(1), authed(2)):
        for rid in (0, 1, 2):
            c.request(rid, req)
        while c.queue:
            dst, msg = c.queue.pop(0)
            if isinstance(msg, m.StateResponse) and dst == 2:
                inflated = tuple(dataclasses.replace(r, client_seq=10 ** 6)
                                 for r in msg.last_replies)
                c.inject(2, dataclasses.replace(msg, last_replies=inflated,
                                                sender=1))
                c.inject(2, msg)
            elif dst != 2 or (isinstance(msg, m.Checkpoint) and msg.seq == 2):
                c.inject(dst, msg)
    r2 = c.replicas[2]
    assert (2, {"ev": "drop", "why": "state_digest", "seq": 2}) in c.notes
    assert (r2.exec_cursor, r2.last_reply[0].client_seq) == (2, 2)
    for rid in (0, 1, 2):
        c.request(rid, authed(3))
    c.pump()
    assert c.replicas[0].exec_cursor == r2.exec_cursor == 3
    assert r2.last_reply[0].client_seq == 3
    assert c.replicas[0].exec_digest == r2.exec_digest
    assert safety_violations(c.ledger, {1}) == []


# ------------------------------------------------------ view-change checks
#
# One valid vote and one valid NewView, each broken in one way; a correct
# replica must drop every broken one, and its validator must name the rule
# the break was written for. At f=1 with a checkpoint at every seq, seq 1 is
# stable everywhere and only replica 2 has committed seq 2, so replica 2's
# vote for view 1 carries a stable certificate and, above it, a commit entry
# that carries the prepare it attests.


def _vote_setup(mode="detection"):
    c = Cluster(checkpoint_interval=1, mode=mode)
    broadcast_request(c, 1)
    c.pump()
    broadcast_request(c, 2)
    c.pump(drop_to={0, 1})
    c.request(2, authed(3))
    # the first period saw progress and renews; the second defects
    c.fire(2, "suspect", 0).fire(2, "suspect", 0)
    vote = next(msg for dst, msg in c.queue
                if dst == 1 and isinstance(msg, m.ViewChange))
    c.queue.clear()
    return c, vote


def _recertify(c, vote, att=None, **fields):
    """`vote` with `fields` replaced, certified again by the voter's own
    component over the voter's whole timeline so far; `att` replaces the
    fresh attestation."""
    tc = c.tcs[vote.sender]
    fields.setdefault("timeline", tuple(c.replicas[vote.sender].timeline))
    v = dataclasses.replace(vote, **fields)
    att = tc.attest_state(v.core_digest()) if att is None else att
    cert = tc.create_ui(m.view_change_digest(v.core_digest(), att))
    return dataclasses.replace(v, attestation=att, cert=cert)


def _mint_prepare(c, view, seq, req):
    """A view-`view` prepare at `seq`, certified by replica 0 (the leader of
    views 0 and 3) at the next value of its proposal counter for `view`."""
    bdig = m.batch_digest((req,))
    cert = c.tcs[0].create_ui(m.prepare_digest(view, seq, bdig),
                              counter=proposal_counter(view))
    return m.Prepare(view, seq, (req,), cert)


def _break_stable_cert(vote, **fields):
    return dataclasses.replace(vote, stable_cert=tuple(
        dataclasses.replace(ck, **fields) for ck in vote.stable_cert))


def _late_vote(c, vote):
    # the voter's component certifies something between the attestation
    # and the vote
    tc = c.tcs[2]
    timeline = tuple(c.replicas[2].timeline)
    att = tc.attest_state(
        dataclasses.replace(vote, timeline=timeline).core_digest())
    tc.create_ui(hashlib.sha256(b"unrecorded").digest())
    return _recertify(c, vote, att=att)


def _vote_off_its_stream(c, vote):
    # the vote's certificate is value 1 of a counter the voter never used,
    # not the next value of its message counter
    v = _recertify(c, vote)
    cert = c.tcs[2].create_ui(v.vdigest(), counter=proposal_counter(5))
    return dataclasses.replace(v, cert=cert)


def _broken_timeline_cert(c, vote):
    tl = list(c.replicas[2].timeline)
    tl[0] = dataclasses.replace(tl[0], digest=hashlib.sha256(b"x").digest())
    return _recertify(c, vote, timeline=tuple(tl))


def _two_state_digests(c, vote):
    first = dataclasses.replace(vote.stable_cert[0],
                                state_digest=hashlib.sha256(b"x").digest())
    return dataclasses.replace(vote, stable_cert=(first, *vote.stable_cert[1:]))


def _foreign_vote_cert(c, vote):
    return dataclasses.replace(vote, cert=c.tcs[0].create_ui(vote.vdigest()))


def _carrying(c, vote, prepare):
    """`vote` recertified, with `prepare` on the voter's commit entry at
    seq 2 in place of the prepare it attests."""
    timeline = tuple(dataclasses.replace(e, prepare=prepare)
                     if (e.kind, e.seq) == ("commit", 2) else e
                     for e in c.replicas[2].timeline)
    return _recertify(c, vote, timeline=timeline)


def _prepare_off_its_slot(c, vote):
    # the leader certifies the carried prepare again, at value 3 for seq 2
    p = c.replicas[2].prepared_log[2]
    cert = c.tcs[0].create_ui(p.pdigest(), counter=proposal_counter(0))
    return _carrying(c, vote, dataclasses.replace(p, cert=cert))


# break -> (the rule _validate_view_change names, the break)
BROKEN_VOTES = {
    "foreign_vote_cert": ("vote_cert", _foreign_vote_cert),
    "attestation_nonce": ("attestation_nonce", lambda c, v: _recertify(
        c, v, att=c.tcs[2].attest_state(hashlib.sha256(b"x").digest()))),
    "stable_cert_one_sender": ("stable_cert_quorum", lambda c, v: (
        dataclasses.replace(v, stable_cert=v.stable_cert[:1]))),
    "stable_cert_two_digests": ("stable_cert_digest", _two_state_digests),
    "stable_cert_other_seq": ("stable_cert_seq", lambda c, v: (
        _break_stable_cert(v, seq=2))),
    "stable_cert_foreign": ("stable_cert_cert", lambda c, v: (
        _break_stable_cert(v, cert=v.stable_cert[0].cert))),
    "prepare_slot": ("prepare_slot", _prepare_off_its_slot),
    "timeline_cert": ("timeline_cert", _broken_timeline_cert),
    "vote_counter": ("vote_counter", _late_vote),
    "vote_off_its_stream": ("vote_counter", _vote_off_its_stream),
    "timeline_gap": ("timeline_gap", lambda c, v: _recertify(
        c, v, timeline=tuple(c.replicas[2].timeline)[1:])),
    # a vote hides the tail of a phase: its last checkpoint context
    "context_omitted": ("timeline_gap", lambda c, v: _recertify(
        c, v, timeline=tuple(c.replicas[2].timeline)[:-1])),
    "entry_without_prepare": ("entry_prepare", lambda c, v: (
        _carrying(c, v, None))),
    "entry_with_another_batch": ("entry_prepare", lambda c, v: _carrying(
        c, v, dataclasses.replace(c.replicas[2].prepared_log[2],
                                  requests=(authed(9),)))),
}
# the breaks made on a vote in prevention mode; the rest are in detection mode
PREVENTION_BREAKS = {"context_omitted"}


@pytest.mark.parametrize("how", [None, *BROKEN_VOTES])
def test_a_broken_vote_is_dropped(how):
    c, vote = _vote_setup(
        "prevention" if how in PREVENTION_BREAKS else "detection")
    reason = None
    if how is not None:
        reason, brk = BROKEN_VOTES[how]
        vote = brk(c, vote)
    assert c.replicas[1].clone()._validate_view_change(vote) == reason
    c.inject(1, vote)
    dropped = (1, {"ev": "drop", "why": "viewchange", "seq": 1}) in c.notes
    assert dropped == (how is not None)
    assert (2 in c.replicas[1].vc_votes.get(1, {})) == (how is None)


def _new_view_setup():
    c, vote = _vote_setup()
    c.inject(1, vote)
    c.fire(1, "suspect", 0).fire(1, "suspect", 0)
    nv = next(msg for dst, msg in c.queue
              if dst == 2 and isinstance(msg, m.NewView))
    c.queue.clear()
    return c, nv


def _renew(c, nv, **fields):
    """`nv` with `fields` replaced, certified again by the new leader."""
    v = dataclasses.replace(nv, **fields)
    return dataclasses.replace(v, cert=c.tcs[1].create_ui(v.ndigest()))


def _reproposal_on_the_message_counter(c, nv):
    p = nv.prepares[0]
    cert = c.tcs[1].create_ui(m.prepare_digest(1, p.seq, p.bdigest()))
    return _renew(c, nv, prepares=(dataclasses.replace(p, cert=cert),))


def _reproposal_over_a_commit(c, nv):
    # the new leader's own vote carries a prepare of another batch at seq 2,
    # behind its commit of it, so the votes elect a batch other than the one
    # replica 2 committed there. A carried prepare must hold its slot, and
    # the view-0 leader already bound seq 2, so only a prepare from a view
    # that was never installed gets this far (ROADMAP item 6 (h)): replica 0
    # binds seq 2 of its view-3 stream, which outranks view 0 in the union.
    c.tcs[0].skip_values(proposal_counter(3), 1)
    other = _mint_prepare(c, 3, 2, authed(9))
    c.replicas[1]._cert("commit", 3, 2, other)
    vote = _recertify(c, nv.viewchanges[0])
    cert = c.tcs[1].create_ui(m.prepare_digest(1, 2, other.bdigest()),
                              counter=proposal_counter(1))
    return _renew(c, nv, viewchanges=(vote, nv.viewchanges[1]),
                  prepares=(dataclasses.replace(other, view=1, cert=cert),))


# break -> (the rule _validate_new_view names, the break)
BROKEN_NEW_VIEWS = {
    "foreign_new_view_cert": ("new_view_cert", lambda c, nv: (
        dataclasses.replace(nv, cert=c.tcs[2].create_ui(nv.ndigest())))),
    "one_vote": ("vote_quorum", lambda c, nv: _renew(
        c, nv, viewchanges=nv.viewchanges[:1])),
    "broken_vote": ("vote", lambda c, nv: _renew(c, nv, viewchanges=(
        nv.viewchanges[0], _foreign_vote_cert(c, nv.viewchanges[1])))),
    "base": ("base", lambda c, nv: _renew(c, nv, base=0)),
    "no_reproposals": ("reproposals", lambda c, nv: _renew(
        c, nv, prepares=())),
    "reproposal_over_a_commit": ("reproposal_over_a_commit",
                                 _reproposal_over_a_commit),
    "old_view_reproposal": ("reproposal_view", lambda c, nv: _renew(
        c, nv, prepares=(c.replicas[2].prepared_log[2],))),
    "reproposal_slot": ("prepare_slot", _reproposal_on_the_message_counter),
    "foreign_skip_cert": ("skip_cert", lambda c, nv: _renew(
        c, nv, skip_cert=c.tcs[2].skip_values(proposal_counter(1), 1))),
    "skip_range": ("skip_range", lambda c, nv: _renew(
        c, nv, skip_cert=c.tcs[1].skip_values(proposal_counter(2), 1))),
}


@pytest.mark.parametrize("how", [None, *BROKEN_NEW_VIEWS])
def test_a_broken_new_view_is_dropped(how):
    c, nv = _new_view_setup()
    reason = None
    if how is not None:
        reason, brk = BROKEN_NEW_VIEWS[how]
        nv = brk(c, nv)
    assert c.replicas[2].clone()._validate_new_view(nv) == reason
    c.inject(2, nv)
    dropped = (2, {"ev": "drop", "why": "newview", "seq": 1}) in c.notes
    assert dropped == (how is not None)
    assert c.replicas[2].view == (0 if how else 1)


def _malformed(vote, **fields):
    """`vote` with `fields` replaced in its first entry, which then has no
    canonical encoding."""
    first = dataclasses.replace(vote.timeline[0], **fields)
    return dataclasses.replace(vote, timeline=(first, *vote.timeline[1:]))


@pytest.mark.parametrize("fields", [{"digest": None}, {"seq": -1}],
                         ids=["none_digest", "negative_seq"])
def test_a_malformed_vote_or_new_view_is_dropped(fields):
    # encoding the entry raises TypeError or OverflowError inside validation;
    # the replica drops the message and keeps running
    c, vote = _vote_setup()
    c.inject(1, _malformed(vote, **fields))
    assert (1, {"ev": "drop", "why": "malformed", "seq": 1}) in c.notes
    assert 2 not in c.replicas[1].vc_votes.get(1, {})
    c, nv = _new_view_setup()
    first, second = nv.viewchanges
    c.inject(2, dataclasses.replace(
        nv, viewchanges=(first, _malformed(second, **fields))))
    assert (2, {"ev": "drop", "why": "malformed", "seq": 1}) in c.notes
    assert c.replicas[2].view == 0


def test_every_rule_a_validator_names_is_pinned_by_a_break():
    # each reason literal a validator returns is the asserted reason of some
    # break above, so no branch can go dead unseen after a reordering
    validators = {"_check_prepare", "_check_stable_cert",
                  "_validate_view_change", "_validate_new_view"}
    tree = ast.parse(Path(protocol.__file__).read_text())
    named = {node.value.value
             for fn in ast.walk(tree)
             if isinstance(fn, ast.FunctionDef) and fn.name in validators
             for node in ast.walk(fn)
             if isinstance(node, ast.Return)
             and isinstance(node.value, ast.Constant)
             and isinstance(node.value.value, str)}
    asserted = {reason for table in (BROKEN_VOTES, BROKEN_NEW_VIEWS)
                for reason, _ in table.values()}
    assert named == asserted
