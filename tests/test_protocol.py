"""Replica behavior driven by hand, one message at a time.

A tiny pump routes effects between replicas synchronously; timers are fired
explicitly so each test controls exactly which asynchrony happens. End-to-end
timing behavior lives in test_sim.py.
"""

from __future__ import annotations

import dataclasses
import hashlib
import hmac as hmaclib

import pytest

from hybft import messages as m
from hybft.config import SimConfig
from hybft.protocol import Replica, _Tracker, proposal_counter
from hybft.sim import safety_violations
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

    def inject(self, rid, msg):
        self._absorb(rid, self.replicas[rid].handle(msg, self.now))
        return self

    def request(self, rid, req):
        self._absorb(rid, self.replicas[rid].on_client_request(req, self.now))
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
    c.request(0, m.Request(0, 1, b"op", b"junk"))
    assert c.queue == []
    assert ("bad_auth" in ev for _, ev in c.note_events())
    assert c.replicas[0].pending == {}


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
    assert t.committed == prep.bdigest
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
    px = m.Prepare(0, 1, (req,), b1, u1)
    u2 = tc0.create_ui(m.prepare_digest(0, 2, b1), counter=proposal_counter(0))
    py = m.Prepare(0, 2, (req,), b1, u2)
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
    c.inject(1, m.Prepare(0, 1, (req,), b1, u1))
    c.inject(1, m.Prepare(0, 2, (req,), b1, u2))
    c.queue.clear()
    other = authed(9)
    b3 = m.batch_digest((other,))
    u3 = tc0.create_ui(m.prepare_digest(0, 3, b3), counter=proposal_counter(0))
    c.inject(1, m.Prepare(0, 3, (other,), b3, u3))
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
    c.inject(1, m.Prepare(0, 1, (req,), b1, ui))
    assert c.replicas[1].prepared_log == {}
    assert c.replicas[1].stats["invalid_drops"] == 1


def test_announced_policy_admits_minted_counter():
    c = Cluster(strict=False, counter_policy="announced")
    req = authed(1)
    q = c.tcs[0].flexi_create_counter()
    b1 = m.batch_digest((req,))
    ui = c.tcs[0].create_ui(m.prepare_digest(0, 1, b1), counter=q)
    c.inject(1, m.Prepare(0, 1, (req,), b1, ui))
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
    c.inject(1, m.Prepare(0, 1, (req,), b1, ui))
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

    shared = {"cfg", "directory", "client_keys", "tc"}
    for name, value in vars(rep).items():
        if name not in shared:
            walk(value)
    for value in vars(rep.tc).values():
        walk(value)
    return found


def test_clone_shares_no_mutable_state_with_its_parent():
    c = Cluster(checkpoint_interval=1)
    broadcast_request(c, 1)
    c.pump()
    for rep in c.replicas:
        assert rep.trackers and rep.checkpoint_claims
        child = rep.clone()
        assert child.state_key() == rep.state_key()
        assert not _owned_containers(child) & _owned_containers(rep)


def test_clone_keeps_the_subclass_and_its_attributes():
    class Tagged(Replica):
        pass

    c = Cluster()
    rep = Tagged(1, c.cfg, c.tcs[1], c.directory, {0: CLIENT_KEY})
    rep.tag = "faulty"
    child = rep.clone()
    assert type(child) is Tagged and child.tag == "faulty"


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
    assert safety_violations(c.replicas, {2}) == []
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
    # replica 2 votes for view 1 carrying a "view-0 prepare" it minted itself
    c = Cluster()
    voter = c.replicas[2]
    req = authed(9)
    bdig = m.batch_digest((req,))
    cert = c.tcs[2].create_ui(m.prepare_digest(0, 1, bdig),
                              counter=proposal_counter(0))
    voter.prepared_log[1] = m.Prepare(0, 1, (req,), bdig, cert)
    c._absorb(2, voter._start_view_change(1, c.now, reason="timeout"))
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


@pytest.mark.xfail(strict=True, reason=(
    "a view-change vote may omit a prepare that its own timeline certifies: "
    "ROADMAP item 6 (a), (b)"))
@pytest.mark.parametrize("mode", ["detection", "prevention"])
def test_a_vote_cannot_hide_a_prepare_its_timeline_certifies(mode):
    c = Cluster(mode=mode)
    r1, r2 = authed(1), authed(2)
    for rid in (1, 2):
        c.request(rid, r1).request(rid, r2)
    # faulty replica 0 binds request 2 at seq 1 and shows only replica 1,
    # which commits it
    bdig = m.batch_digest((r2,))
    pdig = m.prepare_digest(0, 1, bdig)
    cert = (c.tcs[0].create_ui(pdig, counter=proposal_counter(0))
            if mode == "detection"
            else c.tcs[0].certify_context("prepare", 0, 1, pdig))
    c.inject(1, m.Prepare(0, 1, (r2,), bdig, cert))
    assert c.replicas[1].committed_history[1] == bdig
    c.queue.clear()
    # replica 2's view-1 vote is lost, so it escalates and leads view 2
    c.fire(2, "suspect", 0)
    c.queue.clear()
    c.fire(2, "vcretry", 1)
    # replica 0's view-2 vote: its timeline certifies the prepare, but the
    # vote carries no prepares
    faulty = c.replicas[0]
    faulty._record("prepare", 1, pdig, cert)
    c._absorb(0, faulty._start_view_change(2, c.now, reason="timeout"))
    c.pump(drop_to={0})
    assert c.replicas[2].view == 2
    assert safety_violations(c.replicas, {0}) == []
