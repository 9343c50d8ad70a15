"""Replica state machine for counter-certified state machine replication.

A group of n = 2f+1 replicas orders client requests. The leader of a view
binds each batch to the next value of a per-view proposal counter inside its
trusted component, so sequence number and counter value advance in lockstep
and a follower can admit proposals in counter order with no gaps. A proposal
plus f further attestations (the sender's own included) commits a batch.

Two certification modes are supported. In detection mode the trusted
component only guarantees unique, monotonic counter values and followers
refuse gapped or conflicting timelines after the fact. In prevention mode
every prepare/commit/checkpoint statement carries a context certificate and
the trusted component itself refuses a second binding for the same context.

Replicas answer handler calls with effect tuples; the hosting event loop does
all actual sending and timer scheduling:

    ("send", ("replica", i) | ("client", c), msg)
    ("timer", kind, key, delay_ns)
    ("note", {...})   # trace annotation
"""

from __future__ import annotations

import hashlib
import hmac as hmaclib
from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Optional, Tuple

from . import messages as m
from .config import SimConfig
from .tc import (
    ContextCertificate,
    PhaseSkipCertificate,
    SequenceRefused,
    SkipCertificate,
    TcUnavailable,
    TrustedComponent,
    UniqueIdentifier,
    VerifyStatus,
    derive_counter_id,
    verify_certificate,
    _enc,
)

MSG_COUNTER = "msg"


def proposal_counter(view: int) -> str:
    return f"proposal:{view}"


def leader_of(view: int, n: int) -> int:
    return view % n


@dataclass
class _Tracker:
    """Attestations collected for one sequence number."""

    claims: Dict[bytes, Dict[int, Tuple[str, object]]] = field(default_factory=dict)
    committed: Optional[bytes] = None
    view: int = 0
    via: str = ""

    def clone(self) -> "_Tracker":
        return _Tracker({d: dict(h) for d, h in self.claims.items()},
                        self.committed, self.view, self.via)


# Replica attributes that Replica.clone copies. Their elements are immutable
# (ints, bytes, tuples, frozen messages), or, in the nested ones, containers
# of immutable elements. Everything else is a scalar or never mutated
# (cfg, directory, client_keys) and is shared between forks.
_FLAT_STATE = (
    "flagged_views", "cursors", "bound", "prepared_log", "committed_history",
    "prepared_history", "exec_history", "executed", "last_reply", "pending",
    "batchq", "inflight", "queued_batches", "timeline", "deferred_commits",
    "decision_armed", "peer_max_commit", "peer_committed_floor", "vc_sent",
    "suspect_armed", "stats",
)
_NESTED_STATE = ("buffered", "checkpoint_claims", "future_commits",
                 "future_prepares", "decision_seen", "vc_votes")


# Handler for each message type and timer kind, looked up by name so that a
# subclass's override of a handler is the one that runs.
_HANDLERS = {
    m.Request: "on_client_request", m.Prepare: "on_prepare",
    m.Commit: "on_commit", m.Decision: "on_decision",
    m.Checkpoint: "on_checkpoint", m.ViewChange: "on_view_change",
    m.NewView: "on_new_view", m.FetchBatch: "on_fetch_batch",
    m.BatchResponse: "on_batch_response", m.FetchState: "on_fetch_state",
    m.StateResponse: "on_state_response",
}
_TIMERS = {"batch": "on_timer_batch", "decision": "on_timer_decision",
           "suspect": "on_timer_suspect", "vcretry": "on_timer_vcretry"}


class Replica:
    def __init__(self, replica_id: int, cfg: SimConfig,
                 tc: TrustedComponent, directory, client_keys: Dict[int, bytes],
                 max_view: Optional[int] = None):
        self.id = replica_id
        self.cfg = cfg
        self.window = cfg.effective_window()
        self.checkpoint_interval = cfg.effective_checkpoint_interval()
        self.max_view = max_view       # caps view-change escalation (model checks)
        self.tc = tc
        self.directory = directory
        self.client_keys = client_keys

        self.view = 0
        self.voted_view = 0            # highest view this replica has defected to
        self.flagged_views: set = set()

        # admission state: cursor per (leader, counter-id) so the announced
        # policy can track several counters while pinned mode uses exactly one
        self.cursors: Dict[Tuple[int, str], int] = {}
        self.buffered: Dict[Tuple[int, str], Dict[int, m.Prepare]] = {}
        self.bound: Dict[Tuple[int, int], int] = {}   # request key -> seq, per view
        self.admission_base = 0

        self.prepared_log: Dict[int, m.Prepare] = {}
        self.trackers: Dict[int, _Tracker] = {}
        self.committed_history: Dict[int, bytes] = {}
        self.prepared_history: List[Tuple[int, int, bytes]] = []

        self.exec_cursor = 0
        self.exec_digest = hashlib.sha256(b"genesis").digest()
        self.exec_history: Dict[int, bytes] = {}
        self.executed: Dict[Tuple[int, int], m.Reply] = {}
        self.last_reply: Dict[int, m.Reply] = {}
        self.pending: Dict[Tuple[int, int], m.Request] = {}

        self.batchq: List[m.Request] = []
        self.batch_timer_armed = False
        self.next_seq = 1
        self.inflight: set = set()
        self.queued_batches: List[Tuple[m.Request, ...]] = []

        self.stable_seq = 0
        self.stable_cert: Tuple[m.Checkpoint, ...] = ()
        self.checkpoint_claims: Dict[Tuple[int, bytes], Dict[int, m.Checkpoint]] = {}
        self.checkpoint_count = 0

        self.timeline: List[m.TimelineEntry] = []
        self.deferred_commits: Dict[int, m.Commit] = {}
        self.future_commits: Dict[int, List[m.Commit]] = {}
        self.future_prepares: Dict[int, List[m.Prepare]] = {}

        self.decision_armed: set = set()
        self.decision_seen: Dict[int, set] = {}
        self.peer_max_commit: Dict[int, int] = {}
        self.peer_committed_floor: Dict[int, int] = {}
        self.decisions_sent = 0
        self.decisions_suppressed = 0

        self.vc_votes: Dict[int, Dict[int, m.ViewChange]] = {}
        self.vc_sent: Dict[int, m.ViewChange] = {}
        self.suspect_armed: Dict[int, tuple] = {}

        self.stats: Dict[str, int] = {
            "verifies": 0, "stale_epoch_drops": 0, "invalid_drops": 0,
        }

    # ------------------------------------------------------------------ util

    def is_leader(self, view: Optional[int] = None) -> bool:
        v = self.view if view is None else view
        return leader_of(v, self.cfg.n) == self.id

    def peers(self):
        return [i for i in range(self.cfg.n) if i != self.id]

    def _passive(self) -> bool:
        return self.tc.is_crashed()

    def _check_cert(self, cert, issuer: int,
                    digest: Optional[bytes]) -> VerifyStatus:
        """The one acceptance test for a received certificate.

        The certificate must come from `issuer`'s component, verify, and
        cover `digest` (None for skip certificates and attestations, which
        cover no message). Binding the issuer is what keeps one faulty
        replica from speaking in another replica's name.
        """
        if getattr(cert, "replica_id", None) != issuer:
            return VerifyStatus.INVALID
        self.stats["verifies"] += 1
        status = verify_certificate(cert, directory=self.directory, via_tc=self.tc)
        if (status is VerifyStatus.OK and digest is not None
                and getattr(cert, "msg_hash", None) != digest):
            return VerifyStatus.INVALID
        return status

    def _record(self, kind: str, seq: int, digest: bytes, cert) -> None:
        self.timeline.append(m.TimelineEntry(kind, seq, digest, cert))

    def _committed_up_to(self, seq: int) -> bool:
        if seq <= self.admission_base or seq <= self.stable_seq:
            return True
        t = self.trackers.get(seq)
        return t is not None and t.committed is not None

    # --------------------------------------------------------- certification

    def _cert(self, phase: str, view: int, seq: int, digest: bytes):
        """Certify one statement other than a detection-mode proposal.

        Detection mode binds it to the next value of the message counter.
        Prevention mode certifies the context (phase, view, seq); if the
        component's position for the phase is behind, the ids in between are
        voided with a recorded skip first.
        """
        if self.cfg.mode != "prevention":
            return self.tc.create_ui(digest, counter=MSG_COUNTER)
        try:
            return self.tc.certify_context(phase, view, seq, digest)
        except SequenceRefused:
            skip = self.tc.skip_contexts(phase, view, seq - 1)
            self._record("skip", seq - 1, b"", skip)
            return self.tc.certify_context(phase, view, seq, digest)

    def _cert_prepare(self, view: int, seq: int, digest: bytes):
        if self.cfg.mode == "prevention":
            return self._cert("prepare", view, seq, digest)
        ui = self.tc.create_ui(digest, counter=proposal_counter(view))
        if ui.value != seq:
            raise RuntimeError("proposal counter out of step with sequence")
        return ui

    def _slot(self, cert) -> Tuple[Optional[str], int]:
        """The (stream, position) a proposal certificate binds: counter and
        value of a unique identifier, or the view's context stream and seq of
        a prepare-phase context certificate (any other phase binds no stream).
        """
        if isinstance(cert, UniqueIdentifier):
            return cert.counter, cert.value
        return (f"ctx:{cert.view}" if cert.phase == "prepare" else None), cert.seq

    def _proposal_stream(self, view: int) -> str:
        """The one stream the leader of `view` may bind its proposals to."""
        if self.cfg.mode == "prevention":
            return f"ctx:{view}"
        return derive_counter_id(leader_of(view, self.cfg.n), proposal_counter(view))

    # ------------------------------------------------------------- requests

    def on_client_request(self, req: m.Request, now: int) -> List[tuple]:
        key = req.key()
        if not self._auth_ok(req):
            return [("note", {"ev": "bad_auth", "client": req.client_id})]
        cached = self.executed.get(key)
        if cached is not None:
            return [("send", ("client", req.client_id), cached)]
        out: List[tuple] = []
        if key not in self.pending:
            self.pending[key] = req
            if self.is_leader() and self.voted_view <= self.view:
                self.batchq.append(req)
                out += self._seal_batches(now)
                if self.batchq and not self.batch_timer_armed:
                    self.batch_timer_armed = True
                    out.append(("timer", "batch", self.view, self.cfg.batch_timeout_ns))
            else:
                out += self._arm_suspicion()
        return out

    def _auth_ok(self, req: m.Request) -> bool:
        keyb = self.client_keys.get(req.client_id)
        if keyb is None:
            return False
        want = hmaclib.new(keyb, req.digest(), "sha256").digest()
        return hmaclib.compare_digest(want, req.auth)

    def _progress_mark(self) -> tuple:
        return (self.exec_cursor, len(self.executed))

    def _arm_suspicion(self) -> List[tuple]:
        if self.view in self.suspect_armed or self.is_leader():
            return []
        self.suspect_armed[self.view] = self._progress_mark()
        return [("timer", "suspect", self.view, self.cfg.suspicion_timeout_ns)]

    # --------------------------------------------------------------- leader

    def _seal_batches(self, now: int) -> List[tuple]:
        out: List[tuple] = []
        while len(self.batchq) >= self.cfg.batch_size:
            chunk = tuple(self.batchq[: self.cfg.batch_size])
            del self.batchq[: self.cfg.batch_size]
            self.queued_batches.append(chunk)
        out += self._drain_proposals(now)
        return out

    def _drain_proposals(self, now: int) -> List[tuple]:
        out: List[tuple] = []
        limit = self.cfg.pipeline_depth if self.cfg.pipelining else 1
        while (self.queued_batches and len(self.inflight) < limit
               and self.next_seq <= self.stable_seq + self.window):
            chunk = self.queued_batches.pop(0)
            out += self._propose(chunk, now)
        return out

    def _propose(self, chunk: Tuple[m.Request, ...], now: int) -> List[tuple]:
        seq = self.next_seq
        bdig = m.batch_digest(chunk)
        pdig = m.prepare_digest(self.view, seq, bdig)
        try:
            cert = self._cert_prepare(self.view, seq, pdig)
        except TcUnavailable:
            return [("note", {"ev": "tc_down", "replica": self.id})]
        prep = m.Prepare(self.view, seq, chunk, bdig, cert)
        self.next_seq = seq + 1
        self.inflight.add(seq)
        self._record("prepare", seq, pdig, cert)
        self.prepared_log[seq] = prep
        self.prepared_history.append((self.view, seq, bdig))
        for r in chunk:
            self.bound[r.key()] = seq
        out: List[tuple] = [("send", ("replica", p), prep) for p in self.peers()]
        # leader's echo re-presents the prepare certificate as its attestation
        echo = m.Commit(self.view, seq, self.id, bdig, cert, echo=True)
        out += [("send", ("replica", p), echo) for p in self.peers()]
        out += self._credit(seq, self.view, bdig, self.id, "prepare", cert)
        out.append(("note", {"ev": "propose", "seq": seq, "view": self.view}))
        return out

    # ------------------------------------------------------------ admission

    def on_prepare(self, prep: m.Prepare, now: int) -> List[tuple]:
        if prep.view > self.view:
            # proposal may outrun the view installation on the same channel
            self.future_prepares.setdefault(prep.view, []).append(prep)
            return [("note", {"ev": "buffer_view", "view": prep.view,
                              "seq": prep.seq})]
        if prep.view != self.view or self.voted_view > self.view:
            return [("note", {"ev": "drop_prepare", "view": prep.view, "seq": prep.seq})]
        if self.view in self.flagged_views:
            return []
        leader = leader_of(prep.view, self.cfg.n)
        status = self._check_cert(prep.cert, leader, prep.pdigest())
        if status is not VerifyStatus.OK:
            return self._drop_status(status, prep.seq)
        # both modes admit exactly the next position of one certified stream;
        # the announced counter policy lets the leader pick any stream
        stream, pos = self._slot(prep.cert)
        pinned = self.cfg.counter_policy == "pinned"
        if pos != prep.seq or (pinned and stream != self._proposal_stream(prep.view)):
            return self._drop("prepare_slot", prep.seq)
        key = (leader, stream)
        cursor = self.cursors.get(key, self.admission_base if pinned else 0)
        if prep.seq <= cursor:
            return []
        if prep.seq > cursor + 1:
            self.buffered.setdefault(key, {})[prep.seq] = prep
            return self._arm_suspicion() + [
                ("note", {"ev": "buffer", "seq": prep.seq, "cursor": cursor})]
        return self._admit_and_drain(prep, key, cursor, now)

    def _admit_and_drain(self, prep: m.Prepare, key: Tuple[int, str],
                         cursor: int, now: int) -> List[tuple]:
        out = self._admit(prep, key, now)
        buf = self.buffered.get(key, {})
        # a flagging admit freezes the view without moving the cursor
        while (prep.view not in self.flagged_views
               and self.cursors.get(key, cursor) + 1 in buf):
            out += self._admit(buf.pop(self.cursors.get(key, cursor) + 1),
                               key, now)
        return out

    def _admit(self, prep: m.Prepare, key: Tuple[int, str], now: int) -> List[tuple]:
        conflict = self._conflicts(prep)
        if conflict is not None:
            self.flagged_views.add(prep.view)
            return ([("note", {"ev": "flag_leader", "view": prep.view,
                               "seq": prep.seq, "request": list(conflict)})]
                    + self._start_view_change(prep.view + 1, now, reason="flagged"))
        self.cursors[key] = prep.seq
        self.prepared_log[prep.seq] = prep
        self.prepared_history.append((prep.view, prep.seq, prep.bdigest))
        for r in prep.requests:
            self.bound[r.key()] = prep.seq
            self.pending.setdefault(r.key(), r)
        out: List[tuple] = [("note", {"ev": "admit", "seq": prep.seq, "view": prep.view})]
        out += self._credit(prep.seq, prep.view, prep.bdigest,
                            leader_of(prep.view, self.cfg.n), "prepare", prep.cert)
        out += self._send_commit(prep, now)
        return out

    def _conflicts(self, prep: m.Prepare) -> Optional[Tuple[int, int]]:
        for r in prep.requests:
            bound = self.bound.get(r.key())
            if bound is not None and bound != prep.seq:
                return r.key()
        return None

    def _send_commit(self, prep: m.Prepare, now: int) -> List[tuple]:
        if not self.cfg.pipelining and not self._committed_up_to(prep.seq - 1):
            # withholding this attestation until the predecessor commits makes
            # a later commit from us proof that we saw everything before it
            self.deferred_commits[prep.seq] = None
            return []
        return self._emit_commit(prep.view, prep.seq, prep.bdigest, now)

    def _emit_commit(self, view: int, seq: int, bdigest: bytes, now: int) -> List[tuple]:
        cdig = m.commit_digest(view, seq, self.id, bdigest)
        try:
            cert = self._cert("commit", view, seq, cdig)
        except TcUnavailable:
            return [("note", {"ev": "tc_down", "replica": self.id})]
        self._record("commit", seq, cdig, cert)
        com = m.Commit(view, seq, self.id, bdigest, cert)
        out: List[tuple] = [("send", ("replica", p), com) for p in self.peers()]
        out += self._credit(seq, view, bdigest, self.id, "commit", cert)
        return out

    def _flush_deferred(self, now: int) -> List[tuple]:
        out: List[tuple] = []
        for seq in sorted(list(self.deferred_commits)):
            if self._committed_up_to(seq - 1):
                self.deferred_commits.pop(seq)
                prep = self.prepared_log.get(seq)
                if prep is not None:
                    out += self._emit_commit(prep.view, seq, prep.bdigest, now)
        return out

    # -------------------------------------------------------------- commits

    def on_commit(self, com: m.Commit, now: int) -> List[tuple]:
        if com.view > self.view:
            self.future_commits.setdefault(com.view, []).append(com)
            return []
        if com.view != self.view:
            return []
        if com.echo:
            # an echo re-presents the leader's prepare certificate, so it is
            # credited to the leader whoever relays it
            issuer, kind = leader_of(com.view, self.cfg.n), "prepare"
            want = m.prepare_digest(com.view, com.seq, com.bdigest)
        else:
            issuer, kind, want = com.sender, "commit", com.cdigest()
        status = self._check_cert(com.cert, issuer, want)
        if status is not VerifyStatus.OK:
            return self._drop_status(status, com.seq)
        if not com.echo:
            prev = self.peer_max_commit.get(issuer, 0)
            self.peer_max_commit[issuer] = max(prev, com.seq)
        return self._credit(com.seq, com.view, com.bdigest, issuer, kind, com.cert)

    def _credit(self, seq: int, view: int, bdigest: bytes, sender: int,
                kind: str, cert) -> List[tuple]:
        t = self.trackers.setdefault(seq, _Tracker())
        t.view = max(t.view, view)
        holders = t.claims.setdefault(bdigest, {})
        if sender in holders:
            return []
        holders[sender] = (kind, cert)
        if t.committed is not None:
            return []
        if len(holders) >= self.cfg.f + 1:
            return self._mark_committed(seq, view, bdigest, "quorum", 0)
        return []

    def _mark_committed(self, seq: int, view: int, bdigest: bytes,
                        via: str, now: int) -> List[tuple]:
        t = self.trackers.setdefault(seq, _Tracker())
        t.committed = bdigest
        t.view = max(t.view, view)
        t.via = via
        self.committed_history[seq] = bdigest
        out: List[tuple] = [("note", {"ev": "commit", "seq": seq, "via": via})]
        if seq in self.inflight:
            self.inflight.discard(seq)
        if self.cfg.decisions and via == "quorum":
            if not self.is_leader(view) and seq not in self.decision_armed:
                self.decision_armed.add(seq)
                out.append(("timer", "decision", seq, self.cfg.delta_ns))
        if self.prepared_log.get(seq) is None:
            out += self._fetch_batch(seq)
        out += self._execute(now)
        out += self._flush_deferred(now)
        if self.is_leader() and self.voted_view <= self.view:
            out += self._drain_proposals(now)
        return out

    def _fetch_batch(self, seq: int) -> List[tuple]:
        t = self.trackers.get(seq)
        target = None
        if t and t.committed is not None:
            holders = sorted(t.claims.get(t.committed, {}))
            holders = [h for h in holders if h != self.id]
            if holders:
                target = holders[0]
        if target is None:
            target = next(p for p in self.peers())
        return [("send", ("replica", target), m.FetchBatch(seq, self.id)),
                ("note", {"ev": "fetch_batch", "seq": seq, "from": target})]

    # ------------------------------------------------------------ decisions

    def on_timer_decision(self, seq: int, now: int) -> List[tuple]:
        if not self.cfg.decisions:
            return []
        t = self.trackers.get(seq)
        if t is None or t.committed is None or t.via != "quorum":
            return []
        lead = leader_of(t.view, self.cfg.n)
        lagging = [p for p in self.peers()
                   if p != lead and not self._peer_known_committed(p, seq)]
        if not lagging:
            self.decisions_suppressed += 1
            return [("note", {"ev": "decision_suppressed", "seq": seq})]
        proof = self._commit_proof(seq)
        if proof is None:
            return []
        dec = m.Decision(t.view, seq, self.id, t.committed, proof,
                         threshold=self.cfg.threshold_proofs)
        self.decisions_sent += 1
        out: List[tuple] = [("send", ("replica", p), dec) for p in lagging]
        out.append(("note", {"ev": "decision_sent", "seq": seq, "to": lagging}))
        return out

    def _peer_known_committed(self, peer: int, seq: int) -> bool:
        if peer in self.decision_seen.get(seq, set()):
            return True
        if self.peer_committed_floor.get(peer, 0) >= seq:
            return True
        if not self.cfg.pipelining and self.peer_max_commit.get(peer, 0) > seq:
            return True
        return False

    def _commit_proof(self, seq: int):
        t = self.trackers.get(seq)
        if t is None or t.committed is None:
            return None
        holders = t.claims.get(t.committed, {})
        items = []
        for sender in sorted(holders):
            kind, cert = holders[sender]
            items.append((sender, kind, cert))
            if len(items) == self.cfg.f + 1:
                return tuple(items)
        return None

    def on_decision(self, dec: m.Decision, now: int) -> List[tuple]:
        self.decision_seen.setdefault(dec.seq, set()).add(dec.sender)
        t = self.trackers.get(dec.seq)
        if t is not None and t.committed is not None:
            return []
        if len({s for s, _, _ in dec.proof}) < self.cfg.f + 1:
            return self._drop("decision_quorum", dec.seq)
        lead = leader_of(dec.view, self.cfg.n)
        for sender, kind, cert in dec.proof:
            if kind == "prepare":
                if sender != lead:
                    return self._drop("decision_proof", dec.seq)
                want = m.prepare_digest(dec.view, dec.seq, dec.bdigest)
            else:
                want = m.commit_digest(dec.view, dec.seq, sender, dec.bdigest)
            if self._check_cert(cert, sender, want) is not VerifyStatus.OK:
                return self._drop("decision_proof", dec.seq)
        out = [("note", {"ev": "decision_accepted", "seq": dec.seq,
                         "from": dec.sender})]
        out += self._mark_committed(dec.seq, dec.view, dec.bdigest, "decision", now)
        if self.prepared_log.get(dec.seq) is None:
            out.append(("send", ("replica", dec.sender),
                        m.FetchBatch(dec.seq, self.id)))
        return out

    # ------------------------------------------------------ batch and state

    def on_fetch_batch(self, fb: m.FetchBatch, now: int) -> List[tuple]:
        prep = self.prepared_log.get(fb.seq)
        if prep is None:
            return []
        return [("send", ("replica", fb.sender), m.BatchResponse(prep, self.id))]

    def on_batch_response(self, br: m.BatchResponse, now: int) -> List[tuple]:
        prep = br.prepare
        t = self.trackers.get(prep.seq)
        if t is None or t.committed is None:
            return []
        if m.batch_digest(prep.requests) != t.committed:
            return self._drop("batch_response", prep.seq)
        if prep.seq not in self.prepared_log:
            self.prepared_log[prep.seq] = prep
        return self._execute(now)

    def on_fetch_state(self, fs: m.FetchState, now: int) -> List[tuple]:
        # a checkpoint adopted from peers' certificates but not yet executed
        # here has no local state to serve
        if (self.stable_seq < fs.seq or not self.stable_cert
                or self.stable_seq not in self.exec_history):
            return []
        replies = tuple(self.last_reply[c] for c in sorted(self.last_reply))
        resp = m.StateResponse(self.stable_seq, self.exec_history[self.stable_seq],
                               replies, self.stable_cert, self.id)
        return [("send", ("replica", fs.sender), resp)]

    def on_state_response(self, sr: m.StateResponse, now: int) -> List[tuple]:
        if sr.seq <= self.exec_cursor:
            return []
        if not self._check_stable_cert(sr.stable_cert, sr.seq):
            return self._drop("state_cert", sr.seq)
        state = self._state_digest_from(sr.exec_digest, sr.last_replies)
        want = sr.stable_cert[0].state_digest
        if state != want:
            return self._drop("state_digest", sr.seq)
        self.exec_cursor = sr.seq
        self.exec_digest = sr.exec_digest
        self.exec_history[sr.seq] = sr.exec_digest
        for rep in sr.last_replies:
            self.last_reply[rep.client_id] = rep
            self.executed[(rep.client_id, rep.client_seq)] = rep
            self.pending.pop((rep.client_id, rep.client_seq), None)
        self._adopt_stable(sr.seq, sr.stable_cert)
        return ([("note", {"ev": "state_adopted", "seq": sr.seq})]
                + self._execute(now))

    # ------------------------------------------------------------ execution

    def _execute(self, now: int) -> List[tuple]:
        out: List[tuple] = []
        while True:
            nxt = self.exec_cursor + 1
            t = self.trackers.get(nxt)
            if t is None or t.committed is None:
                break
            prep = self.prepared_log.get(nxt)
            if prep is None:
                break
            self.exec_cursor = nxt
            for r in prep.requests:
                key = r.key()
                if key in self.executed:
                    continue
                self.exec_digest = hashlib.sha256(
                    _enc("apply", self.exec_digest, nxt, r.digest())).digest()
                result = hashlib.sha256(
                    _enc("result", self.exec_digest, r.digest())).digest()
                rep = m.Reply(r.client_id, r.client_seq, nxt, self.id, result)
                self.executed[key] = rep
                self.last_reply[r.client_id] = rep
                self.pending.pop(key, None)
                out.append(("send", ("client", r.client_id), rep))
            self.exec_history[nxt] = self.exec_digest
            out.append(("note", {"ev": "execute", "seq": nxt}))
            if nxt % self.checkpoint_interval == 0:
                out += self._emit_checkpoint(nxt, now)
        return out

    def _state_digest(self) -> bytes:
        return self._state_digest_from(self.exec_digest, self.last_reply.values())

    def _state_digest_from(self, exec_digest: bytes,
                           replies: Iterable[m.Reply]) -> bytes:
        ordered = sorted(replies, key=lambda r: r.client_id)
        return hashlib.sha256(
            _enc("state", exec_digest, *[r.result for r in ordered])).digest()

    # ----------------------------------------------------------- checkpoints

    def _emit_checkpoint(self, seq: int, now: int) -> List[tuple]:
        sdig = self._state_digest()
        cdig = m.checkpoint_digest(seq, sdig)
        self.checkpoint_count += 1
        try:
            cert = self._cert("checkpoint", self.checkpoint_count, 1, cdig)
        except TcUnavailable:
            return [("note", {"ev": "tc_down", "replica": self.id})]
        self._record("checkpoint", seq, cdig, cert)
        ck = m.Checkpoint(seq, sdig, self.id, cert)
        out: List[tuple] = [("send", ("replica", p), ck) for p in self.peers()]
        out += self._credit_checkpoint(ck)
        return out

    def on_checkpoint(self, ck: m.Checkpoint, now: int) -> List[tuple]:
        status = self._check_cert(ck.cert, ck.sender,
                                  m.checkpoint_digest(ck.seq, ck.state_digest))
        if status is not VerifyStatus.OK:
            return self._drop_status(status, ck.seq)
        # a checkpoint at seq proves the sender executed, hence committed, seq
        prev = self.peer_committed_floor.get(ck.sender, 0)
        self.peer_committed_floor[ck.sender] = max(prev, ck.seq)
        out = self._credit_checkpoint(ck)
        if (ck.seq > self.exec_cursor and self.stable_seq >= ck.seq
                and self.exec_cursor < self.stable_seq):
            out += self._maybe_fetch_state()
        return out

    def _credit_checkpoint(self, ck: m.Checkpoint) -> List[tuple]:
        key = (ck.seq, ck.state_digest)
        holders = self.checkpoint_claims.setdefault(key, {})
        if ck.sender in holders:
            return []
        holders[ck.sender] = ck
        out: List[tuple] = []
        if len(holders) >= self.cfg.f + 1 and ck.seq > self.stable_seq:
            cert = tuple(holders[s] for s in sorted(holders))[: self.cfg.f + 1]
            self._adopt_stable(ck.seq, cert)
            out.append(("note", {"ev": "stable", "seq": ck.seq}))
            if self.exec_cursor < self.stable_seq:
                out += self._maybe_fetch_state()
            if self.is_leader() and self.voted_view <= self.view:
                out += self._drain_proposals(0)
        return out

    def _adopt_stable(self, seq: int, cert: Tuple[m.Checkpoint, ...]) -> None:
        if seq <= self.stable_seq:
            return
        self.stable_seq = seq
        self.stable_cert = cert
        for s in [s for s in self.prepared_log if s <= seq]:
            if s < seq - self.window:
                del self.prepared_log[s]
        for s in [s for s in self.trackers if s <= seq - self.window]:
            del self.trackers[s]
        for k in [k for k in self.checkpoint_claims if k[0] < seq]:
            del self.checkpoint_claims[k]

    def _maybe_fetch_state(self) -> List[tuple]:
        holders = self.checkpoint_claims.get(
            (self.stable_seq, self.stable_cert[0].state_digest
             if self.stable_cert else b""), {})
        targets = sorted(h for h in holders if h != self.id)
        if not targets:
            targets = self.peers()[:1]
        return [("send", ("replica", targets[0]),
                 m.FetchState(self.stable_seq, self.id))]

    # ----------------------------------------------------------- view change

    def _start_view_change(self, target: int, now: int, reason: str) -> List[tuple]:
        if self.max_view is not None and target > self.max_view:
            return [("note", {"ev": "vc_capped", "target": target})]
        if target <= self.voted_view:
            return []
        self.voted_view = target
        prepares = tuple(self.prepared_log[s]
                         for s in sorted(self.prepared_log) if s > self.stable_seq)
        timeline = tuple(self.timeline)
        core = m.view_change_core_digest(target, self.id, self.stable_seq,
                                         prepares, timeline)
        try:
            att = self.tc.attest_state(core)
            vdig = m.view_change_digest(core, att)
            cert = self._cert("viewchange", target, 1, vdig)
        except TcUnavailable:
            return [("note", {"ev": "tc_down", "replica": self.id})]
        vc = m.ViewChange(target, self.id, self.stable_seq, self.stable_cert,
                          prepares, timeline, att, cert)
        self._record("viewchange", target, vdig, cert)
        self.vc_sent[target] = vc
        out: List[tuple] = [("note", {"ev": "viewchange", "target": target,
                                      "reason": reason})]
        new_leader = leader_of(target, self.cfg.n)
        if new_leader == self.id:
            out += self.on_view_change(vc, now)
        else:
            out.append(("send", ("replica", new_leader), vc))
        out.append(("timer", "vcretry", target, self.cfg.viewchange_timeout_ns))
        return out

    def on_timer_suspect(self, armed: tuple, now: int) -> List[tuple]:
        """`armed` is (view, progress mark taken when the timer was armed)."""
        view, mark = armed
        if self.view != view or self.voted_view > view:
            return []
        if not self.pending:
            return []
        if mark is not None and self._progress_mark() != mark:
            # the backlog moved during the period; grant another one
            self.suspect_armed[view] = self._progress_mark()
            return [("timer", "suspect", view, self.cfg.suspicion_timeout_ns)]
        return self._start_view_change(view + 1, now, reason="timeout")

    def on_timer_vcretry(self, target: int, now: int) -> List[tuple]:
        if self.view >= target or self.voted_view > target:
            return []
        return self._start_view_change(target + 1, now, reason="escalate")

    def on_view_change(self, vc: m.ViewChange, now: int) -> List[tuple]:
        if leader_of(vc.new_view, self.cfg.n) != self.id or vc.new_view <= self.view:
            return []
        if not self._validate_view_change(vc):
            return self._drop("viewchange", vc.new_view)
        votes = self.vc_votes.setdefault(vc.new_view, {})
        votes[vc.sender] = vc
        out: List[tuple] = []
        if len(votes) >= self.cfg.f + 1 and self.view < vc.new_view:
            if self.id not in votes:
                out += self._start_view_change(vc.new_view, now, reason="join")
                votes = self.vc_votes.get(vc.new_view, {})
                if self.id not in votes:
                    return out
            # joining casts our own vote through this same handler, which can
            # complete the quorum and install the view before we get back here
            if self.view < vc.new_view:
                out += self._emit_new_view(vc.new_view, votes, now)
        return out

    def _validate_view_change(self, vc: m.ViewChange) -> bool:
        ok = VerifyStatus.OK
        core = vc.core_digest()
        att = vc.attestation
        if self._check_cert(vc.cert, vc.sender,
                            m.view_change_digest(core, att)) is not ok:
            return False
        if self._check_cert(att, vc.sender, None) is not ok or att.nonce != core:
            return False
        if vc.stable_seq > 0 and not self._check_stable_cert(vc.stable_cert,
                                                             vc.stable_seq):
            return False
        for p in vc.prepares:
            if self._check_cert(p.cert, leader_of(p.view, self.cfg.n),
                                p.pdigest()) is not ok:
                return False
        seqs = [p.seq for p in vc.prepares]
        if seqs and (min(seqs) > vc.stable_seq + 1
                     or sorted(seqs) != list(range(min(seqs), max(seqs) + 1))):
            return False
        return self._check_timeline(vc)

    def _check_timeline(self, vc: m.ViewChange) -> bool:
        """The sender's certified history must be gapless up to its attested
        counter positions, and every commit in it must expose its prepare."""
        att = vc.attestation
        counters = dict(att.counters)
        covered: Dict[str, set] = {}
        commits: List[Tuple[int, bytes]] = []
        for e in vc.timeline:
            cert = e.cert
            skip = isinstance(cert, (SkipCertificate, PhaseSkipCertificate))
            if self._check_cert(cert, vc.sender,
                                None if skip else e.digest) is not VerifyStatus.OK:
                return False
            if isinstance(cert, SkipCertificate):
                covered.setdefault(cert.counter, set()).update(
                    range(cert.first, cert.last + 1))
            elif isinstance(cert, UniqueIdentifier):
                covered.setdefault(cert.counter, set()).add(cert.value)
                if e.kind == "commit":
                    commits.append((e.seq, e.digest))
            elif isinstance(cert, ContextCertificate):
                covered.setdefault(cert.phase, set()).add((cert.view, cert.seq))
            else:
                covered.setdefault(cert.phase, set()).add(e.seq)
        for p in vc.prepares:
            cert = p.cert
            if isinstance(cert, UniqueIdentifier):
                covered.setdefault(cert.counter, set()).add(cert.value)
            elif isinstance(cert, ContextCertificate):
                covered.setdefault(cert.phase, set()).add((cert.view, cert.seq))
        if self.cfg.mode != "prevention":
            # the attestation precedes the vote certificate, so the vote must
            # sit exactly one past the attested position: nothing was minted
            # between taking the snapshot and certifying it
            own = derive_counter_id(vc.sender, MSG_COUNTER)
            if vc.cert.counter != own or vc.cert.value != counters.get(own, 0) + 1:
                return False
            for name, last in counters.items():
                want = set(range(1, last + 1))
                if not want <= covered.get(name, set()):
                    return False
        for seq, digest in commits:
            if seq <= vc.stable_seq:
                continue
            prep = next((p for p in vc.prepares if p.seq == seq), None)
            if prep is None:
                return False
            if m.commit_digest(prep.view, seq, vc.sender, prep.bdigest) != digest:
                return False
        return True

    def _check_stable_cert(self, cert: Tuple[m.Checkpoint, ...], seq: int) -> bool:
        if len({c.sender for c in cert}) < self.cfg.f + 1:
            return False
        digests = {c.state_digest for c in cert}
        if len(digests) != 1:
            return False
        for c in cert:
            if c.seq != seq:
                return False
            if self._check_cert(c.cert, c.sender, m.checkpoint_digest(
                    c.seq, c.state_digest)) is not VerifyStatus.OK:
                return False
        return True

    def _union(self, votes: Dict[int, m.ViewChange]):
        base = max(vc.stable_seq for vc in votes.values())
        stable = next((vc.stable_cert for vc in votes.values()
                       if vc.stable_seq == base), ())
        chosen: Dict[int, m.Prepare] = {}
        for vc in votes.values():
            for p in vc.prepares:
                if p.seq <= base:
                    continue
                cur = chosen.get(p.seq)
                if cur is None or p.view > cur.view:
                    chosen[p.seq] = p
        return base, stable, [chosen[s] for s in sorted(chosen)]

    def _emit_new_view(self, view: int, votes: Dict[int, m.ViewChange],
                       now: int) -> List[tuple]:
        base, stable, reprops = self._union(votes)
        skip = None
        try:
            if self.cfg.mode == "prevention":
                if base >= 1:
                    skip = self.tc.skip_contexts("prepare", view, base)
                    self._record("skip", base, b"", skip)
            elif base >= 1:
                skip = self.tc.skip_values(proposal_counter(view), base)
                self._record("skip", base, b"", skip)
            new_preps = []
            for old in reprops:
                bdig = old.bdigest
                pdig = m.prepare_digest(view, old.seq, bdig)
                cert = self._cert_prepare(view, old.seq, pdig)
                new_preps.append(m.Prepare(view, old.seq, old.requests, bdig, cert))
                self._record("prepare", old.seq, pdig, cert)
            vcs = tuple(votes[s] for s in sorted(votes))
            ndig = m.new_view_digest(view, self.id, base, vcs, new_preps)
            cert = self._cert("newview", view, 1, ndig)
        except TcUnavailable:
            return [("note", {"ev": "tc_down", "replica": self.id})]
        nv = m.NewView(view, self.id, vcs, base, stable, skip,
                       tuple(new_preps), cert)
        self._record("newview", view, ndig, cert)
        out: List[tuple] = [("send", ("replica", p), nv) for p in self.peers()]
        out.append(("note", {"ev": "newview", "view": view, "base": base,
                             "reproposed": [p.seq for p in new_preps]}))
        out += self._adopt_new_view(nv, now, as_leader=True)
        return out

    def on_new_view(self, nv: m.NewView, now: int) -> List[tuple]:
        if nv.view <= self.view:
            return []
        if nv.sender != leader_of(nv.view, self.cfg.n):
            return []
        if not self._validate_new_view(nv):
            return self._drop("newview", nv.view)
        return self._adopt_new_view(nv, now, as_leader=False)

    def _validate_new_view(self, nv: m.NewView) -> bool:
        ok = VerifyStatus.OK
        if self._check_cert(nv.cert, nv.sender, nv.ndigest()) is not ok:
            return False
        if len({vc.sender for vc in nv.viewchanges}) < self.cfg.f + 1:
            return False
        votes = {}
        for vc in nv.viewchanges:
            if vc.new_view != nv.view or not self._validate_view_change(vc):
                return False
            votes[vc.sender] = vc
        base, _, reprops = self._union(votes)
        if base != nv.base:
            return False
        want = {p.seq: p.bdigest for p in reprops}
        got = {p.seq: p.bdigest for p in nv.prepares}
        if want != got:
            return False
        for seq, dig in self.committed_history.items():
            if seq > base and seq in got and got[seq] != dig:
                return False
        stream = self._proposal_stream(nv.view)
        for p in nv.prepares:
            if p.view != nv.view or self._check_cert(
                    p.cert, nv.sender, p.pdigest()) is not ok:
                return False
            if self._slot(p.cert) != (stream, p.seq):
                return False
        if nv.base >= 1 and self.cfg.mode != "prevention":
            sk = nv.skip_cert
            if self._check_cert(sk, nv.sender, None) is not ok:
                return False
            if (sk.counter, sk.first, sk.last) != (stream, 1, nv.base):
                return False
        return True

    def _adopt_new_view(self, nv: m.NewView, now: int, as_leader: bool) -> List[tuple]:
        self.view = nv.view
        self.voted_view = max(self.voted_view, nv.view)
        self.admission_base = nv.base
        self.cursors = {}
        self.buffered = {}
        self.bound = {}
        self.deferred_commits = {}
        self.suspect_armed.pop(nv.view, None)
        out: List[tuple] = [("note", {"ev": "adopt_view", "view": nv.view,
                                      "base": nv.base})]
        if nv.base > self.stable_seq and nv.stable_cert:
            if self._check_stable_cert(nv.stable_cert, nv.base):
                self._adopt_stable(nv.base, nv.stable_cert)
        if self.exec_cursor < self.stable_seq:
            out += self._maybe_fetch_state()
        if as_leader:
            top = nv.base
            for p in nv.prepares:
                self.prepared_log[p.seq] = p
                self.prepared_history.append((nv.view, p.seq, p.bdigest))
                for r in p.requests:
                    self.bound[r.key()] = p.seq
                    self.pending.setdefault(r.key(), r)
                out += self._credit(p.seq, nv.view, p.bdigest, self.id,
                                    "prepare", p.cert)
                echo = m.Commit(nv.view, p.seq, self.id, p.bdigest, p.cert, echo=True)
                out += [("send", ("replica", q), echo) for q in self.peers()]
                top = max(top, p.seq)
            self.cursors[(self.id, self._proposal_stream(nv.view))] = top
            self.next_seq = top + 1
            self.inflight = {s for s in self.inflight if s > top}
            self.batchq = [r for k, r in sorted(self.pending.items())
                           if k not in self.bound and k not in self.executed]
            out += self._seal_batches(now)
            if self.batchq and not self.batch_timer_armed:
                self.batch_timer_armed = True
                out.append(("timer", "batch", self.view, self.cfg.batch_timeout_ns))
        else:
            for p in nv.prepares:
                out += self.on_prepare(p, now)
            if self.pending:
                out += self._arm_suspicion()
        for prep in self.future_prepares.pop(nv.view, []):
            out += self.on_prepare(prep, now)
        for com in self.future_commits.pop(nv.view, []):
            out += self.on_commit(com, now)
        return out

    # -------------------------------------------------------------- dispatch

    def handle(self, msg, now: int) -> List[tuple]:
        """Route one received message to its handler; a crashed component
        leaves the replica deaf until it is restored or restarted."""
        try:
            name = _HANDLERS[type(msg)]
        except KeyError:
            raise TypeError(f"no handler for {type(msg).__name__}") from None
        if self._passive():
            return []
        return getattr(self, name)(msg, now)

    def on_timer(self, kind: str, key, now: int) -> List[tuple]:
        name = _TIMERS[kind]
        # these marks say a timer is pending; clear them even while the
        # component is down, or the timer could never be armed again
        if kind == "batch":
            self.batch_timer_armed = False
        elif kind == "suspect":
            key = (key, self.suspect_armed.pop(key, None))
        if self._passive():
            return []
        return getattr(self, name)(key, now)

    def on_timer_batch(self, view: int, now: int) -> List[tuple]:
        if view != self.view or not self.is_leader():
            return []
        out: List[tuple] = []
        if self.batchq and not self.queued_batches:
            chunk = tuple(self.batchq)
            self.batchq = []
            self.queued_batches.append(chunk)
        out += self._drain_proposals(now)
        if self.batchq:
            self.batch_timer_armed = True
            out.append(("timer", "batch", self.view, self.cfg.batch_timeout_ns))
        return out

    # ----------------------------------------------------------------- drops

    def _drop(self, why: str, seq: int) -> List[tuple]:
        self.stats["invalid_drops"] += 1
        return [("note", {"ev": "drop", "why": why, "seq": seq})]

    def _drop_status(self, status: VerifyStatus, seq: int) -> List[tuple]:
        if status is VerifyStatus.STALE_EPOCH:
            self.stats["stale_epoch_drops"] += 1
            return [("note", {"ev": "drop", "why": "stale_epoch", "seq": seq})]
        return self._drop("invalid_cert", seq)

    # ------------------------------------------------------------- inspection

    def clone(self) -> "Replica":
        """Independent fork of this replica, for state-space exploration.

        Handling a message on the fork never changes this replica: every
        mutable container is copied (see _FLAT_STATE), and so are the
        trackers and the trusted component. Frozen messages and certificates
        are shared. A subclass keeps its type; attributes it adds are
        shared too, so they must be scalars or never mutated.
        """
        child = type(self).__new__(type(self))
        state = child.__dict__ = self.__dict__.copy()
        for name in _FLAT_STATE:
            state[name] = state[name].copy()
        for name in _NESTED_STATE:
            state[name] = {k: v.copy() for k, v in state[name].items()}
        state["trackers"] = {s: t.clone() for s, t in self.trackers.items()}
        state["tc"] = self.tc.clone()
        return child

    def state_key(self) -> tuple:
        """Canonical snapshot of behavior-relevant state for model checking."""
        return (
            self.view, self.voted_view, tuple(sorted(self.flagged_views)),
            tuple(sorted(self.cursors.items())),
            tuple(sorted((k, tuple(sorted(v))) for k, v in self.buffered.items())),
            tuple((s, p.bdigest) for s, p in sorted(self.prepared_log.items())),
            tuple(sorted((s, t.committed, t.via,
                          tuple(sorted((d, tuple(sorted(h)))
                                       for d, h in t.claims.items())))
                         for s, t in self.trackers.items())),
            self.exec_cursor, self.exec_digest,
            tuple(sorted(self.pending)), tuple(sorted(self.executed)),
            self.stable_seq, self.next_seq,
            tuple(sorted(self.deferred_commits)),
            tuple(sorted((v, len(ps)) for v, ps in self.future_prepares.items())),
            tuple(sorted((v, len(cs)) for v, cs in self.future_commits.items())),
            tuple(sorted(self.decision_armed)),
            tuple(sorted((k, tuple(sorted(v)))
                         for k, v in self.decision_seen.items())),
            tuple(sorted(self.peer_max_commit.items())),
            tuple(sorted(self.suspect_armed.items())),
            tuple(sorted((v, tuple(sorted(d))) for v, d in self.vc_votes.items())),
            tuple(sorted(self.vc_sent)),
            len(self.timeline),
            self.tc.state_key(),
        )
