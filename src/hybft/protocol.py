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
In both modes `Replica._cert` (with `_skip` for voided ids) certifies every
statement a replica makes and records it in the replica's timeline, with the
prepare behind each prepare or commit; a view-change vote is that timeline.

The host calls a replica only through `handle` and `on_timer`, which stop a
replica whose component is down; a replica never reads the time they pass.
Replicas answer with effect tuples; the hosting event loop does all actual
sending and timer scheduling:

    ("send", ("replica", i) | ("client", c), msg)
    ("timer", kind, key, delay_ns)
    ("note", {...})   # trace annotation
    ("fact", "admit" | "commit" | "execute", (view, seq) | seq, digest)
                      # for the host's ledger (sim.Ledger), read by the oracle
"""

from __future__ import annotations

import hmac as hmaclib
from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Optional, Tuple

from . import messages as m
from .config import SimConfig
from .encoding import _enc, _h, _preset
from .tc import (
    ContextCertificate,
    PhaseSkipCertificate,
    SequenceRefused,
    SkipCertificate,
    TrustedComponent,
    UniqueIdentifier,
    VerifyStatus,
    context_follows,
    derive_counter_id,
    verify_certificate,
)

MSG_COUNTER = "msg"


def proposal_counter(view: int) -> str:
    return f"proposal:{view}"


def leader_of(view: int, n: int) -> int:
    return view % n


_CARRIERS = ("prepare", "commit")  # the entries that carry their prepare


def _step(cert, at: dict) -> tuple:
    """(stream, position) of `cert`: the stream it moves and where to, if
    the component's own order rules let it follow the stream's position in
    `at`, else None. A stream is a counter, at its last value, or a phase,
    at its last (view, seq); a skip starts where its stream is."""
    kind = type(cert)
    if kind is ContextCertificate:
        stream, to = ("phase", cert.phase), (cert.view, cert.seq)
        ok = context_follows(at.get(stream, (0, 0)), cert.view, cert.seq)
    elif kind is PhaseSkipCertificate:
        stream, to = ("phase", cert.phase), (cert.to_view, cert.to_seq)
        ok = at.get(stream, (0, 0)) == (cert.from_view, cert.from_seq)
    elif kind is UniqueIdentifier or kind is SkipCertificate:
        first, to = ((cert.value, cert.value) if kind is UniqueIdentifier
                     else (cert.first, cert.last))
        stream = ("counter", cert.counter)
        ok = at.get(stream, 0) == first - 1
    else:
        return None, None
    return stream, (to if ok else None)


@dataclass
class _Tracker:
    """Attestations collected for one sequence number."""

    claims: Dict[bytes, Dict[int, Tuple[str, object]]] = field(default_factory=dict)
    committed: Optional[bytes] = None
    view: int = 0

    def clone(self) -> "_Tracker":
        return _Tracker(_copy(self.claims), self.committed, self.view)

    def state_key(self) -> tuple:
        return (_key(self.claims), self.committed, self.view)


# The Replica attributes that are not state: the configuration and what
# __init__ derives from it once (n, the peers and their destinations, which
# every broadcast reads) and the view cap max_view, which only the model
# checker sets, all of which clones share; and the write-only counters
# `stats`, which clones copy and no step reads. Every other attribute, a
# subclass's too, is state: clone copies it, settle shares it while a step
# leaves it equal, and state_key keys it (see _copy and _key).
_CONFIG = frozenset({"id", "cfg", "n", "peers", "peer_dsts", "window",
                     "checkpoint_interval", "max_view", "directory",
                     "client_keys"})
_NOT_STATE = _CONFIG | {"stats"}


def _copy(value):
    """A copy of `value` that shares no mutable object with it (see _COPY)."""
    copy = _COPY.get(type(value))
    return value if copy is None else copy(value)


def _key(value):
    """The hashable key of `value` (see _KEY)."""
    key = _KEY.get(type(value))
    return value if key is None else key(value)


# How _copy and _key treat each mutable type, by exact type; a value of any
# other type is immutable, shared by copies and its own key. Dicts are copied
# at every depth and keyed as the frozenset of their keyed items; the
# elements of lists and sets are immutable.
_COPY = {dict: lambda d: {k: _copy(v) for k, v in d.items()},
         list: list.copy, set: set.copy,
         _Tracker: _Tracker.clone, TrustedComponent: TrustedComponent.clone}
_KEY = {dict: lambda d: frozenset([(k, _key(v)) for k, v in d.items()]),
        list: tuple, set: frozenset,
        _Tracker: _Tracker.state_key, TrustedComponent: TrustedComponent.state_key}


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
                 tc: TrustedComponent, directory, client_keys: Dict[int, bytes]):
        self.id = replica_id
        self.cfg = cfg
        self.n = cfg.n
        self.peers = tuple(i for i in range(self.n) if i != replica_id)
        self.peer_dsts = tuple(("replica", i) for i in self.peers)
        self.window = cfg.effective_window()
        self.checkpoint_interval = cfg.effective_checkpoint_interval()
        self.max_view = None       # caps view changes; the model checker sets it
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

        self.exec_cursor = 0
        self.exec_digest = _h(b"genesis")
        # exec digest at each checkpoint seq from stable_seq on, for FetchState
        self.checkpoint_exec: Dict[int, bytes] = {}
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

        self.timeline: List[m.TimelineEntry] = []
        self.deferred_commits: set = set()   # seqs whose commit waits
        self.future_commits: Dict[int, List[m.Commit]] = {}
        self.future_prepares: Dict[int, List[m.Prepare]] = {}

        self.decision_seen: Dict[int, set] = {}
        self.peer_floor: Dict[int, int] = {}   # seq each peer has committed to

        self.vc_votes: Dict[int, Dict[int, m.ViewChange]] = {}
        self.suspect_armed: Dict[int, tuple] = {}

        self.stats: Dict[str, int] = {
            "verifies": 0, "stale_epoch_drops": 0, "invalid_drops": 0,
            "decisions_sent": 0, "decisions_suppressed": 0,
        }

    # ------------------------------------------------------------------ util

    def is_leader(self, view: Optional[int] = None) -> bool:
        v = self.view if view is None else view
        return leader_of(v, self.n) == self.id

    def _check_cert(self, cert, issuer: int,
                    digest: Optional[bytes]) -> Optional[str]:
        """The one acceptance test for a received certificate; None if it passes.

        The certificate must come from `issuer`'s component, verify, and
        cover `digest` (None for skip certificates and attestations, which
        cover no message). Binding the issuer is what keeps one faulty
        replica from speaking in another replica's name.
        """
        if getattr(cert, "replica_id", None) != issuer:
            return "invalid_cert"
        self.stats["verifies"] += 1
        status = verify_certificate(cert, directory=self.directory, via_tc=self.tc)
        if status is VerifyStatus.OK and (
                digest is None or getattr(cert, "msg_hash", None) == digest):
            return None
        return "stale_epoch" if status is VerifyStatus.STALE_EPOCH else "invalid_cert"

    def _check_prepare(self, view: int, seq: int, digest: bytes, cert) -> Optional[str]:
        """The one rule for a leader's prepare, however it arrives; None if it
        passes. The view leader's certificate must bind position `seq` of the
        one stream that leader may use (any stream under the announced policy)."""
        why = self._check_cert(cert, leader_of(view, self.n), digest)
        if why is not None:
            return why
        stream, pos = self._slot(cert)
        if pos != seq or (self.cfg.counter_policy == "pinned"
                          and stream != self._proposal_stream(view)):
            return "prepare_slot"
        return None

    def has_executed(self, client_id: int, client_seq: int) -> bool:
        """(c, s) has executed here exactly when the last reply to c is for s
        or later. on_client_request, run once per request delivery, and
        Prepare.execute, run once per batch and chain point, write it out
        rather than call it."""
        rep = self.last_reply.get(client_id)
        return rep is not None and rep.client_seq >= client_seq

    def _committed_up_to(self, seq: int) -> bool:
        if seq <= self.admission_base or seq <= self.stable_seq:
            return True
        t = self.trackers.get(seq)
        return t is not None and t.committed is not None

    def _pruned(self, seq: int) -> bool:
        """Whether `_adopt_stable` dropped seq's tracker: such a seq gets none
        again (`_credit`, `on_decision`), so each seq commits at most once."""
        return seq <= self.stable_seq - self.window

    # --------------------------------------------------------- certification

    def _cert(self, phase: str, view: int, seq: int, statement,
              at: Optional[int] = None) -> m.TimelineEntry:
        """Certify one statement, record it in the timeline at `at` (default
        `seq`) and return its entry; with `_skip`, the only code that does
        either. A proposal's statement is its batch and a commit's the
        Prepare it attests, which their entries carry; any other is a digest.

        Detection mode binds a proposal to the next value of the view's
        proposal counter, which must be `seq`, and any other statement to the
        message counter. Prevention mode certifies the context (phase, view,
        seq), voiding the ids in between first if the phase is behind.

        A message built here or from the entry gets the digests computed for
        it preset in its memo (encoding._preset), so its receivers compute
        none of them again.
        """
        prep, digest = None, statement
        if phase == "prepare":
            bdigest = m.batch_digest(statement)
            digest = m.prepare_digest(view, seq, bdigest)
        elif phase == "commit":
            prep, digest = statement, m.commit_digest(
                view, seq, self.id, statement.bdigest())
        if self.cfg.mode == "prevention":
            try:
                cert = self.tc.certify_context(phase, view, seq, digest)
            except SequenceRefused:
                self._skip(phase, view, seq - 1)
                cert = self.tc.certify_context(phase, view, seq, digest)
        elif phase == "prepare":
            cert = self.tc.create_ui(digest, counter=proposal_counter(view))
            if cert.value != seq:
                raise RuntimeError("proposal counter out of step with sequence")
        else:
            cert = self.tc.create_ui(digest, counter=MSG_COUNTER)
        if phase == "prepare":
            prep = _preset(m.Prepare(view, seq, statement, cert),
                           bdigest=bdigest, pdigest=digest)
        entry = m.TimelineEntry(phase, seq if at is None else at, digest,
                                cert, prep)
        self.timeline.append(entry)
        return entry

    def _skip(self, phase: str, view: int, last: int):
        """Void the ids of `phase` in `view` up to `last` and record the skip.
        In detection mode only a new view's proposal counter is skipped, from
        its first value."""
        if self.cfg.mode == "prevention":
            skip = self.tc.skip_contexts(phase, view, last)
        else:
            skip = self.tc.skip_values(proposal_counter(view), last)
        self.timeline.append(m.TimelineEntry("skip", last, b"", skip))
        return skip

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
        return derive_counter_id(leader_of(view, self.n), proposal_counter(view))

    # ------------------------------------------------------------- requests

    def on_client_request(self, req: m.Request) -> List[tuple]:
        """Queue a new request (as the leader) or arm suspicion of the
        leader; the one leader test here is the one _arm_suspicion reads."""
        if not self._auth_ok(req):
            return [("note", {"ev": "bad_auth", "client": req.client_id})]
        key = req.key()
        if key in self.pending:
            return []
        # a repeated last request gets its reply again, an older one none
        rep = self.last_reply.get(req.client_id)
        if rep is not None and rep.client_seq >= req.client_seq:
            if rep.client_seq == req.client_seq:
                return [("send", ("client", req.client_id), rep)]
            return []
        self.pending[key] = req
        leader = leader_of(self.view, self.n) == self.id
        if leader and self.voted_view <= self.view:
            self.batchq.append(req)
            return self._seal_batches()
        return self._arm_suspicion(leader)

    def _auth_ok(self, req: m.Request) -> bool:
        keyb = self.client_keys.get(req.client_id)
        if keyb is None:
            return False
        return hmaclib.compare_digest(m.request_auth(req, keyb), req.auth)

    def _arm_suspicion(self, leader: Optional[bool] = None) -> List[tuple]:
        """Arm this view's suspect timer unless it is armed or this replica
        leads the view (`leader`, if the caller has already tested that)."""
        if leader is None:
            leader = self.is_leader()
        if leader or self.view in self.suspect_armed:
            return []
        self.suspect_armed[self.view] = self.exec_cursor
        return [("timer", "suspect", self.view, self.cfg.suspicion_timeout_ns)]

    # --------------------------------------------------------------- leader

    def _seal_batches(self) -> List[tuple]:
        """Queue every full batch, propose what the window allows, and arm
        the batch timer while a partial batch waits."""
        while len(self.batchq) >= self.cfg.batch_size:
            chunk = tuple(self.batchq[: self.cfg.batch_size])
            del self.batchq[: self.cfg.batch_size]
            self.queued_batches.append(chunk)
        out = self._drain_proposals()
        if self.batchq and not self.batch_timer_armed:
            self.batch_timer_armed = True
            out.append(("timer", "batch", self.view, self.cfg.batch_timeout_ns))
        return out

    def _drain_proposals(self) -> List[tuple]:
        out: List[tuple] = []
        limit = self.cfg.pipeline_depth if self.cfg.pipelining else 1
        while (self.queued_batches and len(self.inflight) < limit
               and self.next_seq <= self.stable_seq + self.window):
            chunk = self.queued_batches.pop(0)
            out += self._propose(chunk)
        return out

    def _propose(self, chunk: Tuple[m.Request, ...]) -> List[tuple]:
        seq = self.next_seq
        prep = self._cert("prepare", self.view, seq, chunk).prepare
        self.next_seq = seq + 1
        self.inflight.add(seq)
        out: List[tuple] = [self._bind(prep, fresh=True)]
        out += [("send", dst, prep) for dst in self.peer_dsts]
        out += self._echo(prep)
        out += self._credit(seq, self.view, prep.bdigest(), self.id, "prepare",
                            prep.cert)
        out.append(("note", {"ev": "propose", "seq": seq, "view": self.view}))
        return out

    def _bind(self, prep: m.Prepare, fresh: bool = False) -> tuple:
        """Hold `prep` at its seq, bind its requests there and return the
        admission fact. A request not yet executed is pending; a fresh
        proposal's requests came from the batch queue, so pending stays as it
        is, since one may have executed meanwhile."""
        self.prepared_log[prep.seq] = prep
        bound, pending, seq = self.bound, self.pending, prep.seq
        walk = False
        for key in prep.keys():
            bound[key] = seq
            if key not in pending:
                walk = True
        if walk and not fresh:
            for r, key in zip(prep.requests, prep.keys()):
                if not (key in pending
                        or self.has_executed(r.client_id, r.client_seq)):
                    pending[key] = r
        return ("fact", "admit", (prep.view, prep.seq), prep.bdigest())

    def _echo(self, prep: m.Prepare) -> List[tuple]:
        """The leader re-presents its prepare certificate as its attestation."""
        echo = _preset(m.Commit(prep.view, prep.seq, self.id, prep.bdigest(),
                                prep.cert, echo=True), pdigest=prep.pdigest())
        return [("send", dst, echo) for dst in self.peer_dsts]

    # ------------------------------------------------------------ admission

    def on_prepare(self, prep: m.Prepare) -> List[tuple]:
        if prep.view > self.view:
            # proposal may outrun the view installation on the same channel
            self.future_prepares.setdefault(prep.view, []).append(prep)
            return [("note", {"ev": "buffer_view", "view": prep.view,
                              "seq": prep.seq})]
        if prep.view != self.view or self.voted_view > self.view:
            return [("note", {"ev": "drop_prepare", "view": prep.view, "seq": prep.seq})]
        if self.view in self.flagged_views:
            return []
        why = self._check_prepare(prep.view, prep.seq, prep.pdigest(), prep.cert)
        if why is not None:
            return self._drop(why, prep.seq)
        # both modes admit exactly the next position of the prepare's stream
        key = (leader_of(prep.view, self.n), self._slot(prep.cert)[0])
        pinned = self.cfg.counter_policy == "pinned"
        cursor = self.cursors.get(key, self.admission_base if pinned else 0)
        if prep.seq <= cursor:
            return []
        if prep.seq > cursor + 1:
            self.buffered.setdefault(key, {})[prep.seq] = prep
            return self._arm_suspicion() + [
                ("note", {"ev": "buffer", "seq": prep.seq, "cursor": cursor})]
        return self._admit_and_drain(prep, key, cursor)

    def _admit_and_drain(self, prep: m.Prepare, key: Tuple[int, str],
                         cursor: int) -> List[tuple]:
        out = self._admit(prep, key)
        buf = self.buffered.get(key, {})
        # a flagging admit freezes the view without moving the cursor
        while (prep.view not in self.flagged_views
               and self.cursors.get(key, cursor) + 1 in buf):
            out += self._admit(buf.pop(self.cursors.get(key, cursor) + 1), key)
        if not buf:
            self.buffered.pop(key, None)
        return out

    def _admit(self, prep: m.Prepare, key: Tuple[int, str]) -> List[tuple]:
        conflict = self._conflicts(prep)
        if conflict is not None:
            self.flagged_views.add(prep.view)
            return ([("note", {"ev": "flag_leader", "view": prep.view,
                               "seq": prep.seq, "request": list(conflict)})]
                    + self._start_view_change(prep.view + 1, reason="flagged"))
        self.cursors[key] = prep.seq
        out: List[tuple] = [self._bind(prep), ("note", {
            "ev": "admit", "seq": prep.seq, "view": prep.view})]
        out += self._credit(prep.seq, prep.view, prep.bdigest(),
                            leader_of(prep.view, self.n), "prepare", prep.cert)
        out += self._send_commit(prep)
        return out

    def _conflicts(self, prep: m.Prepare) -> Optional[Tuple[int, int]]:
        bound = self.bound
        if bound.keys().isdisjoint(prep.keys()):
            return None
        for key in prep.keys():
            at = bound.get(key)
            if at is not None and at != prep.seq:
                return key
        return None

    def _send_commit(self, prep: m.Prepare) -> List[tuple]:
        if not self.cfg.pipelining and not self._committed_up_to(prep.seq - 1):
            # withholding this attestation until the predecessor commits makes
            # a later commit from us proof that we saw everything before it
            self.deferred_commits.add(prep.seq)
            return []
        return self._emit_commit(prep)

    def _emit_commit(self, prep: m.Prepare) -> List[tuple]:
        entry = self._cert("commit", prep.view, prep.seq, prep)
        cert = entry.cert
        com = _preset(m.Commit(prep.view, prep.seq, self.id, prep.bdigest(),
                               cert), cdigest=entry.digest)
        out: List[tuple] = [("send", dst, com) for dst in self.peer_dsts]
        out += self._credit(prep.seq, prep.view, com.bdigest, self.id,
                            "commit", cert)
        return out

    def _flush_deferred(self) -> List[tuple]:
        out: List[tuple] = []
        for seq in sorted(self.deferred_commits):
            if self._committed_up_to(seq - 1):
                self.deferred_commits.remove(seq)
                prep = self.prepared_log.get(seq)
                if prep is not None:
                    out += self._emit_commit(prep)
        return out

    # -------------------------------------------------------------- commits

    def on_commit(self, com: m.Commit) -> List[tuple]:
        if com.view > self.view:
            self.future_commits.setdefault(com.view, []).append(com)
            return []
        if com.view != self.view:
            return []
        if com.echo:
            # an echo re-presents the leader's prepare certificate, so it is
            # credited to the leader whoever relays it
            issuer, kind = leader_of(com.view, self.n), "prepare"
            why = self._check_prepare(com.view, com.seq, com.pdigest(),
                                      com.cert)
        else:
            issuer, kind = com.sender, "commit"
            why = self._check_cert(com.cert, issuer, com.cdigest())
        if why is not None:
            return self._drop(why, com.seq)
        if not com.echo and not self.cfg.pipelining:
            # a commit is sent only once its predecessor committed
            self.peer_floor[issuer] = max(self.peer_floor.get(issuer, 0),
                                          com.seq - 1)
        return self._credit(com.seq, com.view, com.bdigest, issuer, kind, com.cert)

    def _credit(self, seq: int, view: int, bdigest: bytes, sender: int,
                kind: str, cert) -> List[tuple]:
        if self._pruned(seq):
            return []
        t = self.trackers.get(seq)
        if t is None:
            t = self.trackers[seq] = _Tracker()
        t.view = max(t.view, view)
        holders = t.claims.get(bdigest)
        if holders is None:
            holders = t.claims[bdigest] = {}
        elif sender in holders:
            return []
        holders[sender] = (kind, cert)
        if t.committed is not None:
            return []
        if len(holders) >= self.cfg.f + 1:
            return self._mark_committed(seq, view, bdigest, "quorum", holders)
        return []

    def _mark_committed(self, seq: int, view: int, bdigest: bytes,
                        via: str, holders) -> List[tuple]:
        """Commit `bdigest` at seq; fetch a missing batch from one of `holders`
        (_source): the digest's claimants, or the sender of a Decision."""
        t = self.trackers.get(seq)
        if t is None:
            t = self.trackers[seq] = _Tracker()
        t.committed = bdigest
        t.view = max(t.view, view)
        out: List[tuple] = [("fact", "commit", seq, bdigest),
                            ("note", {"ev": "commit", "seq": seq, "via": via})]
        self.inflight.discard(seq)
        if self.cfg.decisions and via == "quorum" and not self.is_leader(view):
            out.append(("timer", "decision", seq, self.cfg.delta_ns))
        if self.prepared_log.get(seq) is None:
            source = self._source(holders)
            out += [("send", ("replica", source), m.FetchBatch(seq, self.id)),
                    ("note", {"ev": "fetch_batch", "seq": seq, "from": source})]
        out += self._execute()
        out += self._flush_deferred()
        if self.is_leader() and self.voted_view <= self.view:
            out += self._drain_proposals()
        return out

    def _source(self, holders) -> int:
        """Whom to fetch from: the lowest other replica among `holders`, else
        the first peer."""
        return min((h for h in holders if h != self.id),
                   default=self.peers[0])

    # ------------------------------------------------------------ decisions

    def on_timer_decision(self, seq: int) -> List[tuple]:
        # only a quorum commit arms this timer, and a seq commits once
        t = self.trackers.get(seq)
        if t is None:
            return []
        lead = leader_of(t.view, self.n)
        lagging = [p for p in self.peers
                   if p != lead and not self._peer_known_committed(p, seq)]
        if not lagging:
            self.stats["decisions_suppressed"] += 1
            return [("note", {"ev": "decision_suppressed", "seq": seq})]
        dec = m.Decision(t.view, seq, self.id, t.committed,
                         self._commit_proof(seq),
                         threshold=self.cfg.threshold_proofs)
        self.stats["decisions_sent"] += 1
        out: List[tuple] = [("send", ("replica", p), dec) for p in lagging]
        out.append(("note", {"ev": "decision_sent", "seq": seq, "to": lagging}))
        return out

    def _peer_known_committed(self, peer: int, seq: int) -> bool:
        return (self.peer_floor.get(peer, 0) >= seq
                or peer in self.decision_seen.get(seq, ()))

    def _commit_proof(self, seq: int) -> tuple:
        """The lowest f+1 claims behind seq's committed digest: a quorum
        commit has at least that many."""
        t = self.trackers[seq]
        holders = t.claims[t.committed]
        return tuple((s, *holders[s]) for s in sorted(holders))[: self.cfg.f + 1]

    def on_decision(self, dec: m.Decision) -> List[tuple]:
        if self._pruned(dec.seq):
            return []
        self.decision_seen.setdefault(dec.seq, set()).add(dec.sender)
        t = self.trackers.get(dec.seq)
        if t is not None and t.committed is not None:
            return []
        if len({s for s, _, _ in dec.proof}) < self.cfg.f + 1:
            return self._drop("decision_quorum", dec.seq)
        lead = leader_of(dec.view, self.n)
        try:
            # computed once per Decision object for all its receivers
            wants = dec.proof_digests()
        except (TypeError, OverflowError):   # see on_view_change
            return self._drop("malformed", dec.seq)
        for (sender, kind, cert), want in zip(dec.proof, wants):
            if kind == "prepare":
                if sender != lead:
                    return self._drop("decision_proof", dec.seq)
                why = self._check_prepare(dec.view, dec.seq, want, cert)
            else:
                why = self._check_cert(cert, sender, want)
            if why is not None:
                return self._drop("decision_proof", dec.seq)
        out = [("note", {"ev": "decision_accepted", "seq": dec.seq,
                         "from": dec.sender})]
        return out + self._mark_committed(dec.seq, dec.view, dec.bdigest,
                                          "decision", (dec.sender,))

    # ------------------------------------------------------ batch and state

    def on_fetch_batch(self, fb: m.FetchBatch) -> List[tuple]:
        prep = self.prepared_log.get(fb.seq)
        if prep is None:
            return []
        return [("send", ("replica", fb.sender), m.BatchResponse(prep, self.id))]

    def on_batch_response(self, br: m.BatchResponse) -> List[tuple]:
        prep = br.prepare
        t = self.trackers.get(prep.seq)
        if t is None or t.committed is None:
            return []
        if prep.bdigest() != t.committed:
            return self._drop("batch_response", prep.seq)
        self.prepared_log.setdefault(prep.seq, prep)
        return self._execute()

    def on_fetch_state(self, fs: m.FetchState) -> List[tuple]:
        # a checkpoint adopted from peers' certificates but not yet executed
        # here has no local state to serve
        if self.stable_seq < fs.seq or self.stable_seq not in self.checkpoint_exec:
            return []
        replies = tuple(self.last_reply[c] for c in sorted(self.last_reply))
        resp = m.StateResponse(self.stable_seq, self.checkpoint_exec[self.stable_seq],
                               replies, self.stable_cert, self.id)
        return [("send", ("replica", fs.sender), resp)]

    def on_state_response(self, sr: m.StateResponse) -> List[tuple]:
        if sr.seq <= self.exec_cursor:
            return []
        if self._check_stable_cert(sr.stable_cert, sr.seq) is not None:
            return self._drop("state_cert", sr.seq)
        state = self._state_digest_from(sr.exec_digest, sr.last_replies)
        want = sr.stable_cert[0].state_digest
        if state != want:
            return self._drop("state_digest", sr.seq)
        self.exec_cursor = sr.seq
        self.exec_digest = sr.exec_digest
        self.checkpoint_exec[sr.seq] = sr.exec_digest
        for rep in sr.last_replies:
            self.last_reply[rep.client_id] = rep
        for key in [k for k in self.pending if self.has_executed(*k)]:
            del self.pending[key]
        self._adopt_stable(sr.seq, sr.stable_cert)
        return ([("fact", "execute", sr.seq, sr.exec_digest),
                 ("note", {"ev": "state_adopted", "seq": sr.seq})]
                + self._execute())

    # ------------------------------------------------------------ execution

    def _execute(self) -> List[tuple]:
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
            # one outcome per batch, chain point and prior replies, shared by
            # every replica that executes the batch there
            self.exec_digest, replies, done, sends = prep.execute((
                self.exec_digest, nxt,
                tuple(map(self.last_reply.get, prep.clients()))))
            self.last_reply.update(replies)
            for key in done:
                self.pending.pop(key, None)
            out += sends
            out.append(("fact", "execute", nxt, self.exec_digest))
            out.append(("note", {"ev": "execute", "seq": nxt}))
            if nxt % self.checkpoint_interval == 0:
                self.checkpoint_exec[nxt] = self.exec_digest
                out += self._emit_checkpoint(nxt)
        return out

    def _state_digest_from(self, exec_digest: bytes,
                           replies: Iterable[m.Reply]) -> bytes:
        # binds each reply's client and client seq, which has_executed reads
        ordered = sorted(replies, key=lambda r: r.client_id)
        return _h(b"".join([_enc("state", exec_digest),
                            *[r.encoding() for r in ordered]]))

    # ----------------------------------------------------------- checkpoints

    def _emit_checkpoint(self, seq: int) -> List[tuple]:
        sdig = self._state_digest_from(self.exec_digest,
                                       self.last_reply.values())
        digest = m.checkpoint_digest(seq, sdig)
        # a checkpoint's seq is unique and increasing: its context's view
        cert = self._cert("checkpoint", seq, 1, digest, at=seq).cert
        ck = _preset(m.Checkpoint(seq, sdig, self.id, cert), ckdigest=digest)
        out: List[tuple] = [("send", dst, ck) for dst in self.peer_dsts]
        out += self._credit_checkpoint(ck)
        return out

    def on_checkpoint(self, ck: m.Checkpoint) -> List[tuple]:
        why = self._check_cert(ck.cert, ck.sender, ck.ckdigest())
        if why is not None:
            return self._drop(why, ck.seq)
        # a checkpoint at seq proves the sender executed, hence committed, seq
        self.peer_floor[ck.sender] = max(self.peer_floor.get(ck.sender, 0),
                                         ck.seq)
        out = self._credit_checkpoint(ck)
        if self.exec_cursor < ck.seq <= self.stable_seq:
            out += self._maybe_fetch_state()
        return out

    def _credit_checkpoint(self, ck: m.Checkpoint) -> List[tuple]:
        if ck.seq < self.stable_seq:   # its claims are pruned (_adopt_stable)
            return []
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
                out += self._drain_proposals()
        return out

    def _adopt_stable(self, seq: int, cert: Tuple[m.Checkpoint, ...]) -> None:
        if seq <= self.stable_seq:
            return
        self.stable_seq = seq
        self.stable_cert = cert
        # each log keeps its seqs from `first` on; a tracker's seq at or
        # below the window's floor gets none again (_pruned)
        floor = seq - self.window
        for log, first in ((self.prepared_log, floor),
                           (self.trackers, floor + 1),
                           (self.decision_seen, floor + 1),
                           (self.checkpoint_exec, seq)):
            for s in [s for s in log if s < first]:
                del log[s]
        for k in [k for k in self.checkpoint_claims if k[0] < seq]:
            del self.checkpoint_claims[k]

    def _maybe_fetch_state(self) -> List[tuple]:
        """Ask a holder of the stable checkpoint, which is past exec_cursor."""
        holders = self.checkpoint_claims.get(
            (self.stable_seq, self.stable_cert[0].state_digest), {})
        return [("send", ("replica", self._source(holders)),
                 m.FetchState(self.stable_seq, self.id))]

    # ----------------------------------------------------------- view change

    def _start_view_change(self, target: int, reason: str) -> List[tuple]:
        if self.max_view is not None and target > self.max_view:
            return [("note", {"ev": "vc_capped", "target": target})]
        if target <= self.voted_view:
            return []
        self.voted_view = target
        # entries at or below the stable seq go without their prepares
        timeline = tuple(e if e.prepare is None or e.seq > self.stable_seq
                         else e.bare() for e in self.timeline)
        core = m.view_change_core_digest(target, self.id, self.stable_seq,
                                         timeline)
        att = self.tc.attest_state(core)
        vdigest = m.view_change_digest(core, att)
        cert = self._cert("viewchange", target, 1, vdigest, at=target).cert
        vc = _preset(m.ViewChange(target, self.id, self.stable_seq,
                                  self.stable_cert, timeline, att, cert),
                     core_digest=core, vdigest=vdigest)
        out: List[tuple] = [("note", {"ev": "viewchange", "target": target,
                                      "reason": reason})]
        new_leader = leader_of(target, self.n)
        if new_leader == self.id:
            out += self.on_view_change(vc)
        else:
            out.append(("send", ("replica", new_leader), vc))
        out.append(("timer", "vcretry", target, self.cfg.viewchange_timeout_ns))
        return out

    def on_timer_suspect(self, armed: tuple) -> List[tuple]:
        """`armed` is (view, progress mark taken when the timer was armed)."""
        view, mark = armed
        if self.view != view or self.voted_view > view:
            return []
        if not self.pending:
            return []
        if mark is not None and self.exec_cursor != mark:
            # the backlog moved during the period; grant another one
            self.suspect_armed[view] = self.exec_cursor
            return [("timer", "suspect", view, self.cfg.suspicion_timeout_ns)]
        return self._start_view_change(view + 1, reason="timeout")

    def on_timer_vcretry(self, target: int) -> List[tuple]:
        if self.view >= target or self.voted_view > target:
            return []
        return self._start_view_change(target + 1, reason="escalate")

    def on_view_change(self, vc: m.ViewChange) -> List[tuple]:
        if leader_of(vc.new_view, self.n) != self.id or vc.new_view <= self.view:
            return []
        try:
            rule = self._validate_view_change(vc)
        except (TypeError, OverflowError):
            # a field _enc cannot encode; validation changes no state
            return self._drop("malformed", vc.new_view)
        if rule is not None:
            return self._drop("viewchange", vc.new_view, rule=rule)
        votes = self.vc_votes.setdefault(vc.new_view, {})
        votes[vc.sender] = vc
        out: List[tuple] = []
        if len(votes) >= self.cfg.f + 1 and self.view < vc.new_view:
            if self.id not in votes:
                out += self._start_view_change(vc.new_view, reason="join")
                votes = self.vc_votes.get(vc.new_view, {})
                if self.id not in votes:
                    return out
            # joining casts our own vote through this same handler, which can
            # complete the quorum and install the view before we get back here
            if self.view < vc.new_view:
                out += self._emit_new_view(vc.new_view, votes)
        return out

    def _validate_view_change(self, vc: m.ViewChange) -> Optional[str]:
        """None if `vc` is a valid vote, else the name of the rule it fails.
        A vote is its sender's certified log. Completeness: in timeline order
        each certificate moves its stream one step on (_step), each stream
        ends at its attested position and the vote's own certificate is one
        step past it on its stream. The entry rule: each prepare or commit entry above the
        stable seq carries a prepare at its seq, whose digest (or the
        sender's commit digest of it) is the entry's, and which passes
        _check_prepare."""
        att = vc.attestation
        if self._check_cert(vc.cert, vc.sender, vc.vdigest()) is not None:
            return "vote_cert"
        if (self._check_cert(att, vc.sender, None) is not None
                or att.nonce != vc.core_digest()):
            return "attestation_nonce"
        if vc.stable_seq > 0:
            why = self._check_stable_cert(vc.stable_cert, vc.stable_seq)
            if why is not None:
                return why
        attested = {("counter", c): v for c, v in att.counters if v}
        attested.update((("phase", p), (v, s)) for p, v, s in att.phases)
        # the vote takes the stream of the sender's view-change statements one
        # step past the snapshot: nothing was certified there in between
        stream, pos = _step(vc.cert, attested)
        if pos is None or stream not in (
                ("counter", derive_counter_id(vc.sender, MSG_COUNTER)),
                ("phase", "viewchange")):
            return "vote_counter"
        at: Dict[tuple, object] = {}
        for e in vc.timeline:
            cert = e.cert
            skip = isinstance(cert, (SkipCertificate, PhaseSkipCertificate))
            if self._check_cert(cert, vc.sender,
                                None if skip else e.digest) is not None:
                return "timeline_cert"
            stream, pos = _step(cert, at)
            if pos is None:
                return "timeline_gap"
            at[stream] = pos
            if e.kind in _CARRIERS and e.seq > vc.stable_seq:
                p = e.prepare
                if p is None or p.seq != e.seq or e.digest != (
                        p.pdigest() if e.kind == "prepare" else
                        e.carried_commit(vc.sender)):
                    return "entry_prepare"
                why = self._check_prepare(p.view, p.seq, p.pdigest(), p.cert)
                if why is not None:
                    return why
        if at != attested:
            return "timeline_gap"
        return None

    def _check_stable_cert(self, cert: Tuple[m.Checkpoint, ...],
                           seq: int) -> Optional[str]:
        if len({c.sender for c in cert}) < self.cfg.f + 1:
            return "stable_cert_quorum"
        if len({c.state_digest for c in cert}) != 1:
            return "stable_cert_digest"
        for c in cert:
            if c.seq != seq:
                return "stable_cert_seq"
            if self._check_cert(c.cert, c.sender, c.ckdigest()) is not None:
                return "stable_cert_cert"
        return None

    def _union(self, votes: Dict[int, m.ViewChange]):
        base = max(vc.stable_seq for vc in votes.values())
        stable = next((vc.stable_cert for vc in votes.values()
                       if vc.stable_seq == base), ())
        # the highest view's prepare per seq, from the entries it checked
        chosen: Dict[int, m.Prepare] = {}
        for vc in votes.values():
            for e in vc.timeline:
                if e.kind in _CARRIERS and e.seq > base:
                    cur = chosen.get(e.seq)
                    if cur is None or e.prepare.view > cur.view:
                        chosen[e.seq] = e.prepare
        return base, stable, [chosen[s] for s in sorted(chosen)]

    def _emit_new_view(self, view: int,
                       votes: Dict[int, m.ViewChange]) -> List[tuple]:
        base, stable, reprops = self._union(votes)
        skip = self._skip("prepare", view, base) if base >= 1 else None
        new_preps = [self._cert("prepare", view, old.seq, old.requests).prepare
                     for old in reprops]
        vcs = tuple(votes[s] for s in sorted(votes))
        ndigest = m.new_view_digest(view, self.id, base, vcs, new_preps)
        cert = self._cert("newview", view, 1, ndigest, at=view).cert
        nv = _preset(m.NewView(view, self.id, vcs, base, stable, skip,
                               tuple(new_preps), cert), ndigest=ndigest)
        out: List[tuple] = [("send", dst, nv) for dst in self.peer_dsts]
        out.append(("note", {"ev": "newview", "view": view, "base": base,
                             "reproposed": [p.seq for p in new_preps]}))
        out += self._adopt_new_view(nv, as_leader=True)
        return out

    def on_new_view(self, nv: m.NewView) -> List[tuple]:
        if nv.view <= self.view or nv.sender != leader_of(nv.view, self.n):
            return []
        try:
            rule = self._validate_new_view(nv)
        except (TypeError, OverflowError):   # see on_view_change
            return self._drop("malformed", nv.view)
        if rule is not None:
            return self._drop("newview", nv.view, rule=rule)
        return self._adopt_new_view(nv, as_leader=False)

    def _validate_new_view(self, nv: m.NewView) -> Optional[str]:
        """None if `nv` is a valid NewView, else the name of the rule it fails."""
        if self._check_cert(nv.cert, nv.sender, nv.ndigest()) is not None:
            return "new_view_cert"
        if len({vc.sender for vc in nv.viewchanges}) < self.cfg.f + 1:
            return "vote_quorum"
        votes = {}
        for vc in nv.viewchanges:
            if vc.new_view != nv.view or self._validate_view_change(vc) is not None:
                return "vote"
            votes[vc.sender] = vc
        base, _, reprops = self._union(votes)
        if base != nv.base:
            return "base"
        want = {p.seq: p.bdigest() for p in reprops}
        got = {p.seq: p.bdigest() for p in nv.prepares}
        if want != got:
            return "reproposals"
        for seq, dig in got.items():
            t = self.trackers.get(seq)
            if seq > base and t is not None and t.committed not in (None, dig):
                return "reproposal_over_a_commit"
        for p in nv.prepares:
            if p.view != nv.view:
                return "reproposal_view"
            why = self._check_prepare(p.view, p.seq, p.pdigest(), p.cert)
            if why is not None:
                return why
        if nv.base >= 1 and self.cfg.mode != "prevention":
            sk = nv.skip_cert
            if self._check_cert(sk, nv.sender, None) is not None:
                return "skip_cert"
            if (sk.counter, sk.first, sk.last) != (
                    self._proposal_stream(nv.view), 1, nv.base):
                return "skip_range"
        return None

    def _adopt_new_view(self, nv: m.NewView, as_leader: bool) -> List[tuple]:
        self.view = nv.view
        self.voted_view = max(self.voted_view, nv.view)
        self.admission_base = nv.base
        self.cursors = {}
        self.buffered = {}
        self.bound = {}
        self.deferred_commits = set()
        self.suspect_armed.pop(nv.view, None)
        out: List[tuple] = [("note", {"ev": "adopt_view", "view": nv.view,
                                      "base": nv.base})]
        if nv.base > self.stable_seq and nv.stable_cert:
            if self._check_stable_cert(nv.stable_cert, nv.base) is None:
                self._adopt_stable(nv.base, nv.stable_cert)
        if self.exec_cursor < self.stable_seq:
            out += self._maybe_fetch_state()
        if as_leader:
            top = nv.base
            for p in nv.prepares:
                out.append(self._bind(p))
                out += self._credit(p.seq, nv.view, p.bdigest(), self.id,
                                    "prepare", p.cert)
                out += self._echo(p)
                top = max(top, p.seq)
            self.cursors[(self.id, self._proposal_stream(nv.view))] = top
            self.next_seq = top + 1
            self.inflight = {s for s in self.inflight if s > top}
            self.batchq = [r for k, r in sorted(self.pending.items())
                           if k not in self.bound]
            out += self._seal_batches()
        else:
            for p in nv.prepares:
                out += self.on_prepare(p)
            if self.pending:
                out += self._arm_suspicion()
        for prep in self.future_prepares.pop(nv.view, []):
            out += self.on_prepare(prep)
        for com in self.future_commits.pop(nv.view, []):
            out += self.on_commit(com)
        return out

    # -------------------------------------------------------------- dispatch

    def handle(self, msg, now: int) -> List[tuple]:
        """Route one received message to its handler. With `on_timer`, this
        is the host's only entry point: a component crashes only between
        steps, and a crashed one leaves the replica deaf until it is restored
        or restarted. The replica never reads `now`."""
        try:
            name = _HANDLERS[type(msg)]
        except KeyError:
            raise TypeError(f"no handler for {type(msg).__name__}") from None
        if self.tc.is_crashed():
            return []
        return getattr(self, name)(msg)

    def on_timer(self, kind: str, key, now: int) -> List[tuple]:
        """Fire one timer this replica armed; see `handle`."""
        name = _TIMERS[kind]
        # these marks say a timer is pending; clear them even while the
        # component is down, or the timer could never be armed again
        if kind == "batch":
            self.batch_timer_armed = False
        elif kind == "suspect":
            key = (key, self.suspect_armed.pop(key, None))
        if self.tc.is_crashed():
            return []
        return getattr(self, name)(key)

    def on_timer_batch(self, view: int) -> List[tuple]:
        if view != self.view or not self.is_leader():
            return []
        if self.batchq and not self.queued_batches:
            self.queued_batches.append(tuple(self.batchq))
            self.batchq = []
        return self._seal_batches()

    # ----------------------------------------------------------------- drops

    def _drop(self, why: str, seq: int, **detail) -> List[tuple]:
        """Count a drop and note it, with the `rule` a vote or NewView failed."""
        stat = "stale_epoch_drops" if why == "stale_epoch" else "invalid_drops"
        self.stats[stat] += 1
        return [("note", {"ev": "drop", "why": why, "seq": seq, **detail})]

    # ------------------------------------------------------------- inspection

    def clone(self) -> "Replica":
        """Independent fork of this replica, for state-space exploration:
        every attribute but the configuration is copied by _copy, so handling
        a message on the fork never changes this replica. A subclass keeps
        its type, and the attributes it adds are state like any other."""
        child = type(self).__new__(type(self))
        child.__dict__ = {name: value if name in _CONFIG else _copy(value)
                          for name, value in self.__dict__.items()}
        return child

    def state_key(self) -> tuple:
        """The _key of every attribute not in _NOT_STATE, for model checking,
        in attribute order (which __init__ fixes and clone keeps)."""
        return tuple(_key(value) for name, value in self.__dict__.items()
                     if name not in _NOT_STATE)

    def settle(self, src: "Replica", src_key: tuple) -> tuple:
        """This replica's state_key(), after a step taken by a clone of
        `src`, whose key is `src_key`: each container the step left equal
        to `src`'s is pointed at `src`'s, so a host that keeps both holds
        one copy, and each attribute that is then `src`'s object takes its
        entry from `src_key`, so only what the step changed is keyed. If the
        attribute names or their order differ from `src`'s, nothing is
        shared and the key is computed in full.

        Sound only while neither replica is ever changed in place again, as
        in the model checker, which steps clones only: a change to either
        would show in the other, under a stale key entry.
        """
        mine, theirs = self.__dict__, src.__dict__
        if list(mine) != list(theirs):
            return self.state_key()
        old, key = iter(src_key), []
        for name, value in mine.items():
            if name in _CONFIG:
                continue
            same = value is theirs[name]
            if not same and type(value) in _COPY and value == theirs[name]:
                mine[name], same = theirs[name], True
            if name not in _NOT_STATE:
                entry = next(old)
                key.append(entry if same else _key(value))
        return tuple(key)
