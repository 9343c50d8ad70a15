"""Message digests, their memos, and wire sizes.

Frozen messages and certificates compute each canonical encoding once and
keep it on the instance. These tests pin that a memo always equals a fresh
computation from the fields, never survives dataclasses.replace, and leaves
equality and hashing to the fields. The wire-size table is checked against
the isinstance chain it replaced.
"""

from __future__ import annotations

import dataclasses
import hashlib
import hmac
import inspect
import pickle

import pytest

from hybft import messages as m
from hybft import resource_model as rm
from hybft import tc as tc_module
from hybft.cli import _exact_cell
from hybft.config import SimConfig
from hybft.encoding import _enc, _keyed
from hybft.protocol import Replica, _Tracker
from hybft.sim import Simulator, safety_violations
from hybft.tc import (
    ContextCertificate,
    PhaseSkipCertificate,
    SkipCertificate,
    StateAttestation,
    UniqueIdentifier,
    hmac_tag,
)

from conftest import assert_memo_slots, make_hmac_tc
from test_protocol import (CLIENT_KEY, Cluster, _vote_setup, authed,
                           broadcast_request)


def _h(tag: bytes) -> bytes:
    return hashlib.sha256(tag).digest()


def fresh(obj):
    """An equal copy of a message or certificate that carries no memo,
    at any depth."""
    if isinstance(obj, tuple):
        return tuple(fresh(x) for x in obj)
    if dataclasses.is_dataclass(obj) and not isinstance(obj, type):
        return type(obj)(*(fresh(getattr(obj, f.name))
                           for f in dataclasses.fields(obj)))
    return obj


def _memos(obj) -> set:
    return {k for k in vars(obj) if k.startswith("_")}


# ------------------------------------------------------------ certificates


def _one_of_each_certificate():
    det = make_hmac_tc(0)
    ctx = make_hmac_tc(1)
    return [
        det.create_ui(_h(b"a")),
        det.skip_values("msg", 3),
        det.attest_state(b"nonce"),
        ctx.certify_context("prepare", 0, 1, _h(b"b")),
        ctx.skip_contexts("prepare", 2, 4),
    ]


def _payload_from_fields(cert) -> bytes:
    if isinstance(cert, UniqueIdentifier):
        return _enc("ui", cert.replica_id, cert.epoch, cert.counter,
                    cert.value, cert.msg_hash)
    if isinstance(cert, SkipCertificate):
        return _enc("skip", cert.replica_id, cert.epoch, cert.counter,
                    cert.first, cert.last)
    if isinstance(cert, ContextCertificate):
        return _enc("ctx", cert.replica_id, cert.epoch, cert.phase,
                    cert.view, cert.seq, cert.msg_hash)
    if isinstance(cert, PhaseSkipCertificate):
        return _enc("pskip", cert.replica_id, cert.epoch, cert.phase,
                    cert.from_view, cert.from_seq, cert.to_view, cert.to_seq)
    assert isinstance(cert, StateAttestation)
    flat = ["att", cert.replica_id, cert.epoch, cert.nonce, len(cert.counters)]
    for name, value in cert.counters:
        flat += [name, value]
    flat.append(len(cert.phases))
    for phase, view, seq in cert.phases:
        flat += [phase, view, seq]
    return _enc(*flat)


def test_each_certificate_type_is_issued_with_its_payload_memoized():
    certs = _one_of_each_certificate()
    assert [type(c) for c in certs] == [
        UniqueIdentifier, SkipCertificate, StateAttestation,
        ContextCertificate, PhaseSkipCertificate]
    for cert in certs:
        assert _memos(cert) == {"_payload"}
        assert cert.payload() == _payload_from_fields(cert)
        assert fresh(cert).payload() == cert.payload()


def test_a_memo_never_survives_replace():
    c = Cluster()
    rep = c.replicas[1]
    tc0 = c.tcs[0]
    digest, other = _h(b"x"), _h(b"y")
    ui = tc0.create_ui(digest)
    assert rep._check_cert(ui, 0, digest) is None
    forged = dataclasses.replace(ui, msg_hash=other)
    assert "_payload" not in vars(forged)
    assert forged.payload() == _payload_from_fields(forged) != ui.payload()
    assert rep._check_cert(forged, 0, other) == "invalid_cert"


def test_a_memo_never_survives_replace_in_prevention_mode():
    c = Cluster(mode="prevention")
    rep = c.replicas[1]
    digest, other = _h(b"x"), _h(b"y")
    cert = c.tcs[0].certify_context("prepare", 0, 1, digest)
    assert rep._check_cert(cert, 0, digest) is None
    forged = dataclasses.replace(cert, msg_hash=other)
    assert rep._check_cert(forged, 0, other) == "invalid_cert"


# ---------------------------------------------------------------- messages


def _messages_of_a_view_change():
    """Every message of one committed request, and of a view change that a
    second request, kept from the leader, brings about; then the replies."""
    c = Cluster(checkpoint_interval=1)
    seen = []

    def pump():
        while c.queue:
            dst, msg = c.queue.pop(0)
            seen.append(msg)
            c.inject(dst, msg)

    for rid in range(c.cfg.n):
        c.request(rid, authed(1))
    pump()
    for rid in (1, 2):
        c.request(rid, authed(2))
    for rid in (2, 1):
        # the first expiry sees progress since arming and grants a period
        c.fire(rid, "suspect", 0).fire(rid, "suspect", 0)
        pump()
    assert c.replicas[2].view == 1
    return seen + [msg for _, _, msg in c.client_box]


def _first_point(prep):
    """The chain point a memo table entry executes `prep` at: after the
    genesis digest, with no reply to any of its clients yet."""
    return (_h(b"genesis"), prep.seq, (None,) * len(prep.requests))


def _batch_from_fields(prep, at):
    """Prepare.execute's value at `at`, by the per-request rule, with each
    request's execution from the fields."""
    prev, seq, priors = at
    last = dict(zip([r.client_id for r in prep.requests], priors))
    replies, keys, sends = {}, [], []
    for r in prep.requests:
        if last[r.client_id] is not None and (
                last[r.client_id].client_seq >= r.client_seq):
            continue
        prev, rep = _execution_from_fields(r, prev, seq)
        last[r.client_id] = replies[r.client_id] = rep
        keys.append((r.client_id, r.client_seq))
        sends.append(("send", ("client", r.client_id), rep))
    return prev, tuple(replies.items()), tuple(keys), tuple(sends)


# A keyed memo (encoding._keyed) and the key its table entry computes it at.
_KEY_OF = {(m.Prepare, "execute"): _first_point}


def _memo(msg, name: str):
    """msg's memoized `name`, at the key _KEY_OF gives if it is keyed."""
    at = _KEY_OF.get((type(msg), name))
    return getattr(msg, name)() if at is None else getattr(msg, name)(at(msg))


# memoized method -> its value computed from the fields
_DIGESTS = {
    m.Request: {"digest": lambda r: _h(_enc("req", r.client_id, r.client_seq,
                                            r.payload)),
                "key": lambda r: (r.client_id, r.client_seq)},
    m.Prepare: {"bdigest": lambda p: m.batch_digest(p.requests),
                "pdigest": lambda p: m.prepare_digest(
                    p.view, p.seq, m.batch_digest(p.requests)),
                "keys": lambda p: tuple((r.client_id, r.client_seq)
                                        for r in p.requests),
                "clients": lambda p: tuple(r.client_id for r in p.requests),
                "execute": lambda p: _batch_from_fields(p, _first_point(p))},
    m.Commit: {"cdigest": lambda c: m.commit_digest(c.view, c.seq, c.sender,
                                                    c.bdigest),
               "pdigest": lambda c: m.prepare_digest(c.view, c.seq,
                                                     c.bdigest)},
    m.Reply: {"encoding": lambda r: _enc(r.client_id, r.client_seq,
                                         r.result)},
    m.Checkpoint: {"ckdigest": lambda k: m.checkpoint_digest(k.seq,
                                                             k.state_digest)},
    m.TimelineEntry: {"encoding": lambda e: _enc(e.kind, e.seq, e.digest),
                      "bare": lambda e: m.TimelineEntry(e.kind, e.seq,
                                                        e.digest, e.cert)},
    m.ViewChange: {
        "core_digest": lambda v: m.view_change_core_digest(
            v.new_view, v.sender, v.stable_seq, fresh(v.timeline)),
        "vdigest": lambda v: m.view_change_digest(
            fresh(v).core_digest(), v.attestation),
    },
    m.NewView: {"ndigest": lambda n: m.new_view_digest(
        n.view, n.sender, n.base, fresh(n.viewchanges), fresh(n.prepares))},
}


def test_each_memoized_digest_equals_a_fresh_computation():
    msgs = _messages_of_a_view_change()
    vcs = [x for x in msgs if isinstance(x, m.ViewChange)]
    msgs += [e for vc in vcs for e in vc.timeline]
    msgs += [p.requests[0] for p in msgs if isinstance(p, m.Prepare)]
    found = {type(x) for x in msgs}
    assert set(_DIGESTS) <= found
    for msg in msgs:
        for name, from_fields in _DIGESTS.get(type(msg), {}).items():
            memo = _memo(msg, name)
            assert "_" + name in vars(msg)
            assert memo == from_fields(msg), (type(msg).__name__, name)
            assert _memo(fresh(msg), name) == memo


def test_a_memoized_message_equals_and_hashes_like_a_fresh_one():
    msgs = _messages_of_a_view_change()
    msgs += [e for vc in msgs if isinstance(vc, m.ViewChange)
             for e in vc.timeline]
    for msg in msgs:
        names = _DIGESTS.get(type(msg), {})
        for name in names:
            _memo(msg, name)
        assert_memo_slots(msg, [getattr(type(msg), name) for name in names])
        twin = fresh(msg)
        assert twin is not msg and not _memos(twin)
        assert twin == msg and hash(twin) == hash(msg)


def test_memoized_methods_stay_plain_functions_on_the_class():
    for cls, names in _DIGESTS.items():
        for name in names:
            assert inspect.isfunction(cls.__dict__[name])


# --------------------------------------------------------- frozen records


def _one_of_each_record():
    """One message, timeline entry and certificate of each frozen type, with
    every memo its instance methods keep, a prepare's execution at one
    chain point, and its tags under two keys."""
    ui, skip, att, ctx, pskip = _one_of_each_certificate()
    req = m.tagged_request(CLIENT_KEY, 0, 1, b"op")
    prep = m.Prepare(0, 1, (req,), ui)
    rep = m.Reply(0, 1, 1, b"result")
    ck = m.Checkpoint(1, _h(b"state"), 1, ctx)
    entry = m.TimelineEntry("prepare", 1, prep.pdigest(), ui, prep)
    vc = m.ViewChange(1, 1, 0, (), (entry,), att, ui)
    records = [
        req, prep, rep, ck, entry, vc,
        m.Commit(0, 1, 1, prep.bdigest(), ui),
        m.Decision(0, 1, 1, prep.bdigest(), ((1, "commit", ui),)),
        m.NewView(1, 1, (vc,), 0, (), skip, (prep,), ui),
        m.FetchBatch(1, 1), m.BatchResponse(prep, 1), m.FetchState(1, 1),
        m.StateResponse(1, _h(b"exec"), (rep,), (ck,), 1),
        ui, skip, att, ctx, pskip,
    ]
    for record in records:
        for name in _memoized(type(record)):
            getattr(record, name)()
    prep.execute(_first_point(prep))
    for cert in (ui, skip, att, ctx, pskip):
        hmac_tag(cert, b"k" * 32)
    return records


def _memoized(cls) -> list:
    """The names of cls's methods that keep a memo of the instance alone."""
    return [name for name, method in vars(cls).items()
            if not name.startswith("__") and hasattr(method, "__wrapped__")
            and len(inspect.signature(method).parameters) == 1]


def _frozen_types(module) -> set:
    return {cls for cls in vars(module).values() if isinstance(cls, type)
            and dataclasses.is_dataclass(cls)
            and cls.__dataclass_params__.frozen}


def test_every_frozen_record_type_is_sampled():
    assert {type(r) for r in _one_of_each_record()} == (
        _frozen_types(m) | _frozen_types(tc_module))


def test_a_frozen_record_refuses_assignment():
    for record in _one_of_each_record():
        for name in [f.name for f in dataclasses.fields(record)] + ["extra"]:
            with pytest.raises(dataclasses.FrozenInstanceError):
                setattr(record, name, 1)
            with pytest.raises(dataclasses.FrozenInstanceError):
                delattr(record, name)


def test_memos_stay_out_of_equality_and_hashing():
    for record in _one_of_each_record():
        twin = fresh(record)
        assert bool(_memos(record)) == bool(_memoized(type(record)))
        assert not _memos(twin)
        assert twin == record and hash(twin) == hash(record)


def test_replace_and_pickle_give_back_equal_fields():
    for record in _one_of_each_record():
        fields = dataclasses.astuple(record)
        for copy in (dataclasses.replace(record),
                     pickle.loads(pickle.dumps(record))):
            assert type(copy) is type(record)
            assert dataclasses.astuple(copy) == fields
            assert copy == record and hash(copy) == hash(record)
            with pytest.raises(dataclasses.FrozenInstanceError):
                setattr(copy, dataclasses.fields(record)[0].name, 1)


# --------------------------------------------------------------- execution


def _execution_from_fields(req, prev, seq):
    """(execution digest, Reply) of req executed at (prev, seq), with the
    Reply built from the fields."""
    req_digest = _h(_enc("req", req.client_id, req.client_seq, req.payload))
    applied = _h(_enc("apply", prev, seq, req_digest))
    result = _h(_enc("result", applied, req_digest))
    return applied, m.Reply(req.client_id, req.client_seq, seq, result)


def test_an_execution_memo_hit_equals_the_digests_from_the_fields():
    req, prev = authed(1), _h(b"prev")
    first = req.execute((prev, 3))
    assert "_execute" in vars(req)
    hit = req.execute((prev, 3))
    assert hit is first and hit[1] is first[1]
    assert first == _execution_from_fields(req, prev, 3)
    assert fresh(req).execute((prev, 3)) == first
    # the memo is outside the fields
    assert fresh(req) == req and hash(fresh(req)) == hash(req)


def test_another_chain_or_seq_misses_the_execution_memo():
    req, prev, other = authed(1), _h(b"prev"), _h(b"other")
    ours = req.execute((prev, 3))
    for p, seq in ((other, 3), (prev, 4), (prev, 3)):
        got = req.execute((p, seq))
        assert got == _execution_from_fields(req, p, seq)
        assert (got == ours) == ((p, seq) == (prev, 3))
        # the memo keeps the last point only: each miss builds its own Reply
        assert got[1] is not ours[1]


def _execute_on_two_chains(diverged: int):
    """The cluster and the Reply each replica sent, by replica, once every
    replica executed one request, replica `diverged` from another execution
    digest."""
    c = Cluster()
    c.replicas[diverged].exec_digest = _h(b"corrupted")
    starts = [r.exec_digest for r in c.replicas]
    req = broadcast_request(c, 1)
    c.pump()
    replies = {rid: msg for _, rid, msg in c.client_box
               if isinstance(msg, m.Reply)}
    for r in c.replicas:
        applied, reply = _execution_from_fields(req, starts[r.id], 1)
        assert r.exec_digest == applied and replies[r.id] == reply
        assert r.last_reply[req.client_id] is replies[r.id]
    return c, replies


def test_replicas_on_different_chains_execute_one_request_differently():
    c, replies = _execute_on_two_chains(2)
    results = {rid: rep.result for rid, rep in replies.items()}
    assert results[0] == results[1] != results[2]
    assert safety_violations(c.ledger, set()) == [
        {"kind": "divergent_execution", "seq": 1, "replicas": [0, 2]},
        {"kind": "divergent_execution", "seq": 1, "replicas": [1, 2]},
    ]
    # replicas 1 and 2 execute in turn, before the leader: with the leader
    # diverged they send the one Reply, and the leader its own
    c, replies = _execute_on_two_chains(0)
    assert replies[1] is replies[2]
    assert replies[0] is not replies[1]
    assert replies[0].result != replies[1].result
    assert safety_violations(c.ledger, set()) == [
        {"kind": "divergent_execution", "seq": 1, "replicas": [0, 1]},
        {"kind": "divergent_execution", "seq": 1, "replicas": [0, 2]},
    ]


# ----------------------------------- a batch executes as its requests would


def _per_request_conflicts(self, prep):
    """Replica._conflicts's rule, one request at a time: the reference the
    batch path must equal, as are the two below."""
    for r in prep.requests:
        bound = self.bound.get(r.key())
        if bound is not None and bound != prep.seq:
            return r.key()
    return None


def _per_request_bind(self, prep, fresh=False):
    """Replica._bind's rule, one request at a time."""
    self.prepared_log[prep.seq] = prep
    for r in prep.requests:
        key = r.key()
        self.bound[key] = prep.seq
        if not (fresh or key in self.pending
                or self.has_executed(r.client_id, r.client_seq)):
            self.pending[key] = r
    return ("fact", "admit", (prep.view, prep.seq), prep.bdigest())


def _per_request_execute(self):
    """Replica._execute's rule, one request at a time."""
    out = []
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
            rep = self.last_reply.get(r.client_id)   # has_executed
            if rep is not None and rep.client_seq >= r.client_seq:
                continue
            self.exec_digest, rep = r.execute((self.exec_digest, nxt))
            self.last_reply[r.client_id] = rep
            self.pending.pop(r.key(), None)
            out.append(("send", ("client", r.client_id), rep))
        out.append(("fact", "execute", nxt, self.exec_digest))
        out.append(("note", {"ev": "execute", "seq": nxt}))
        if nxt % self.checkpoint_interval == 0:
            self.checkpoint_exec[nxt] = self.exec_digest
            out += self._emit_checkpoint(nxt)
    return out


_BATCH_PATH = (Replica._conflicts, Replica._bind, Replica._execute)
_PER_REQUEST = (_per_request_conflicts, _per_request_bind,
                _per_request_execute)


def _admit_commit_execute(rep, prep, path):
    """The conflict `rep` finds in `prep`, then the effects of binding it,
    committing it and executing what that makes ready, by `path`."""
    conflicts, bind, execute = path
    conflict = conflicts(rep, prep)
    out = [bind(rep, prep)]
    rep.trackers[prep.seq] = _Tracker(committed=prep.bdigest())
    return conflict, out + execute(rep)


def _assert_same_state(rep, ref):
    """The state the paths write, equal in value and in order."""
    assert (rep.exec_cursor, rep.exec_digest) == (ref.exec_cursor,
                                                  ref.exec_digest)
    for name in ("last_reply", "pending", "bound", "prepared_log"):
        assert list(getattr(rep, name).items()) == list(
            getattr(ref, name).items()), name


def _assert_paths_agree(rep, preps) -> list:
    """Each of `preps` in turn at `rep` by the batch path, and at a copy of
    `rep` by the per-request reference, agree in results and state; the
    replies `rep` sent."""
    ref, sent = rep.clone(), []
    for prep in preps:
        got = _admit_commit_execute(rep, prep, _BATCH_PATH)
        assert got == _admit_commit_execute(ref, prep, _PER_REQUEST)
        _assert_same_state(rep, ref)
        sent += [e[2] for e in got[1] if e[0] == "send"]
    return sent


def _req(client_id, client_seq):
    return m.Request(client_id, client_seq, b"op%d" % client_seq)


def test_a_batch_with_one_client_twice_executes_request_by_request():
    first = m.Prepare(0, 1, (_req(1, 1), _req(2, 1), _req(1, 2), _req(1, 2)),
                      None)
    # (1, 2) is bound at seq 1, a conflict; (2, 2) follows (2, 3)
    second = m.Prepare(0, 2, (_req(1, 2), _req(2, 3), _req(1, 3), _req(2, 2)),
                       None)
    rep = Cluster().replicas[1]
    sent = _assert_paths_agree(rep, [first, second])
    assert [(r.client_id, r.client_seq) for r in sent] == [
        (1, 1), (2, 1), (1, 2), (2, 3), (1, 3)]
    # (2, 2) was pending when bound and is skipped, so it stays pending
    assert list(rep.pending) == [(2, 2)] and rep.exec_cursor == 2


def test_requests_at_or_below_the_last_reply_are_skipped_as_one_by_one():
    rep = Cluster().replicas[1]
    rep.last_reply.update({1: m.Reply(1, 5, 0, _h(b"r1")),
                           2: m.Reply(2, 1, 0, _h(b"r2"))})
    rep.pending[(1, 6)] = _req(1, 6)
    prep = m.Prepare(0, 1, (_req(1, 4), _req(1, 5), _req(1, 6), _req(2, 1),
                            _req(3, 1), _req(2, 2)), None)
    sent = _assert_paths_agree(rep, [prep])
    assert [(r.client_id, r.client_seq) for r in sent] == [
        (1, 6), (3, 1), (2, 2)]
    assert rep.pending == {}


def _adopt_state(c, rid, exec_digest, replies):
    """Replica `rid` of `c` after it takes seq 1's state (exec_digest and
    replies) by state transfer, under checkpoints of replicas 0 and 2."""
    rep = c.replicas[rid]
    sdig = rep._state_digest_from(exec_digest, replies)
    cert = tuple(m.Checkpoint(1, sdig, i, c.tcs[i].create_ui(
        m.checkpoint_digest(1, sdig))) for i in (0, 2))
    rep.on_state_response(m.StateResponse(1, exec_digest, replies, cert, 0))
    assert (rep.exec_cursor, rep.exec_digest) == (1, exec_digest)
    return rep


def test_a_reply_left_by_state_transfer_executes_the_batch_as_its_own():
    # a state transfer keeps the last replies of clients its response leaves
    # out, so replica 1 keeps its reply to (3, 2), and two replicas at one
    # execution digest can skip differently: the one Prepare executes there
    # by each replica's own last replies
    c = Cluster()
    c.replicas[1].last_reply[3] = m.Reply(3, 2, 0, _h(b"before"))
    state, replies = _h(b"state at 1"), (m.Reply(4, 1, 1, _h(b"r4")),)
    kept, plain = (_adopt_state(c, rid, state, replies) for rid in (1, 2))
    assert kept.last_reply[3].client_seq == 2 and 3 not in plain.last_reply
    prep = m.Prepare(0, 2, (_req(3, 1), _req(3, 2), _req(3, 3), _req(4, 1),
                            _req(4, 2)), None)
    again = plain.clone()
    for rep in (plain, kept, again):
        sent = _assert_paths_agree(rep, [prep])
        assert len(sent) == (2 if rep is kept else 4)
    assert plain.exec_digest == again.exec_digest != kept.exec_digest
    assert [r.client_seq for r in plain.last_reply.values()] == [2, 3]
    assert [r.client_seq for r in kept.last_reply.values()] == [3, 2]


@pytest.mark.parametrize("diverged", [0, 2])
def test_a_batch_on_two_chains_executes_request_by_request(diverged,
                                                           monkeypatch):
    # _execute_on_two_chains with three requests in one batch, through the
    # cluster, by the batch path and then by the per-request reference
    runs = []
    for path in (_BATCH_PATH, _PER_REQUEST):
        for name, fn in zip(("_conflicts", "_bind", "_execute"), path):
            monkeypatch.setattr(Replica, name, fn)
        c = Cluster(batch_size=3)
        c.replicas[diverged].exec_digest = _h(b"corrupted")
        effects, absorb = [], c._absorb
        c._absorb = lambda rid, out: (effects.append((rid, list(out))),
                                      absorb(rid, out))
        for seq in (1, 2, 3):
            broadcast_request(c, seq)
        c.pump()
        runs.append((c, effects))
    (c, effects), (ref, ref_effects) = runs
    assert effects == ref_effects
    for rep, twin in zip(c.replicas, ref.replicas):
        _assert_same_state(rep, twin)
        assert rep.exec_cursor == 1 and rep.last_reply[0].client_seq == 3
    assert safety_violations(c.ledger, set()) == safety_violations(
        ref.ledger, set()) != []


# ---------------------------------------------------- receivers' digests


def _count_calls(monkeypatch, *names) -> list:
    """The arguments of every later call of the named digest functions of
    hybft.messages, which keep working."""
    calls = []
    for name in names:
        real = getattr(m, name)
        monkeypatch.setattr(
            m, name, lambda *args, real=real: calls.append(args) or real(*args))
    return calls


def test_the_receivers_of_a_decision_compute_its_proof_digests_once(
        monkeypatch):
    c = Cluster(f=2)
    broadcast_request(c, 1)
    c.pump(drop_to={3, 4})
    c.fire(1, "decision", 1)
    sent = {dst: msg for dst, msg in c.queue if isinstance(msg, m.Decision)}
    dec = sent[3]
    assert sent[4] is dec
    assert [kind for _, kind, _ in dec.proof] == ["prepare", "commit", "commit"]
    want = tuple(m.prepare_digest(dec.view, dec.seq, dec.bdigest)
                 if kind == "prepare" else
                 m.commit_digest(dec.view, dec.seq, sender, dec.bdigest)
                 for sender, kind, _ in dec.proof)
    assert fresh(dec).proof_digests() == want
    assert "_proof_digests" not in vars(dec)
    calls = _count_calls(monkeypatch, "prepare_digest", "commit_digest")
    for rid in (3, 4):
        verifies = c.replicas[rid].stats["verifies"]
        c.inject(rid, dec)
        # every certificate is still checked at every receipt
        assert c.replicas[rid].stats["verifies"] == verifies + len(dec.proof)
        assert (rid, {"ev": "commit", "seq": 1, "via": "decision"}) in c.notes
    assert len(calls) == len(dec.proof)
    assert dec.proof_digests() == want


def test_a_run_executes_each_batch_once_per_chain_point(monkeypatch):
    # in a fault-free run every replica executes each batch at one chain
    # point: the first computes its outcome, one Request.execute per
    # request, and the others take that outcome from the Prepare's memo
    computed, executed = [], []
    batch = m.Prepare.execute.__wrapped__

    def execute(prep, at):
        computed.append((prep, at[0], at[1]))
        return batch(prep, at)

    monkeypatch.setattr(m.Prepare, "execute", _keyed(execute))
    request = m.Request.execute
    monkeypatch.setattr(m.Request, "execute", lambda req, at: (
        executed.append(req.key()) or request(req, at)))
    cfg = _exact_cell(SimConfig(), f=2, batch=10)
    sim = Simulator(cfg)
    assert sim.run().verdict["all_clients_done"]
    requests = cfg.clients * cfg.requests_per_client
    batches = requests // cfg.batch_size
    assert [r.exec_cursor for r in sim.replicas] == [batches] * cfg.n
    points = {(id(prep), prev, seq) for prep, prev, seq in computed}
    assert len(computed) == len(points) == batches
    assert len(executed) == len(set(executed)) == requests


def test_a_vote_entry_computes_the_commit_of_its_prepare_once(monkeypatch):
    c, vote = _vote_setup()
    carried = [e for e in vote.timeline
               if e.kind == "commit" and e.seq > vote.stable_seq]
    assert carried and all(e.prepare is not None for e in carried)
    for e in carried:
        p = e.prepare
        assert e.digest == m.commit_digest(p.view, p.seq, vote.sender,
                                           p.bdigest())
    calls = _count_calls(monkeypatch, "commit_digest")
    # the new leader and a receiver of its NewView validate the one vote
    for rid in (1, 0, 1):
        assert c.replicas[rid]._validate_view_change(vote) is None
    assert len(calls) == len(carried)
    for e in carried:
        assert vars(e)["_carried_commit"] == (vote.sender, e.digest)
        # another sender misses the memo and gets its own digest
        p = e.prepare
        assert fresh(e).carried_commit(0) == e.carried_commit(0) == (
            m.commit_digest(p.view, p.seq, 0, p.bdigest())) != e.digest


# ----------------------------------------------------------- authenticators


def test_a_request_tag_is_memoized_per_key():
    req, key, other = m.Request(0, 1, b"op"), _h(b"k1"), _h(b"k2")
    tag = m.request_auth(req, key)
    assert "_request_auth" in vars(req)
    assert tag == hmac.new(key, req.digest(), "sha256").digest()
    assert tag == m.request_auth(fresh(req), key)
    assert m.request_auth(req, key) is tag
    # another key misses the memo and gets its own tag
    other_tag = m.request_auth(req, other)
    assert other_tag == hmac.new(other, req.digest(), "sha256").digest() != tag
    assert m.request_auth(req, key) == tag


def test_a_tagged_request_carries_memos_equal_to_fresh_ones(monkeypatch):
    key = _h(b"k1")
    req = m.tagged_request(key, 3, 7, b"op")
    twin = m.Request(3, 7, b"op")
    assert req == m.Request(3, 7, b"op", m.request_auth(twin, key))
    assert _memos(req) == {"_digest", "_request_auth"}
    assert req.digest() == twin.digest()
    monkeypatch.setattr(hmac, "digest", None)   # a hit computes nothing
    assert m.request_auth(req, key) == req.auth
    assert not _memos(dataclasses.replace(req))


def test_the_tag_memo_is_not_a_field():
    req = authed(1)
    m.request_auth(req, CLIENT_KEY)
    assert "_request_auth" in vars(req)
    assert "_request_auth" not in {f.name for f in dataclasses.fields(req)}
    req.key()
    req.execute((_h(b"prev"), 1))
    assert_memo_slots(req, [m.Request.digest, m.Request.key,
                            m.Request.execute, m.request_auth])
    twin = fresh(req)
    assert not _memos(twin) and twin == req and hash(twin) == hash(req)
    for twin in (dataclasses.replace(req), dataclasses.replace(req, auth=b"")):
        assert "_request_auth" not in vars(twin)
    assert dataclasses.replace(req) == req


def test_a_run_computes_each_request_tag_once(monkeypatch):
    # the client computes the tag, and the tagged request carries it to
    # every replica that checks it
    keys = []
    for name in ("new", "digest"):
        real = getattr(hmac, name)

        def counting(key, *args, real=real, **kw):
            keys.append(key)
            return real(key, *args, **kw)

        monkeypatch.setattr(hmac, name, counting)
    cfg = _exact_cell(SimConfig(), f=2, batch=10)
    sim = Simulator(cfg)
    res = sim.run()
    assert res.verdict["all_clients_done"]
    client_keys = set(sim.replicas[0].client_keys.values())
    tags = sum(key in client_keys for key in keys)
    requests = cfg.clients * cfg.requests_per_client
    assert tags == requests


# -------------------------------------------------------------- wire sizes


def _reference_wire_size(msg, sizes, f):
    """The isinstance chain that the type-keyed table replaced."""
    if isinstance(msg, m.Request):
        return rm.request_size(sizes)
    if isinstance(msg, m.Prepare):
        return rm.prepare_size(sizes, len(msg.requests))
    if isinstance(msg, m.Commit):
        return rm.commit_size(sizes)
    if isinstance(msg, m.Decision):
        return rm.decision_size(sizes, f, msg.threshold)
    if isinstance(msg, m.Reply):
        return rm.reply_size(sizes)
    if isinstance(msg, m.Checkpoint):
        return rm.checkpoint_size(sizes)
    if isinstance(msg, m.ViewChange):
        return (sizes.header_bytes + sizes.ui_bytes
                + len(msg.stable_cert) * rm.checkpoint_size(sizes)
                + sum(rm.prepare_size(sizes, len(e.prepare.requests))
                      for e in msg.timeline if e.prepare is not None)
                + len(msg.timeline) * (sizes.hash_bytes + sizes.ui_bytes)
                + sizes.ui_bytes)
    if isinstance(msg, m.NewView):
        return (sizes.header_bytes + 2 * sizes.ui_bytes
                + sum(_reference_wire_size(vc, sizes, f)
                      for vc in msg.viewchanges)
                + len(msg.stable_cert) * rm.checkpoint_size(sizes)
                + sum(rm.prepare_size(sizes, len(p.requests))
                      for p in msg.prepares))
    if isinstance(msg, (m.FetchBatch, m.FetchState)):
        return sizes.header_bytes
    if isinstance(msg, m.BatchResponse):
        return sizes.header_bytes + rm.prepare_size(sizes,
                                                    len(msg.prepare.requests))
    if isinstance(msg, m.StateResponse):
        return (sizes.header_bytes + sizes.hash_bytes
                + len(msg.last_replies) * rm.reply_size(sizes)
                + len(msg.stable_cert) * rm.checkpoint_size(sizes))
    raise TypeError(f"unsized message {type(msg).__name__}")


def _one_of_each_message():
    d = _h(b"d")
    reqs = tuple(authed(s) for s in (1, 2, 3))
    prep = m.Prepare(0, 1, reqs, None)
    prep1 = m.Prepare(0, 2, reqs[:1], None)
    ck = m.Checkpoint(4, d, 1, None)
    entry = m.TimelineEntry("checkpoint", 1, d, None)
    carriers = (m.TimelineEntry("prepare", 5, d, None, prep),
                m.TimelineEntry("commit", 6, d, None, prep1))
    vc = m.ViewChange(1, 2, 4, (ck, ck), (entry,) * 3 + carriers, None, None)
    reply = m.Reply(0, 1, 1, d)
    return [
        reqs[0], prep, m.Commit(0, 1, 2, d, None),
        m.Decision(0, 1, 0, d, ((1, "commit", None),)),
        m.Decision(0, 1, 0, d, ((1, "commit", None),), threshold=True),
        reply, ck, vc,
        m.NewView(1, 1, (vc, vc), 4, (ck,), None, (prep1,), None),
        m.FetchBatch(1, 2), m.BatchResponse(prep, 1), m.FetchState(4, 2),
        m.StateResponse(4, d, (reply, reply), (ck, ck, ck), 1),
    ]


@pytest.mark.parametrize("f", [1, 30])
def test_wire_size_table_matches_the_isinstance_chain(f):
    sizes = rm.SizeModel()
    msgs = _one_of_each_message()
    assert {type(x) for x in msgs} == set(m._SIZES)
    for msg in msgs:
        assert m.wire_size(msg, sizes, f) == _reference_wire_size(msg, sizes, f)
        if type(msg) in m.FIXED_SIZE:   # its size reads no field
            blank = type(msg)(*[None] * len(dataclasses.fields(msg)))
            assert m.wire_size(blank, sizes, f) == m.wire_size(msg, sizes, f)


def test_a_simulator_sizes_each_fixed_size_type_once(monkeypatch):
    sized = []
    real = m.wire_size

    def counting(msg, sizes, f):
        sized.append(type(msg))
        return real(msg, sizes, f)

    monkeypatch.setattr(m, "wire_size", counting)
    sim = Simulator(SimConfig(f=1, clients=2, requests_per_client=3,
                              checkpoint_interval=2, seed=8))
    res = sim.run()
    assert res.verdict["all_clients_done"]
    fixed = [cls for cls in sized if cls in m.FIXED_SIZE]
    assert {m.Request, m.Reply, m.Commit, m.Checkpoint} <= set(fixed)
    assert len(fixed) == len(set(fixed))
    for cls in set(fixed):
        mtype = cls.__name__.lower()
        assert res.bytes_by_type[mtype] == res.msgs_by_type[mtype] * real(
            cls(*[None] * len(dataclasses.fields(cls))), sim.cfg.sizes, 1)


def test_an_unsized_message_type_raises():
    with pytest.raises(TypeError, match="unsized message TimelineEntry"):
        m.wire_size(m.TimelineEntry("prepare", 1, b"", None), rm.SizeModel(), 1)


def test_msg_type_is_the_lowercase_class_name():
    for msg in _one_of_each_message():
        assert m.msg_type(msg) == type(msg).__name__.lower()
