"""Protocol message types, canonical digests, and wire-size accounting.

Digests are computed over canonical length-prefixed encodings so every replica
derives identical values; certificate verification recomputes them from fields
that travel with the message (a commit proof never needs the batch payload).
A message keeps its digests, a request its authenticator (request_auth; a
client tags with tagged_request) and its execution digest and Reply per
chain point (Request.execute), a prepare its request keys and clients and
its batch's outcome (Prepare.execute, keyed by the previous execution
digest, the seq and the executing replica's last replies to the batch's
clients), a Decision the digests its proof must cover and a timeline entry
the commit digest of its prepare, under the memo rules of hybft.encoding.
So the replicas that receive one message object compute each once between
them, every replica that executes a batch at one chain point takes the one
outcome, and every replica that executes a request there sends the one
Reply; a digest its sender computed to certify the message comes preset
(Replica._cert), and they compute none. A reply keeps its share of a
checkpoint's state digest (Reply.encoding), so a shared reply is encoded
once for every replica's checkpoints. Every type here is an
encoding._record.
Wire sizes come from the shared SizeModel so simulator byte tallies and the
analytic model cannot drift apart; a fixed-size type (FIXED_SIZE) may be
sized once and the size reused.
"""

from __future__ import annotations

import hmac
from typing import Optional, Sequence, Tuple

from .encoding import _enc, _h, _keyed, _once, _record
from . import resource_model as rm


@_record
class Request:
    client_id: int
    client_seq: int
    payload: bytes
    auth: bytes = b""

    @_once
    def digest(self) -> bytes:
        return _h(_enc("req", self.client_id, self.client_seq, self.payload))

    @_once
    def key(self) -> Tuple[int, int]:
        return (self.client_id, self.client_seq)

    @_keyed
    def execute(self, at: Tuple[bytes, int]) -> Tuple[bytes, "Reply"]:
        """(execution digest, Reply) of this request executed at (prev,
        seq), after execution digest prev. Every replica that executes it
        there gets the one Reply; a diverged chain gets its own."""
        prev, seq = at
        digest = self.digest()
        applied = _h(_enc("apply", prev, seq, digest))
        return applied, Reply(self.client_id, self.client_seq, seq,
                              _h(_enc("result", applied, digest)))


@_keyed
def request_auth(req: Request, key: bytes) -> bytes:
    """The client's authenticator: an HMAC under key over the request
    digest."""
    return hmac.digest(key, req.digest(), "sha256")


def tagged_request(key: bytes, client_id: int, client_seq: int,
                   payload: bytes) -> Request:
    """A client's request, tagged with request_auth under its key.

    The tag is computed on an untagged twin. digest() leaves out auth, so the
    twin's digest and tag memos hold for the tagged request too, and it
    carries them: a run computes each request's tag once.
    """
    twin = Request(client_id, client_seq, payload)
    req = Request(client_id, client_seq, payload, request_auth(twin, key))
    req.__dict__.update(_digest=twin.__dict__["_digest"],
                        _request_auth=twin.__dict__["_request_auth"])
    return req


def batch_digest(requests: Tuple[Request, ...]) -> bytes:
    return _h(_enc("batch", *[r.digest() for r in requests]))


def prepare_digest(view: int, seq: int, bdigest: bytes) -> bytes:
    return _h(_enc("prepare", view, seq, bdigest))


def commit_digest(view: int, seq: int, sender: int, bdigest: bytes) -> bytes:
    return _h(_enc("commit", view, seq, sender, bdigest))


def checkpoint_digest(seq: int, state_digest: bytes) -> bytes:
    return _h(_enc("checkpoint", seq, state_digest))


def view_change_core_digest(new_view: int, sender: int, stable_seq: int,
                            timeline: Sequence[TimelineEntry]) -> bytes:
    items = [_enc("vc", new_view, sender, stable_seq)]
    items += [e.encoding() for e in timeline]
    return _h(b"".join(items))


def view_change_digest(core_digest: bytes, attestation) -> bytes:
    return _h(core_digest + _enc("att", attestation.proof))


def new_view_digest(view: int, sender: int, base: int,
                    viewchanges: Sequence[ViewChange],
                    prepares: Sequence[Prepare]) -> bytes:
    items = [_enc("nv", view, sender, base)]
    items += [vc.vdigest() for vc in viewchanges]
    items += [p.pdigest() for p in prepares]
    return _h(b"".join(items))


@_record
class Prepare:
    view: int
    seq: int
    requests: Tuple[Request, ...]
    cert: object  # UniqueIdentifier or ContextCertificate from the leader's TC

    @_once
    def bdigest(self) -> bytes:
        """Derived, so a certificate over pdigest() binds the requests."""
        return batch_digest(self.requests)

    @_once
    def pdigest(self) -> bytes:
        return prepare_digest(self.view, self.seq, self.bdigest())

    @_once
    def keys(self) -> Tuple[Tuple[int, int], ...]:
        """Each request's key, in batch order."""
        return tuple([r.key() for r in self.requests])

    @_once
    def clients(self) -> Tuple[int, ...]:
        """Each request's client, in batch order."""
        return tuple([r.client_id for r in self.requests])

    @_keyed
    def execute(self, at: Tuple[bytes, int, tuple]) -> tuple:
        """(execution digest after, (client, Reply) pairs to record as last
        replies, keys of the executed requests, their reply sends) of this
        batch executed at at = (prev, seq, priors): after execution digest
        prev, at seq, by a replica whose last replies to clients() are priors
        (None for none). A request whose client's last reply is at or past
        it is skipped; each other executes in turn (Request.execute)."""
        prev, seq, priors = at
        last: dict = {}
        keys, sends = [], []
        for r, rep in zip(self.requests, priors):
            rep = last.get(r.client_id, rep)
            if rep is not None and rep.client_seq >= r.client_seq:
                continue
            prev, rep = r.execute((prev, seq))
            last[r.client_id] = rep
            keys.append(r.key())
            sends.append(("send", ("client", r.client_id), rep))
        return prev, tuple(last.items()), tuple(keys), tuple(sends)


@_record
class Commit:
    view: int
    seq: int
    sender: int
    bdigest: bytes
    cert: object
    echo: bool = False  # leader re-presenting its Prepare certificate

    @_once
    def cdigest(self) -> bytes:
        return commit_digest(self.view, self.seq, self.sender, self.bdigest)

    @_once
    def pdigest(self) -> bytes:
        """What an echo's certificate covers: its prepare's digest."""
        return prepare_digest(self.view, self.seq, self.bdigest)


@_record
class Decision:
    """Commit proof forwarded so lagging replicas can commit directly.

    proof holds f+1 (sender, kind, certificate) triples where kind says which
    canonical digest the certificate covers; with threshold stubs enabled the
    content is unchanged but the wire size is constant.
    """

    view: int
    seq: int
    sender: int
    bdigest: bytes
    proof: Tuple[Tuple[int, str, object], ...]
    threshold: bool = False

    @_once
    def proof_digests(self) -> Tuple[bytes, ...]:
        """The digest each proof certificate must cover, in proof order:
        the prepare's for a "prepare" triple, else its sender's commit."""
        return tuple(
            prepare_digest(self.view, self.seq, self.bdigest)
            if kind == "prepare" else
            commit_digest(self.view, self.seq, sender, self.bdigest)
            for sender, kind, _ in self.proof)


@_record
class Reply:
    client_id: int
    client_seq: int
    seq: int
    result: bytes

    @_once
    def encoding(self) -> bytes:
        """This reply's share of a checkpoint's state digest."""
        return _enc(self.client_id, self.client_seq, self.result)


@_record
class Checkpoint:
    seq: int
    state_digest: bytes
    sender: int
    cert: object

    @_once
    def ckdigest(self) -> bytes:
        return checkpoint_digest(self.seq, self.state_digest)


@_record
class TimelineEntry:
    """One certified statement a replica has issued, with its certificate.

    A prepare or commit entry also carries the leader's Prepare it certifies
    (a vote sends those at or below its stable seq bare). The digest
    binds that prepare's view, seq and batch, so the encoding leaves it out.
    View-change validation walks the certificates along each of the
    sender's streams to its attested positions, which is what stops a
    faulty replica from hiding part of its history.
    """

    kind: str        # prepare | commit | checkpoint | viewchange | newview | skip
    seq: int
    digest: bytes
    cert: object
    prepare: Optional[Prepare] = None

    @_once
    def encoding(self) -> bytes:
        """This entry's share of its vote's core digest."""
        return _enc(self.kind, self.seq, self.digest)

    @_once
    def bare(self) -> "TimelineEntry":
        """This entry without its prepare, made once for all votes."""
        return TimelineEntry(self.kind, self.seq, self.digest, self.cert)

    @_keyed
    def carried_commit(self, sender: int) -> bytes:
        """The digest of `sender`'s commit of the prepare this entry
        carries, which a commit entry in sender's vote must have."""
        p = self.prepare
        return commit_digest(p.view, p.seq, sender, p.bdigest())


@_record
class ViewChange:
    """A vote for new_view: the sender's certified log, every statement its
    component certified, in order, up to the attested stream positions."""

    new_view: int
    sender: int
    stable_seq: int
    stable_cert: Tuple[Checkpoint, ...]
    timeline: Tuple[TimelineEntry, ...]  # every certified statement issued
    attestation: object                  # StateAttestation over all streams
    cert: object

    @_once
    def core_digest(self) -> bytes:
        return view_change_core_digest(self.new_view, self.sender,
                                       self.stable_seq, self.timeline)

    @_once
    def vdigest(self) -> bytes:
        return view_change_digest(self.core_digest(), self.attestation)


@_record
class NewView:
    view: int
    sender: int
    viewchanges: Tuple[ViewChange, ...]
    base: int                      # highest stable seq across the viewchanges
    stable_cert: Tuple[Checkpoint, ...]
    skip_cert: Optional[object]    # voids proposal values 1..base in this view
    prepares: Tuple[Prepare, ...]  # re-proposals for base+1..top, new certs
    cert: object

    @_once
    def ndigest(self) -> bytes:
        return new_view_digest(self.view, self.sender, self.base,
                               self.viewchanges, self.prepares)


@_record
class FetchBatch:
    seq: int
    sender: int


@_record
class BatchResponse:
    prepare: Prepare
    sender: int


@_record
class FetchState:
    seq: int
    sender: int


@_record
class StateResponse:
    seq: int
    exec_digest: bytes
    last_replies: Tuple[Reply, ...]
    stable_cert: Tuple[Checkpoint, ...]
    sender: int


def _view_change_size(vc: ViewChange, sizes: rm.SizeModel, f: int) -> int:
    return (sizes.header_bytes + sizes.ui_bytes
            + len(vc.stable_cert) * rm.checkpoint_size(sizes)
            + sum(rm.prepare_size(sizes, len(e.prepare.requests))
                  for e in vc.timeline if e.prepare is not None)
            + len(vc.timeline) * (sizes.hash_bytes + sizes.ui_bytes)
            + sizes.ui_bytes)


def _new_view_size(nv: NewView, sizes: rm.SizeModel, f: int) -> int:
    return (sizes.header_bytes + 2 * sizes.ui_bytes
            + sum(wire_size(vc, sizes, f) for vc in nv.viewchanges)
            + len(nv.stable_cert) * rm.checkpoint_size(sizes)
            + sum(rm.prepare_size(sizes, len(p.requests)) for p in nv.prepares))


def _state_response_size(sr: StateResponse, sizes: rm.SizeModel, f: int) -> int:
    return (sizes.header_bytes + sizes.hash_bytes
            + len(sr.last_replies) * rm.reply_size(sizes)
            + len(sr.stable_cert) * rm.checkpoint_size(sizes))


# Byte weight of each message type, as (msg, sizes, f) -> bytes.
_SIZES = {
    Request: lambda msg, sizes, f: rm.request_size(sizes),
    Prepare: lambda msg, sizes, f: rm.prepare_size(sizes, len(msg.requests)),
    Commit: lambda msg, sizes, f: rm.commit_size(sizes),
    Decision: lambda msg, sizes, f: rm.decision_size(sizes, f, msg.threshold),
    Reply: lambda msg, sizes, f: rm.reply_size(sizes),
    Checkpoint: lambda msg, sizes, f: rm.checkpoint_size(sizes),
    ViewChange: _view_change_size,
    NewView: _new_view_size,
    FetchBatch: lambda msg, sizes, f: sizes.header_bytes,
    FetchState: lambda msg, sizes, f: sizes.header_bytes,
    BatchResponse: lambda msg, sizes, f: (
        sizes.header_bytes + rm.prepare_size(sizes, len(msg.prepare.requests))),
    StateResponse: _state_response_size,
}
_TYPE_NAMES = {cls: cls.__name__.lower() for cls in _SIZES}
# Types whose byte weight reads no field, so a sender may size one message
# of the type and reuse that size for every other.
FIXED_SIZE = frozenset({Request, Reply, Commit, Checkpoint, FetchBatch,
                        FetchState})


def wire_size(msg, sizes: rm.SizeModel, f: int) -> int:
    """Byte weight of a message under the shared size model."""
    size = _SIZES.get(type(msg))
    if size is None:
        raise TypeError(f"unsized message {type(msg).__name__}")
    return size(msg, sizes, f)


def msg_type(msg) -> str:
    return _TYPE_NAMES[type(msg)]
