"""Simulated trusted components: attested counters, context certification, state attestation.

Each replica owns one TrustedComponent instance. The untrusted replica code may
only call the public operations below; key material and counter state live in
underscore-prefixed attributes behind this module boundary. Components are
crash-only: a crashed instance answers every call with TcUnavailable, and a
restarted instance gets a fresh instance epoch unless an admin snapshot is
restored into it.
"""

from __future__ import annotations

import hmac as hmac_mod
from dataclasses import dataclass
from enum import Enum
from typing import Dict, List, Optional, Tuple

from cryptography.exceptions import InvalidSignature
from cryptography.hazmat.primitives.asymmetric.ed25519 import (
    Ed25519PrivateKey,
    Ed25519PublicKey,
)

from .encoding import _enc, _h, _keyed, _once, _record


class TcMode(Enum):
    """How certificates are authenticated and therefore who can verify them."""

    HMAC = "hmac"  # shared key held only inside TCs; verification needs a TC
    SIG = "sig"    # per-TC asymmetric keypair; verification is public


class VerifyStatus(Enum):
    OK = "ok"
    INVALID = "invalid"
    STALE_EPOCH = "stale_epoch"


class TcUnavailable(Exception):
    """The component has crashed; no operation is possible."""


class ModeViolation(Exception):
    """Operation not permitted in the component's configured mode."""


class EquivocationRefused(Exception):
    """A context id at or behind its phase's position: it was certified, or
    voided or passed over, and no id there can be certified again."""


class SequenceRefused(Exception):
    """Context ids must advance in order; use an explicit skip first."""


class RestoreRefused(Exception):
    """Snapshot blob already consumed, or target component is not fresh."""


def context_follows(pos: Tuple[int, int], view: int, seq: int) -> bool:
    """certify_context's order rule: (view, seq) may follow a phase at
    position pos if it is the next seq of pos's view, or seq 1 of a higher
    view."""
    return pos == (view, seq - 1) or (seq == 1 and pos < (view, seq))


def derive_counter_id(replica_id: int, purpose: str) -> str:
    """Strict-mode counter identity: deterministic in (replica, purpose)."""
    return f"r{replica_id}:{purpose}"


@_record
class UniqueIdentifier:
    """Certificate binding one counter value to one message hash, once."""

    replica_id: int
    epoch: int
    counter: str
    value: int
    msg_hash: bytes
    proof: bytes

    @_once
    def payload(self) -> bytes:
        return _enc("ui", self.replica_id, self.epoch, self.counter,
                    self.value, self.msg_hash)


@_record
class SkipCertificate:
    """Attests that counter values first..last were voided, never assigned."""

    replica_id: int
    epoch: int
    counter: str
    first: int
    last: int
    proof: bytes

    @_once
    def payload(self) -> bytes:
        return _enc("skip", self.replica_id, self.epoch, self.counter,
                    self.first, self.last)


@_record
class ContextCertificate:
    """Prevention-mode certificate: one (phase, view, seq) id, certified once."""

    replica_id: int
    epoch: int
    phase: str
    view: int
    seq: int
    msg_hash: bytes
    proof: bytes

    @_once
    def payload(self) -> bytes:
        return _enc("ctx", self.replica_id, self.epoch, self.phase,
                    self.view, self.seq, self.msg_hash)


@_record
class PhaseSkipCertificate:
    """Attests every context id between two positions of one phase was voided."""

    replica_id: int
    epoch: int
    phase: str
    from_view: int
    from_seq: int
    to_view: int
    to_seq: int
    proof: bytes

    @_once
    def payload(self) -> bytes:
        return _enc("pskip", self.replica_id, self.epoch, self.phase,
                    self.from_view, self.from_seq, self.to_view, self.to_seq)


@_record
class StateAttestation:
    """Attested read of every counter and phase position, bound to a nonce.

    Lets a verifier demand a timeline that is gapless up to the attested
    positions, so a replica cannot hide the tail of its history during a
    view change.
    """

    replica_id: int
    epoch: int
    counters: Tuple[Tuple[str, int], ...]
    phases: Tuple[Tuple[str, int, int], ...]
    nonce: bytes
    proof: bytes

    @_once
    def payload(self) -> bytes:
        flat: List = ["att", self.replica_id, self.epoch, self.nonce,
                      len(self.counters)]
        for name, value in self.counters:
            flat += [name, value]
        flat.append(len(self.phases))
        for phase, view, seq in self.phases:
            flat += [phase, view, seq]
        return _enc(*flat)


@_keyed
def hmac_tag(cert, key: bytes) -> bytes:
    """The tag cert's proof must equal under the shared key."""
    return hmac_mod.digest(key, cert.payload(), "sha256")


@_keyed
def sig_verdict(cert, key: Ed25519PublicKey) -> VerifyStatus:
    """Whether cert's proof is key's signature over its payload. Public keys
    compare equal by material, the only part of a key a verdict reads."""
    try:
        key.verify(cert.proof, cert.payload())
    except InvalidSignature:
        return VerifyStatus.INVALID
    return VerifyStatus.OK


@dataclass
class SnapshotBlob:
    """Sealed counter state for admin-driven restore. Single use."""

    epoch: int
    replica_id: int
    _state: Dict
    used: bool = False


def _frozen(value):
    """`value` made hashable: a dict as the frozenset of its items, a set as
    a frozenset."""
    if type(value) is dict:
        return frozenset(value.items())
    return frozenset(value) if type(value) is set else value


def _copy_counter_state(src: Dict, dst: Dict) -> Dict:
    """Copy the counter state from `src` into `dst` (a component's attributes
    or a blob's): the one list of what clone, snapshot and restore carry."""
    dst["_counters"] = dict(src["_counters"])
    dst["_phases"] = dict(src["_phases"])
    dst["_flexi_serial"] = src["_flexi_serial"]
    dst["_flexi_names"] = set(src["_flexi_names"])
    return dst


class Directory:
    """Public verification material: expected epochs and (in SIG mode) keys.

    In HMAC mode the directory holds no key; verification must go through a
    component that does (see TrustedComponent.verify).
    """

    def __init__(self, mode: TcMode):
        self.mode = mode
        self._epochs: Dict[int, int] = {}
        self._public_keys: Dict[int, Ed25519PublicKey] = {}

    def register(self, replica_id: int, epoch: int,
                 public_key: Optional[Ed25519PublicKey] = None) -> None:
        self._epochs[replica_id] = epoch
        if public_key is not None:
            self._public_keys[replica_id] = public_key

    def verify(self, cert) -> VerifyStatus:
        """SIG-mode verification, with no trusted component: the epoch is
        checked at every call, the signature once per key (sig_verdict)."""
        if self.mode is not TcMode.SIG:
            raise ModeViolation("directory verification requires SIG mode")
        if self._epochs.get(cert.replica_id) != cert.epoch:
            return VerifyStatus.STALE_EPOCH
        key = self._public_keys.get(cert.replica_id)
        if key is None:
            return VerifyStatus.INVALID
        return sig_verdict(cert, key)


class TrustedComponent:
    """One replica's trusted subsystem: counters, contexts, snapshot, crash."""

    PUBLIC_OPS = (
        "create_ui", "verify", "skip_values", "certify_context",
        "skip_contexts", "flexi_create_counter", "attest_state",
        "snapshot", "restore", "crash",
        "replica_id", "epoch", "mode", "strict", "accesses",
        "issued", "take_issued", "is_crashed", "public_key", "state_key", "clone",
    )

    def __init__(self, replica_id: int, *, mode: TcMode = TcMode.HMAC,
                 strict: bool = True, epoch: int = 1,
                 system_key: Optional[bytes] = None,
                 sig_seed: Optional[bytes] = None):
        self.replica_id = replica_id
        self.epoch = epoch
        self.mode = mode
        self.strict = strict
        self.accesses = 0
        self._crashed = False
        # counter state; _copy_counter_state copies exactly these four
        self._counters: Dict[str, int] = {}
        self._phases: Dict[str, Tuple[int, int]] = {}
        self._flexi_serial = 0
        self._flexi_names: set = set()
        # issued since the host last took them: read it, take with take_issued
        self.issued: List = []
        if mode is TcMode.HMAC:
            if system_key is None:
                raise ValueError("HMAC mode requires a system key")
            self._key = system_key
            self._signer = None
        else:
            seed = sig_seed or _h(_enc("tc-seed", replica_id, epoch))
            self._signer = Ed25519PrivateKey.from_private_bytes(seed[:32])
            self._key = None

    # -- plumbing -------------------------------------------------------

    def public_key(self) -> Optional[Ed25519PublicKey]:
        if self._signer is None:
            return None
        return self._signer.public_key()

    def is_crashed(self) -> bool:
        return self._crashed

    def crash(self) -> None:
        self._crashed = True

    def take_issued(self) -> List:
        """Certificates issued since the last take, for the host's audit. An
        empty take is the component's own list, read before it issues again."""
        taken = self.issued
        if taken:
            self.issued = []
        return taken

    def clone(self) -> "TrustedComponent":
        """Independent fork of this instance, for state-space exploration.

        Counter, phase and context state is copied, and so is the list of
        certificates not yet taken; the key or signer is shared. Unlike
        restore, the fork keeps the epoch and the access count.
        """
        child = type(self).__new__(type(self))
        child.__dict__.update(self.__dict__, issued=list(self.issued))
        _copy_counter_state(self.__dict__, child.__dict__)
        return child

    def state_key(self) -> tuple:
        """Canonical hashable snapshot, for model checking: the epoch, the
        crash flag and the counter state that _copy_counter_state copies."""
        return (self.epoch, self._crashed, *map(
            _frozen, _copy_counter_state(self.__dict__, {}).values()))

    def _touch(self) -> None:
        if self._crashed:
            raise TcUnavailable(f"tc of replica {self.replica_id} is down")
        self.accesses += 1

    def _prove(self, payload: bytes) -> bytes:
        if self.mode is TcMode.HMAC:
            return hmac_mod.digest(self._key, payload, "sha256")
        return self._signer.sign(payload)

    def _issue(self, cls, *fields):
        """Certificate of type `cls` over `fields`, proven, kept until taken.
        It is built once: payload() leaves out the proof, which goes in
        last, before any caller sees the certificate."""
        cert = cls(self.replica_id, self.epoch, *fields, b"")
        cert.__dict__["proof"] = self._prove(cert.payload())
        self.issued.append(cert)
        return cert

    def _counter_id(self, counter: str) -> str:
        """Canonical identity a certificate carries for `counter`.

        Fixed-purpose counters are namespaced by owner, so verifiers can
        recompute the identity a given replica must use for a given purpose.
        Minted (flexi) counters already carry their full identity.
        """
        if counter in self._flexi_names:
            return counter
        return derive_counter_id(self.replica_id, counter)

    # -- monotonic counters (detection mode) -----------------------------

    def create_ui(self, msg_hash: bytes, counter: str = "msg") -> UniqueIdentifier:
        """Bind the next value of `counter` to msg_hash. Values never repeat."""
        self._touch()
        cid = self._counter_id(counter)
        value = self._counters.get(cid, 0) + 1
        self._counters[cid] = value
        return self._issue(UniqueIdentifier, cid, value, msg_hash)

    def skip_values(self, counter: str, count: int) -> SkipCertificate:
        """Void the next `count` values, attested so verifiers can trust the gap."""
        self._touch()
        if count < 1:
            raise ValueError("skip count must be >= 1")
        cid = self._counter_id(counter)
        last = self._counters.get(cid, 0)
        self._counters[cid] = last + count
        return self._issue(SkipCertificate, cid, last + 1, last + count)

    # -- context certification (prevention mode) -------------------------

    def certify_context(self, phase: str, view: int, seq: int,
                        msg_hash: bytes) -> ContextCertificate:
        """Certify (phase, view, seq) exactly once, in order.

        Order rule: within a view, seq must advance by one; entering a higher
        view is allowed at seq 1, anything else needs skip_contexts first.
        The phase's position only moves forward, so an id at or behind it is
        refused for good (EquivocationRefused) and one past the next
        position until a skip (SequenceRefused).
        """
        self._touch()
        pos = self._phases.get(phase, (0, 0))
        if not context_follows(pos, view, seq):
            if (view, seq) <= pos:
                raise EquivocationRefused(
                    f"context ({phase},{view},{seq}) at or behind {pos}")
            raise SequenceRefused(
                f"context ({phase},{view},{seq}) out of order after {pos}")
        self._phases[phase] = (view, seq)
        return self._issue(ContextCertificate, phase, view, seq, msg_hash)

    def skip_contexts(self, phase: str, view: int, seq: int) -> PhaseSkipCertificate:
        """Void every context id of `phase` up to and including (view, seq)."""
        self._touch()
        pv, ps = self._phases.get(phase, (0, 0))
        if (view, seq) <= (pv, ps):
            raise SequenceRefused(
                f"skip target ({view},{seq}) not past position ({pv},{ps})")
        self._phases[phase] = (view, seq)
        return self._issue(PhaseSkipCertificate, phase, pv, ps, view, seq)

    # -- counter creation policy -----------------------------------------

    def flexi_create_counter(self) -> str:
        """Mint a fresh counter identity on demand.

        Only legal when the component was configured non-strict. Unbounded
        creation is exactly what lets a faulty caller run parallel timelines,
        which is why strict mode refuses it.
        """
        self._touch()
        if self.strict:
            raise ModeViolation("strict component: counters are fixed per purpose")
        self._flexi_serial += 1
        name = f"anon{self._flexi_serial}@r{self.replica_id}"
        self._flexi_names.add(name)
        self._counters.setdefault(name, 0)
        return name

    # -- attested state read ----------------------------------------------

    def attest_state(self, nonce: bytes) -> StateAttestation:
        """Attested snapshot of all counter and phase positions."""
        self._touch()
        counters = tuple(sorted(self._counters.items()))
        phases = tuple(sorted((p, v, s) for p, (v, s) in self._phases.items()))
        return self._issue(StateAttestation, counters, phases, nonce)

    # -- verification ------------------------------------------------------

    def verify(self, cert, directory: Directory) -> VerifyStatus:
        """HMAC-mode verification: needs this component's shared key.

        Counts as one access against this (the verifier's) component; that is
        the cost asymmetry between the two certificate modes. Every call
        checks the epoch, which an unregistered replica has none of, as in
        Directory.verify, and compares the certificate's proof with its
        expected tag, which hmac_tag computes once per key.
        """
        self._touch()
        if self.mode is not TcMode.HMAC:
            raise ModeViolation("SIG-mode certificates verify via the directory")
        if directory._epochs.get(cert.replica_id) != cert.epoch:
            return VerifyStatus.STALE_EPOCH
        if not hmac_mod.compare_digest(hmac_tag(cert, self._key), cert.proof):
            return VerifyStatus.INVALID
        return VerifyStatus.OK

    # -- snapshot / restore -------------------------------------------------

    def snapshot(self) -> SnapshotBlob:
        """Sealed copy of the counter state for admin-driven migration.

        The caller is responsible for quiescing first; within the simulator a
        snapshot always falls between events, so no certify is in flight.
        """
        self._touch()
        return SnapshotBlob(self.epoch, self.replica_id,
                            _copy_counter_state(self.__dict__, {}))

    def restore(self, blob: SnapshotBlob) -> None:
        """Adopt a sealed snapshot into a fresh component, continuing its timeline."""
        self._touch()
        if blob.used:
            raise RestoreRefused("snapshot blob already consumed")
        if blob.replica_id != self.replica_id:
            raise RestoreRefused("snapshot belongs to a different replica")
        if self._counters or self._phases:
            raise RestoreRefused("restore target must be fresh")
        blob.used = True
        self.epoch = blob.epoch
        _copy_counter_state(blob._state, self.__dict__)


def verify_certificate(cert, *, directory: Directory,
                       via_tc: Optional[TrustedComponent] = None) -> VerifyStatus:
    """Mode-dispatching verification helper.

    SIG mode verifies against the public directory (no trusted access);
    HMAC mode requires the verifier's own component and charges it one access.
    """
    if directory.mode is TcMode.SIG:
        return directory.verify(cert)
    if via_tc is None:
        raise ModeViolation("HMAC-mode verification needs the verifier's component")
    return via_tc.verify(cert, directory)
