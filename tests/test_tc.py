"""Behavior of the simulated trusted components.

Covers counter monotonicity, skip attestations, context certification,
counter-creation policy, snapshot/restore and instance-epoch semantics, the
access-tally difference between the two certificate modes, and the expected
tag and signature verdict a certificate keeps for its verifiers.
"""

from __future__ import annotations

import ast
import dataclasses
import hashlib
import hmac
import re
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hybft.encoding import _enc
from hybft.tc import (
    Directory,
    EquivocationRefused,
    ModeViolation,
    RestoreRefused,
    SequenceRefused,
    TcMode,
    TcUnavailable,
    TrustedComponent,
    VerifyStatus,
    derive_counter_id,
    hmac_tag,
    sig_verdict,
    verify_certificate,
)

from conftest import SYSTEM_KEY, assert_memo_slots, make_hmac_tc


def _h(tag: str) -> bytes:
    return hashlib.sha256(tag.encode()).digest()


# ---------------------------------------------------------------- counters


def test_first_value_is_one():
    tc = make_hmac_tc()
    ui = tc.create_ui(_h("a"))
    assert ui.value == 1
    assert ui.counter == derive_counter_id(0, "msg")


def test_values_47_and_55_with_seven_calls_between():
    tc = make_hmac_tc()
    for i in range(46):
        tc.create_ui(_h(f"warmup{i}"))
    ux = tc.create_ui(_h("x"))
    for i in range(7):
        tc.create_ui(_h(f"mid{i}"))
    uy = tc.create_ui(_h("y"))
    assert (ux.value, uy.value) == (47, 55)


def test_same_hash_twice_gets_distinct_values():
    tc = make_hmac_tc()
    a = tc.create_ui(_h("dup"))
    b = tc.create_ui(_h("dup"))
    assert a.value != b.value
    assert b.value == a.value + 1


def test_counters_are_independent_per_purpose():
    tc = make_hmac_tc()
    a = tc.create_ui(_h("a"), counter="msg")
    b = tc.create_ui(_h("b"), counter="proposal:0")
    assert a.value == 1 and b.value == 1
    assert a.counter != b.counter


def test_certificate_carries_owner_namespaced_counter_identity():
    # two replicas using the same purpose tag must not share a timeline name
    a = make_hmac_tc(0)
    b = make_hmac_tc(1)
    ua = a.create_ui(_h("m"), counter="proposal:0")
    ub = b.create_ui(_h("m"), counter="proposal:0")
    assert ua.counter == "r0:proposal:0"
    assert ub.counter == "r1:proposal:0"


# ------------------------------------------------------------------- skips


def test_skip_voids_range_and_next_value_lands_past_it():
    tc = make_hmac_tc()
    for i in range(10):
        tc.create_ui(_h(f"n{i}"))
    cert = tc.skip_values("msg", 5)
    assert (cert.first, cert.last) == (11, 15)
    nxt = tc.create_ui(_h("after"))
    assert nxt.value == 16


def test_skip_count_must_be_positive():
    tc = make_hmac_tc()
    with pytest.raises(ValueError):
        tc.skip_values("msg", 0)


# ---------------------------------------------------------------- contexts


def test_context_certified_once_second_call_refused():
    tc = make_hmac_tc()
    tc.certify_context("prepare", 1, 1, _h("x"))
    with pytest.raises(EquivocationRefused):
        tc.certify_context("prepare", 1, 1, _h("y"))


def test_phases_keep_independent_positions():
    tc = make_hmac_tc()
    tc.skip_contexts("prepare", 1, 4)
    tc.skip_contexts("commit", 1, 4)
    a = tc.certify_context("prepare", 1, 5, _h("x"))
    b = tc.certify_context("commit", 1, 5, _h("x"))
    assert (a.phase, a.view, a.seq) == ("prepare", 1, 5)
    assert (b.phase, b.view, b.seq) == ("commit", 1, 5)


def test_out_of_order_context_needs_explicit_skip():
    tc = make_hmac_tc()
    with pytest.raises(SequenceRefused):
        tc.certify_context("prepare", 1, 2, _h("x"))
    tc.skip_contexts("prepare", 1, 1)
    tc.certify_context("prepare", 1, 2, _h("x"))


def test_higher_view_enters_at_seq_one():
    tc = make_hmac_tc()
    tc.certify_context("prepare", 1, 1, _h("a"))
    tc.certify_context("prepare", 2, 1, _h("b"))
    # the view never retreats: (1, 2) is behind the position (2, 1), so it
    # can never be certified
    with pytest.raises(EquivocationRefused):
        tc.certify_context("prepare", 1, 2, _h("c"))
    with pytest.raises(SequenceRefused):
        tc.certify_context("prepare", 3, 2, _h("d"))  # new view starts at 1


def test_context_skip_target_must_advance():
    tc = make_hmac_tc()
    tc.certify_context("prepare", 1, 1, _h("a"))
    with pytest.raises(SequenceRefused):
        tc.skip_contexts("prepare", 1, 1)


# --------------------------------------------------- counter creation policy


def test_strict_component_refuses_counter_creation():
    tc = make_hmac_tc(strict=True)
    with pytest.raises(ModeViolation):
        tc.flexi_create_counter()


def test_minted_counters_are_distinct_and_both_start_at_one(hmac_pair):
    a, b, directory = hmac_pair
    loose = make_hmac_tc(2, strict=False)
    directory.register(2, loose.epoch)
    q1 = loose.flexi_create_counter()
    q2 = loose.flexi_create_counter()
    assert q1 != q2
    u1 = loose.create_ui(_h("T"), counter=q1)
    u2 = loose.create_ui(_h("T2"), counter=q2)
    assert u1.value == 1 and u2.value == 1
    # both parallel timelines verify: nothing ties a counter to its purpose
    assert verify_certificate(u1, directory=directory, via_tc=a) is VerifyStatus.OK
    assert verify_certificate(u2, directory=directory, via_tc=a) is VerifyStatus.OK


def test_minted_counter_keeps_its_name_in_certificates():
    loose = make_hmac_tc(3, strict=False)
    q = loose.flexi_create_counter()
    ui = loose.create_ui(_h("T"), counter=q)
    assert ui.counter == q
    assert ui.counter.endswith("@r3")


# ------------------------------------------------------------- verification


def test_hmac_verify_ok_and_tamper_detected(hmac_pair):
    a, b, directory = hmac_pair
    ui = a.create_ui(_h("m"))
    assert verify_certificate(ui, directory=directory, via_tc=b) is VerifyStatus.OK
    # after the original's expected tag is kept on it
    forged = type(ui)(ui.replica_id, ui.epoch, ui.counter, ui.value,
                      _h("other"), ui.proof)
    assert verify_certificate(forged, directory=directory, via_tc=b) is VerifyStatus.INVALID
    assert verify_certificate(ui, directory=directory, via_tc=b) is VerifyStatus.OK


def test_hmac_verify_charges_exactly_one_access(hmac_pair):
    a, b, directory = hmac_pair
    ui = a.create_ui(_h("m"))
    before = b.accesses
    verify_certificate(ui, directory=directory, via_tc=b)
    assert b.accesses == before + 1


def test_sig_verify_charges_no_accesses(sig_pair):
    a, b, directory = sig_pair
    uis = [a.create_ui(_h(f"m{i}")) for i in range(1000)]
    before = b.accesses
    for ui in uis:
        assert verify_certificate(ui, directory=directory) is VerifyStatus.OK
    assert b.accesses == before


def test_sig_tamper_detected(sig_pair):
    a, _, directory = sig_pair
    ui = a.create_ui(_h("m"))
    # after the original's verdict is kept on it
    assert directory.verify(ui) is VerifyStatus.OK
    forged = type(ui)(ui.replica_id, ui.epoch, ui.counter, ui.value,
                      _h("other"), ui.proof)
    assert directory.verify(forged) is VerifyStatus.INVALID


def test_hmac_verification_requires_a_component(hmac_pair):
    a, _, directory = hmac_pair
    ui = a.create_ui(_h("m"))
    with pytest.raises(ModeViolation):
        verify_certificate(ui, directory=directory)


def test_mode_mismatch_raises(sig_pair, hmac_pair):
    sa, _, sdir = sig_pair
    ha, hb, hdir = hmac_pair
    with pytest.raises(ModeViolation):
        hdir.verify(ha.create_ui(_h("m")))
    with pytest.raises(ModeViolation):
        sa.verify(sa.create_ui(_h("m")), sdir)


# ------------------------------------------------------ verification memos


def test_a_second_hmac_verify_computes_no_hmac(hmac_pair, monkeypatch):
    a, b, directory = hmac_pair
    ui = a.create_ui(_h("m"))
    assert "_hmac_tag" not in vars(ui)   # never seeded from the proof
    calls = []

    def counted(name, real):
        def call(*args):
            calls.append(name)
            return real(*args)
        return call

    monkeypatch.setattr(hmac, "digest", counted("hmac", hmac.digest))
    monkeypatch.setattr(hmac, "compare_digest",
                        counted("compare", hmac.compare_digest))
    assert b.verify(ui, directory) is VerifyStatus.OK
    assert calls == ["hmac", "compare"]
    assert ui.__dict__["_hmac_tag"] == (
        SYSTEM_KEY, hmac.new(SYSTEM_KEY, ui.payload(), "sha256").digest())
    # another receiver with the same key, and the same one again: every
    # call is still an access and a comparison, but no HMAC
    c = make_hmac_tc(2)
    before = (b.accesses, c.accesses)
    assert b.verify(ui, directory) is VerifyStatus.OK
    assert c.verify(ui, directory) is VerifyStatus.OK
    assert (b.accesses, c.accesses) == (before[0] + 1, before[1] + 1)
    assert calls == ["hmac", "compare", "compare", "compare"]


def test_a_component_with_another_key_gets_its_own_tag(hmac_pair):
    a, b, directory = hmac_pair
    ui = a.create_ui(_h("m"))
    assert b.verify(ui, directory) is VerifyStatus.OK
    other_key = b"o" * 32
    other = make_hmac_tc(2, system_key=other_key)
    assert other.verify(ui, directory) is VerifyStatus.INVALID
    assert ui.__dict__["_hmac_tag"] == (
        other_key, hmac.new(other_key, ui.payload(), "sha256").digest())
    assert b.verify(ui, directory) is VerifyStatus.OK


def test_replace_drops_the_verification_memos(hmac_pair, sig_pair):
    for issuer, verify, slot, memo in (
            (hmac_pair[0], lambda c: hmac_pair[1].verify(c, hmac_pair[2]),
             "_hmac_tag", hmac_tag),
            (sig_pair[0], sig_pair[2].verify, "_sig_verdict", sig_verdict)):
        ui = issuer.create_ui(_h("m"))
        assert verify(ui) is VerifyStatus.OK
        assert slot in vars(ui)
        assert slot not in {f.name for f in dataclasses.fields(ui)}
        twin = dataclasses.replace(ui)
        assert slot not in vars(twin) and twin == ui
        assert hash(twin) == hash(ui)
        assert verify(twin) is VerifyStatus.OK
        # every certificate type keeps its payload and its verification
        # memo, and nothing else
        for cert in (ui, issuer.skip_values("msg", 2),
                     issuer.attest_state(b"n"),
                     issuer.certify_context("p", 0, 1, _h("c")),
                     issuer.skip_contexts("p", 1, 3)):
            assert verify(cert) is VerifyStatus.OK
            assert_memo_slots(cert, [type(cert).payload, memo])


class _CountingKey:
    """A public key that counts its signature checks."""

    def __init__(self, key):
        self.key, self.calls = key, 0

    def verify(self, signature, data):
        self.calls += 1
        self.key.verify(signature, data)


def test_an_ed25519_certificate_checked_twice_is_verified_once(sig_pair):
    a, _, directory = sig_pair
    key = _CountingKey(a.public_key())
    directory.register(0, a.epoch, key)
    ui = a.create_ui(_h("m"))
    forged = type(ui)(ui.replica_id, ui.epoch, ui.counter, ui.value,
                      _h("other"), ui.proof)
    for _ in range(2):
        assert directory.verify(ui) is VerifyStatus.OK
        assert directory.verify(forged) is VerifyStatus.INVALID
    assert key.calls == 2
    # the epoch is checked at every call, whatever the memo says
    directory.register(0, a.epoch + 1, key)
    assert directory.verify(ui) is VerifyStatus.STALE_EPOCH
    # a key object that compares unequal to the last one checks afresh;
    # this proxy compares by identity, so even the same material does
    again = _CountingKey(a.public_key())
    directory.register(0, a.epoch, again)
    assert directory.verify(ui) is VerifyStatus.OK
    assert (key.calls, again.calls) == (2, 1)


# ------------------------------------------------------------------ clone


def test_clone_forks_counter_state_and_shares_the_key(hmac_pair):
    a, b, directory = hmac_pair
    a.create_ui(_h("x"))
    a.certify_context("p", 1, 1, _h("y"))
    fork = a.clone()
    assert fork.state_key() == a.state_key()
    ui = fork.create_ui(_h("z"))
    fork.certify_context("p", 1, 2, _h("w"))
    assert fork.state_key() != a.state_key()
    # each keeps its own list of certificates not yet taken
    assert len(a.take_issued()) == 2 and len(fork.take_issued()) == 4
    # the parent never saw the fork's steps, so it reaches the same positions
    assert a.create_ui(_h("z")).value == ui.value
    a.certify_context("p", 1, 2, _h("w"))
    assert a.state_key() == fork.state_key()
    assert verify_certificate(ui, directory=directory, via_tc=b) is VerifyStatus.OK


def test_take_issued_hands_each_certificate_over_once():
    tc = make_hmac_tc()
    ui = tc.create_ui(_h("a"))
    att = tc.attest_state(b"nonce")
    accesses = tc.accesses
    assert tc.take_issued() == [ui, att]
    assert tc.take_issued() == []
    skip = tc.skip_values("msg", 2)
    tc.crash()
    # taking is the host's audit, not an operation: no access, even when down
    assert tc.take_issued() == [skip]
    assert tc.accesses == accesses + 1


def test_a_take_of_nothing_makes_no_new_list():
    # the host takes after every replica step, and most steps issue nothing
    tc = make_hmac_tc()
    empty = tc.take_issued()
    assert empty == [] and tc.take_issued() is empty
    ui = tc.create_ui(_h("a"))
    taken = tc.take_issued()
    assert taken == [ui]
    # a non-empty take is the caller's: later issues go to a new list
    tc.create_ui(_h("b"))
    assert taken == [ui] and tc.take_issued() is not taken


# --------------------------------------------------------- snapshot/restore


def test_restore_continues_the_same_timeline():
    tc = make_hmac_tc()
    for i in range(100):
        tc.create_ui(_h(f"n{i}"))
    blob = tc.snapshot()
    fresh = make_hmac_tc()
    fresh.restore(blob)
    assert fresh.create_ui(_h("next")).value == 101
    assert fresh.epoch == tc.epoch


def test_restore_carries_the_whole_counter_state():
    tc = make_hmac_tc(strict=False)
    tc.create_ui(_h("a"))
    tc.create_ui(_h("b"))
    tc.skip_values("msg", 2)
    tc.certify_context("prepare", 0, 1, _h("p"))
    tc.skip_contexts("commit", 1, 4)
    minted = tc.flexi_create_counter()
    tc.create_ui(_h("c"), counter=minted)
    blob = tc.snapshot()
    fresh = make_hmac_tc(strict=False)
    fresh.restore(blob)
    assert fresh.state_key() == tc.state_key()
    # the copy is independent: the source moving on leaves it unchanged
    before = fresh.state_key()
    tc.certify_context("prepare", 0, 2, _h("q"))
    tc.flexi_create_counter()
    assert fresh.state_key() == before != tc.state_key()


def test_blob_is_single_use():
    tc = make_hmac_tc()
    tc.create_ui(_h("a"))
    blob = tc.snapshot()
    make_hmac_tc().restore(blob)
    with pytest.raises(RestoreRefused):
        make_hmac_tc().restore(blob)


def test_restore_target_must_be_fresh():
    tc = make_hmac_tc()
    blob = tc.snapshot()
    used = make_hmac_tc()
    used.create_ui(_h("oops"))
    with pytest.raises(RestoreRefused):
        used.restore(blob)


def test_restore_checks_owner():
    tc = make_hmac_tc(0)
    blob = tc.snapshot()
    other = make_hmac_tc(1)
    with pytest.raises(RestoreRefused):
        other.restore(blob)


def test_restart_without_restore_is_a_new_identity(hmac_pair):
    a, b, directory = hmac_pair
    a.create_ui(_h("old"))
    restarted = make_hmac_tc(0, epoch=a.epoch + 1)
    ui = restarted.create_ui(_h("new"))
    # directory still expects the original epoch: the new timeline is unusable
    assert verify_certificate(ui, directory=directory, via_tc=b) is VerifyStatus.STALE_EPOCH
    directory.register(0, restarted.epoch)
    assert verify_certificate(ui, directory=directory, via_tc=b) is VerifyStatus.OK


def test_crashed_component_answers_nothing():
    tc = make_hmac_tc()
    tc.crash()
    for call in (lambda: tc.create_ui(_h("x")),
                 lambda: tc.skip_values("msg", 1),
                 lambda: tc.certify_context("prepare", 1, 1, _h("x")),
                 lambda: tc.flexi_create_counter(),
                 lambda: tc.attest_state(b"n"),
                 lambda: tc.snapshot()):
        with pytest.raises(TcUnavailable):
            call()


def test_state_attestation_reports_counter_positions(hmac_pair):
    a, b, directory = hmac_pair
    a.create_ui(_h("1"))
    a.create_ui(_h("2"))
    a.certify_context("prepare", 1, 1, _h("c"))
    att = a.attest_state(b"nonce")
    assert dict(att.counters)[derive_counter_id(0, "msg")] == 2
    assert ("prepare", 1, 1) in att.phases
    assert att.nonce == b"nonce"
    assert verify_certificate(att, directory=directory, via_tc=b) is VerifyStatus.OK


# -------------------------------------------------------- trace properties


_OPS = st.sampled_from(["ui", "skip1", "skip3", "ctx"])


@settings(max_examples=200, deadline=None)
@given(st.lists(_OPS, min_size=1, max_size=40), st.randoms())
def test_random_traces_keep_counter_laws(ops, rng):
    """Monotone unique values; skipped ranges never certify; contexts in order."""
    tc = make_hmac_tc()
    seen_values = set()
    voided = set()
    phase_pos = (0, 0)
    for i, op in enumerate(ops):
        if op == "ui":
            ui = tc.create_ui(_h(f"m{i}{rng.random()}"))
            assert ui.value not in seen_values
            assert ui.value not in voided
            assert all(ui.value > v for v in seen_values)
            seen_values.add(ui.value)
        elif op in ("skip1", "skip3"):
            cert = tc.skip_values("msg", 1 if op == "skip1" else 3)
            span = set(range(cert.first, cert.last + 1))
            assert not span & seen_values
            voided |= span
        else:
            pv, ps = phase_pos
            phase_pos = (1, 1) if pv == 0 else (pv, ps + 1)
            cert = tc.certify_context("prepare", *phase_pos, _h(f"c{i}"))
            assert (cert.view, cert.seq) == phase_pos
    # every value is either certified or provably voided, no third state
    assert not (seen_values & voided)


@settings(max_examples=100, deadline=None)
@given(st.integers(min_value=1, max_value=30), st.integers(min_value=1, max_value=10))
def test_skip_then_no_interface_reaches_the_gap(n_before, width):
    tc = make_hmac_tc()
    for i in range(n_before):
        tc.create_ui(_h(f"w{i}"))
    cert = tc.skip_values("msg", width)
    gap = set(range(cert.first, cert.last + 1))
    for i in range(width + 3):
        ui = tc.create_ui(_h(f"a{i}"))
        assert ui.value not in gap


# ------------------------------------------------------- API-surface audit


def test_untrusted_modules_never_reach_into_component_internals():
    """The module boundary is the tamperproofness story: audit it."""
    src = Path(__file__).resolve().parent.parent / "src" / "hybft"
    private = ("_key", "_signer", "_counters", "_phases", "_flexi_serial",
               "_flexi_names", "_issued", "_prove", "_issue",
               "_touch", "_counter_id", "_crashed", "_copy_counter_state")
    pattern = re.compile(r"\.({})\b".format("|".join(private)))
    offenders = []
    for name in ("protocol.py", "sim.py", "clients.py", "adversary.py",
                 "resource_model.py", "cli.py", "config.py",
                 "model_check.py", "messages.py", "encoding.py"):
        text = (src / name).read_text()
        for lineno, line in enumerate(text.splitlines(), 1):
            if pattern.search(line):
                offenders.append(f"{name}:{lineno}: {line.strip()}")
    assert offenders == []


def test_only_the_replica_and_the_scripts_speak_as_a_leader():
    """A Prepare is built by Replica._cert or by an adversary script, so
    every proposal a check explores is one a leader can send."""
    src = Path(__file__).resolve().parent.parent / "src" / "hybft"
    offenders = []
    for path in sorted(src.glob("*.py")):
        if path.name in ("protocol.py", "adversary.py"):
            continue
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Call) and "Prepare" in (
                    getattr(node.func, "attr", None),
                    getattr(node.func, "id", None)):
                offenders.append(f"{path.name}:{node.lineno}")
    assert offenders == []


def test_public_surface_is_declared():
    # an instance, so the public attributes set in __init__ count too; the
    # equality also fails on a declared name that no longer exists
    actual = {n for n in dir(make_hmac_tc())
              if not n.startswith("_") and n != "PUBLIC_OPS"}
    assert set(TrustedComponent.PUBLIC_OPS) == actual
    assert "create_ui" in actual and "verify" in actual


def _hybft_imports(module: str) -> set:
    """The hybft modules that src/hybft/<module>.py imports or imports from,
    read from its source."""
    src = Path(__file__).resolve().parent.parent / "src" / "hybft"
    found = set()
    for node in ast.walk(ast.parse((src / f"{module}.py").read_text())):
        if isinstance(node, ast.Import):
            found |= {a.name for a in node.names
                      if a.name.split(".")[0] == "hybft"}
        elif isinstance(node, ast.ImportFrom):
            if node.level:   # relative: from . import x, from .x import y
                base = f"hybft.{node.module}" if node.module else "hybft"
            elif (node.module or "").split(".")[0] == "hybft":
                base = node.module
            else:
                continue
            found.add(base)
            if base == "hybft":
                found |= {f"hybft.{a.name}" for a in node.names}
    return found


def test_the_encoding_sits_below_the_component_and_the_messages():
    # the trusted kit must not own the message layer's encoding again
    assert _hybft_imports("encoding") == set()
    assert "hybft.encoding" in _hybft_imports("tc")
    assert {"hybft.encoding", "hybft.resource_model"} <= _hybft_imports(
        "messages")
    assert "hybft.tc" not in _hybft_imports("messages")


# ------------------------------------------------------ canonical encoding


def _reference_enc(*fields) -> bytes:
    """The field-by-field loop that _enc's packed fast path must agree with."""
    out = []
    for f in fields:
        if isinstance(f, int):
            b = f.to_bytes(8, "big", signed=False)
        elif isinstance(f, str):
            b = f.encode("utf-8")
        elif isinstance(f, bytes):
            b = f
        else:
            raise TypeError(f"unencodable field {f!r}")
        out.append(len(b).to_bytes(4, "big"))
        out.append(b)
    return b"".join(out)


class _Int(int):
    pass


def _outcome(fn, *fields):
    try:
        return fn(*fields)
    except Exception as exc:   # the exception's type is the outcome
        return type(exc)


@pytest.mark.parametrize("field", [
    True, 0, 2**64 - 1, _Int(7),   # encodable ints
    -1, 2**64,                     # out of range
    "zähler", b"", 1.5,            # text, empty bytes, unencodable
], ids=repr)
def test_enc_matches_the_reference_loop(field):
    for fields in [(field,), ("tag", 3, field, b"x"), (field, field)]:
        assert _outcome(_enc, *fields) == _outcome(_reference_enc, *fields)


def test_enc_reference_outcomes_are_the_documented_ones():
    assert _enc(True) == _reference_enc(1)
    assert _outcome(_enc, -1) is OverflowError
    assert _outcome(_enc, 2**64) is OverflowError
    assert _outcome(_enc, 1.5) is TypeError
    assert _outcome(_enc, "ok", 1.5, -1) is TypeError
