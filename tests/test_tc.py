"""Behavior of the simulated trusted components.

Covers counter monotonicity, skip attestations, watermark windows, context
certification, counter-creation policy, snapshot/restore and
instance-epoch semantics, plus the access-tally difference between the two
certificate modes.
"""

from __future__ import annotations

import hashlib
import re
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

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
    WindowExceeded,
    derive_counter_id,
    verify_certificate,
)

from conftest import SYSTEM_KEY, make_hmac_tc


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


def test_window_bounds_values_and_skips():
    tc = make_hmac_tc(window=10)
    for i in range(10):
        tc.create_ui(_h(f"n{i}"))
    with pytest.raises(WindowExceeded):
        tc.create_ui(_h("over"))
    tc.advance_watermark("msg", 6)
    ui = tc.create_ui(_h("ok"))  # floor moved, room again
    assert ui.value == 11
    with pytest.raises(WindowExceeded):
        tc.skip_values("msg", 50)


def test_watermark_only_moves_forward_and_never_past_next():
    tc = make_hmac_tc(window=10)
    tc.create_ui(_h("a"))
    tc.advance_watermark("msg", 2)
    with pytest.raises(ValueError):
        tc.advance_watermark("msg", 1)
    with pytest.raises(ValueError):
        tc.advance_watermark("msg", 5)  # past last+1


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
    with pytest.raises(SequenceRefused):
        tc.certify_context("prepare", 1, 2, _h("c"))  # view never retreats
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
    forged = type(ui)(ui.replica_id, ui.epoch, ui.counter, ui.value,
                      _h("other"), ui.proof)
    assert verify_certificate(forged, directory=directory, via_tc=b) is VerifyStatus.INVALID


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


# ------------------------------------------------------------------ clone


def test_clone_forks_counter_state_and_shares_the_key(hmac_pair):
    a, b, directory = hmac_pair
    a.create_ui(_h("x"))
    a.certify_context("p", 1, 1, _h("y"))
    fork = a.clone()
    assert fork.state_key() == a.state_key()
    assert fork.issued_certificates() == a.issued_certificates()
    ui = fork.create_ui(_h("z"))
    fork.certify_context("p", 1, 2, _h("w"))
    assert fork.state_key() != a.state_key()
    assert len(a.issued_certificates()) == 2
    # the parent never saw the fork's steps, so it reaches the same positions
    assert a.create_ui(_h("z")).value == ui.value
    a.certify_context("p", 1, 2, _h("w"))
    assert a.state_key() == fork.state_key()
    assert verify_certificate(ui, directory=directory, via_tc=b) is VerifyStatus.OK


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
    private = ("_key", "_signer", "_counters", "_counter_low", "_phases",
               "_ctx_issued", "_flexi_serial", "_flexi_names", "_issued",
               "_prove", "_issue", "_touch", "_counter_id", "_check_window",
               "_crashed")
    pattern = re.compile(r"\.({})\b".format("|".join(private)))
    offenders = []
    for name in ("protocol.py", "sim.py", "clients.py", "adversary.py",
                 "resource_model.py", "cli.py", "config.py",
                 "model_check.py"):
        text = (src / name).read_text()
        for lineno, line in enumerate(text.splitlines(), 1):
            if pattern.search(line):
                offenders.append(f"{name}:{lineno}: {line.strip()}")
    assert offenders == []


def test_public_surface_is_declared():
    declared = set(TrustedComponent.PUBLIC_OPS)
    actual = {n for n in dir(TrustedComponent)
              if not n.startswith("_") and n != "PUBLIC_OPS"}
    assert actual <= declared
    assert "create_ui" in declared and "verify" in declared
