"""Closed-loop client behavior: quorum policies, retransmits, completion."""

from __future__ import annotations

import hashlib

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hybft import messages as m
from hybft.clients import Client

KEY = hashlib.sha256(b"ck").digest()


def make_client(**kw):
    kw.setdefault("policy", "f+1")
    kw.setdefault("total_requests", 2)
    return Client(0, KEY, n=3, f=1, **kw)


def reply_to(req: m.Request, result=b"r", seq=1):
    return m.Reply(req.client_id, req.client_seq, seq, result)


def test_start_broadcasts_to_all_and_arms_retransmit():
    c = make_client()
    effects = c.start(0)
    sends = [e for e in effects if e[0] == "send"]
    assert [dst for _, dst, _ in sends] == [("replica", i) for i in range(3)]
    assert effects[-1][0] == "timer"
    assert not c.done()


def test_requests_carry_verifiable_auth():
    c = make_client()
    c.start(0)
    req = c.inflight
    import hmac as hmaclib
    want = hmaclib.new(KEY, req.digest(), "sha256").digest()
    assert req.auth == want


def test_weak_quorum_of_matching_results_completes():
    c = make_client(total_requests=1)
    c.start(0)
    req = c.inflight
    r1 = r2 = reply_to(req)
    assert c.on_reply(r1, 0, 10) == []
    assert c.inflight is not None
    c.on_reply(r2, 1, 20)
    assert c.done()
    assert c.records[0].completed_ns == 20


def test_mismatched_results_do_not_complete():
    c = make_client(total_requests=1)
    c.start(0)
    req = c.inflight
    c.on_reply(reply_to(req, result=b"a"), 0, 10)
    c.on_reply(reply_to(req, result=b"b"), 1, 20)
    assert not c.done()
    c.on_reply(reply_to(req, result=b"a"), 2, 30)
    assert c.done()


def test_one_replica_cannot_complete_alone():
    c = make_client(total_requests=1)
    c.start(0)
    req = c.inflight
    c.on_reply(reply_to(req), 2, 10)
    # the same replica repeating itself is still one voice
    c.on_reply(reply_to(req), 2, 20)
    assert not c.done()


def test_forged_replica_ids_are_still_one_voice():
    # a reply names no replica, so replica 2 has no other name to answer
    # in: two different replies it delivers are one voice
    c = make_client(total_requests=1)
    c.start(0)
    req = c.inflight
    for seq in (1, 2):
        c.on_reply(reply_to(req, seq=seq), 2, 10)
    assert not c.done()


def test_a_resent_reply_counts_under_the_replica_that_sent_it():
    # replica 1 took state from replica 0 by transfer and resends the reply
    # it got, the very object replica 0 sent: two replicas have answered
    c = make_client(total_requests=1)
    c.start(0)
    rep = reply_to(c.inflight)
    c.on_reply(rep, 0, 10)
    c.on_reply(rep, 1, 20)
    assert c.done()


def test_strict_policy_needs_matching_seq_too():
    c = make_client(policy="n-f", total_requests=1)
    c.start(0)
    req = c.inflight
    c.on_reply(reply_to(req, seq=1), 0, 10)
    c.on_reply(reply_to(req, seq=2), 1, 20)
    assert not c.done()  # same result, disagreeing seq assignment
    c.on_reply(reply_to(req, seq=1), 2, 30)
    assert c.done()


def test_next_request_submits_after_completion():
    c = make_client(total_requests=2)
    c.start(0)
    first = c.inflight
    for rid in (0, 1):
        effects = c.on_reply(reply_to(first), rid, 5)
    sends = [e for e in effects if e[0] == "send"]
    assert len(sends) == 3
    assert c.inflight.client_seq == 2
    assert not c.done()


def test_stale_replies_ignored():
    c = make_client(total_requests=2)
    c.start(0)
    first = c.inflight
    for rid in (0, 1):
        c.on_reply(reply_to(first), rid, 5)
    # replies for the finished request must not advance the new one
    assert c.on_reply(reply_to(first), 2, 9) == []
    assert c.inflight.client_seq == 2


def test_retransmit_rebroadcasts_only_while_pending():
    c = make_client(total_requests=1)
    c.start(0)
    req = c.inflight
    effects = c.on_timer("retransmit", (0, req.client_seq), 400)
    assert len([e for e in effects if e[0] == "send"]) == 3
    assert c.retransmits == 1
    for rid in (0, 1):
        c.on_reply(reply_to(req), rid, 500)
    assert c.on_timer("retransmit", (0, req.client_seq), 700) == []
    assert c.retransmits == 1


def test_payloads_differ_per_request_and_completion_is_counted():
    c = make_client(total_requests=2, payload_size=16)
    c.start(0)
    p1 = c.inflight.payload
    for rid in (0, 1):
        c.on_reply(reply_to(c.inflight), rid, 5)
    p2 = c.inflight.payload
    assert p1 != p2 and len(p1) == len(p2) == 16
    for rid in (1, 2):
        c.on_reply(reply_to(c.inflight), rid, 9)
    assert c.done() and c.completed_count() == 2


def _reference_complete(replies, n, f, policy) -> bool:
    """The O(n) tally the incremental one replaced, over the latest reply
    from each replica."""
    strict = policy == "n-f"
    need = n - f if strict else f + 1
    tally = {}
    for rep in replies.values():
        k = (rep.result, rep.seq) if strict else rep.result
        tally[k] = tally.get(k, 0) + 1
    return any(c >= need for c in tally.values())


def _completes_at(policy, n, f, answers):
    """Index of the reply that completes the request, by the client and by
    the reference tally: answers are (replica, result, seq) triples."""
    c = Client(0, KEY, n=n, f=f, policy=policy, total_requests=1)
    c.start(0)
    req = c.inflight
    latest, got, want = {}, None, None
    for i, (rid, result, seq) in enumerate(answers):
        rep = m.Reply(req.client_id, req.client_seq, seq, result)
        c.on_reply(rep, rid, i)
        if got is None and c.done():
            got = i
        latest[rid] = rep
        if want is None and _reference_complete(latest, n, f, policy):
            want = i
    return got, want


@pytest.mark.parametrize("policy,answers,at", [
    # replica 0 changes its answer: its first one no longer counts
    ("f+1", [(0, b"a", 1), (0, b"b", 1), (1, b"a", 1), (2, b"b", 1)], 3),
    ("n-f", [(0, b"a", 1), (0, b"a", 2), (1, b"a", 1), (2, b"a", 2)], 3),
    # a repeated answer is not a second vote
    ("f+1", [(0, b"a", 1), (0, b"a", 1), (1, b"a", 1)], 2),
    ("n-f", [(0, b"a", 1), (0, b"a", 1), (1, b"a", 1)], 2),
])
def test_a_replaced_reply_is_taken_off_its_old_result(policy, answers, at):
    assert _completes_at(policy, 3, 1, answers) == (at, at)


@settings(max_examples=200, deadline=None)
@given(policy=st.sampled_from(["f+1", "n-f"]),
       answers=st.lists(st.tuples(st.integers(0, 4), st.sampled_from([b"a", b"b"]),
                                  st.integers(1, 2)), max_size=14))
def test_incremental_tally_completes_when_the_full_tally_would(policy, answers):
    got, want = _completes_at(policy, 5, 2, answers)
    assert got == want
