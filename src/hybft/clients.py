"""Closed-loop clients: broadcast a request, wait for matching replies.

A client keeps exactly one request in flight. Under the "f+1" policy it
accepts a result once f+1 replicas report the same result digest; under
"n-f" it additionally demands an identical assigned sequence number from
n-f replicas before moving on. Unanswered requests are rebroadcast on a
timer. Completion times are recorded so a run can report latency and
responsiveness per client.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass
from typing import Dict, List, Optional

from . import messages as m


@dataclass
class LatencyRecord:
    client_id: int
    client_seq: int
    submitted_ns: int
    completed_ns: int


class Client:
    def __init__(self, client_id: int, key: bytes, n: int, f: int, *,
                 policy: str = "f+1", total_requests: int = 1,
                 payload_size: int = 32, retransmit_ns: int = 300_000_000):
        self.id = client_id
        self.key = key
        self.n = n
        self.policy = policy
        self.quorum = n - f if policy == "n-f" else f + 1
        self.total = total_requests
        self.payload_size = payload_size
        self.retransmit_ns = retransmit_ns

        self.next_seq = 1
        self.inflight: Optional[m.Request] = None
        self.submitted_at = 0
        self.replies: Dict[int, m.Reply] = {}   # sender -> its latest reply
        self.tally: Dict = {}                   # result key -> replies naming it
        self.records: List[LatencyRecord] = []
        self.retransmits = 0

    def make_request(self, seq: int) -> m.Request:
        """Request `seq` of this client, tagged with its key."""
        payload = hashlib.shake_256(
            f"client{self.id}:{seq}".encode()).digest(self.payload_size)
        return m.tagged_request(self.key, self.id, seq, payload)

    def start(self, now: int) -> List[tuple]:
        if self.total < 1:
            return []
        return self._submit(now)

    def _submit(self, now: int) -> List[tuple]:
        req = self.make_request(self.next_seq)
        self.inflight = req
        self.submitted_at = now
        self.replies = {}
        self.tally = {}
        out = [("send", ("replica", i), req) for i in range(self.n)]
        out.append(("timer", "retransmit", (self.id, req.client_seq),
                    self.retransmit_ns))
        return out

    def on_reply(self, rep: m.Reply, sender: int, now: int) -> List[tuple]:
        """Count `rep` under `sender`, the replica the host delivered it
        from. A reply names no replica, so a replica that took state by
        transfer resends the replies it got as its own."""
        req = self.inflight
        if req is None or rep.client_seq != req.client_seq:
            return []
        # what replies must agree on: the result, and under "n-f" also the
        # assigned sequence number
        by_seq = self.policy == "n-f"
        old = self.replies.get(sender)
        if old is not None:
            self.tally[(old.result, old.seq) if by_seq else old.result] -= 1
        self.replies[sender] = rep
        key = (rep.result, rep.seq) if by_seq else rep.result
        count = self.tally[key] = self.tally.get(key, 0) + 1
        # no other key gained a reply, and none had a quorum before this one
        if count < self.quorum:
            return []
        self.records.append(LatencyRecord(self.id, req.client_seq,
                                          self.submitted_at, now))
        self.inflight = None
        self.next_seq += 1
        if self.next_seq > self.total:
            return []
        return self._submit(now)

    def on_timer(self, kind: str, key, now: int) -> List[tuple]:
        if kind != "retransmit":
            return []
        req = self.inflight
        if req is None or key != (self.id, req.client_seq):
            return []
        self.retransmits += 1
        out = [("send", ("replica", i), req) for i in range(self.n)]
        out.append(("timer", "retransmit", key, self.retransmit_ns))
        return out

    def done(self) -> bool:
        return self.inflight is None and self.next_seq > self.total

    def completed_count(self) -> int:
        return len(self.records)
