"""Deterministic discrete-event simulator for the replication protocol.

Virtual time is integer nanoseconds. The event heap orders by (time,
priority, insertion id); deliveries carry a lower priority number than
timers, so a message arriving at the same instant a timer expires is
processed first. Per-message network delays are derived from a keyed hash of
the channel and a per-channel counter, never from a shared PRNG stream, so
two runs that differ only in an extra message class keep identical delays
for the messages they have in common.

After every run the safety oracle (safety_violations, which the model
checker also asserts at every reachable state) inspects final replica state:
committed and admitted digests must not conflict across correct replicas,
execution digests must agree on common prefixes, and no trusted component
may have issued two certificates for one counter value or context id. With
a liveness check (every submitted request should have executed somewhere)
its findings form the run verdict; scenario tests assert against it.
"""

from __future__ import annotations

import csv
import hashlib
import heapq
import io
import json
import os
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Dict, Iterable, List, Set, Tuple

from . import adversary as adversary_mod
from . import messages as m
from . import resource_model as rm
from .clients import Client
from .config import SimConfig
from .protocol import Replica
from .tc import (
    ContextCertificate,
    Directory,
    TcMode,
    TrustedComponent,
    UniqueIdentifier,
    _enc,
)

TALLY_FIELDS = ["f", "n", "B", "delta", "decisions", "msgs_total",
                "msgs_decision", "bytes_total", "overhead_msgs",
                "overhead_bytes"]

_PRIO_ADMIN = -1
_PRIO_DELIVER = 0
_PRIO_TIMER = 1


@dataclass
class RunResult:
    cfg: SimConfig
    verdict: Dict
    msgs_by_type: Dict[str, int]
    bytes_by_type: Dict[str, int]
    latency: List
    trace: List[Dict]
    end_ns: int
    tc_accesses: Dict[int, int]
    replicas: List[Replica] = field(repr=False, default_factory=list)
    clients: List[Client] = field(repr=False, default_factory=list)

    @property
    def msgs_total(self) -> int:
        return sum(self.msgs_by_type.values())

    @property
    def bytes_total(self) -> int:
        return sum(self.bytes_by_type.values())

    def tally_row(self, overhead_msgs="", overhead_bytes="") -> Dict:
        return {
            "f": self.cfg.f, "n": self.cfg.n, "B": self.cfg.batch_size,
            "delta": self.cfg.delta_ns, "decisions": int(self.cfg.decisions),
            "msgs_total": self.msgs_total,
            "msgs_decision": self.msgs_by_type.get("decision", 0),
            "bytes_total": self.bytes_total,
            "overhead_msgs": overhead_msgs, "overhead_bytes": overhead_bytes,
        }

    def summary_dict(self) -> Dict:
        lat = [r.completed_ns - r.submitted_ns for r in self.latency]
        return {
            "f": self.cfg.f, "n": self.cfg.n,
            "batch_size": self.cfg.batch_size,
            "mode": self.cfg.mode, "tc_mode": self.cfg.tc_mode,
            "decisions": self.cfg.decisions,
            "adversary": self.cfg.adversary,
            "seed": self.cfg.seed,
            "end_ns": self.end_ns,
            "verdict": self.verdict,
            "msgs_by_type": dict(sorted(self.msgs_by_type.items())),
            "bytes_by_type": dict(sorted(self.bytes_by_type.items())),
            "msgs_total": self.msgs_total,
            "bytes_total": self.bytes_total,
            "tc_accesses": {str(k): v for k, v in sorted(self.tc_accesses.items())},
            "latency_ns": {
                "count": len(lat),
                "mean": (sum(lat) // len(lat)) if lat else None,
                "max": max(lat) if lat else None,
            },
        }

    def write_outputs(self, outdir: str) -> None:
        os.makedirs(outdir, exist_ok=True)
        with open(os.path.join(outdir, "trace.jsonl"), "w") as fh:
            for rec in self.trace:
                fh.write(json.dumps(rec, sort_keys=True) + "\n")
        with open(os.path.join(outdir, "summary.json"), "w") as fh:
            json.dump(self.summary_dict(), fh, indent=2, sort_keys=True)
            fh.write("\n")
        write_tally_csv(os.path.join(outdir, "tallies.csv"), [self.tally_row()])


def write_tally_csv(path: str, rows: List[Dict]) -> None:
    with open(path, "w", newline="") as fh:
        w = csv.DictWriter(fh, fieldnames=TALLY_FIELDS)
        w.writeheader()
        for row in rows:
            w.writerow(row)


class Simulator:
    def __init__(self, cfg: SimConfig):
        cfg.validate()
        self.cfg = cfg
        self.now = 0
        self._eid = 0
        self._heap: List = []
        self._chan: Dict[Tuple[str, str], int] = {}
        self._seed_key = hashlib.sha256(_enc("delay", cfg.seed)).digest()[:32]
        self.trace: List[Dict] = []
        self.msgs_by_type: Dict[str, int] = {}
        self.bytes_by_type: Dict[str, int] = {}
        self._blobs: Dict[int, object] = {}
        self._build()

    # ------------------------------------------------------------- assembly

    def _build(self) -> None:
        cfg = self.cfg
        mode = TcMode.HMAC if cfg.tc_mode == "hmac" else TcMode.SIG
        system_key = (hashlib.sha256(_enc("syskey", cfg.seed)).digest()
                      if mode is TcMode.HMAC else None)
        self.system_key = system_key
        self.directory = Directory(mode)
        self.tcs: List[TrustedComponent] = []
        for rid in range(cfg.n):
            strict = not (cfg.vulnerable_tc and rid == 0)
            tc = self._component(rid, mode, strict, epoch=1)
            self.directory.register(rid, 1, tc.public_key())
            self.tcs.append(tc)
        client_keys = {cid: hashlib.sha256(_enc("client", cfg.seed, cid)).digest()
                       for cid in range(cfg.clients)}
        self.replicas: List[Replica] = [
            Replica(rid, cfg, self.tcs[rid], self.directory, client_keys)
            for rid in range(cfg.n)]
        self.byz_ids = adversary_mod.install(self)
        self.clients: List[Client] = [
            Client(cid, client_keys[cid], cfg.n, cfg.f,
                   policy=cfg.reply_policy,
                   total_requests=cfg.requests_per_client,
                   payload_size=cfg.payload_size,
                   retransmit_ns=cfg.retransmit_ns)
            for cid in range(cfg.clients)]
        for c in self.clients:
            self._apply(("client", c.id), c.start(0))

    def _component(self, rid: int, mode: TcMode, strict: bool, epoch: int,
                   rekey: bool = False) -> TrustedComponent:
        """Trusted component for replica `rid`. Built and restored instances
        share the replica's signing key; a restarted one (rekey) derives a
        new key from its new epoch."""
        key_id = (rid, epoch) if rekey else (rid,)
        return TrustedComponent(
            rid, mode=mode, strict=strict, epoch=epoch,
            system_key=self.system_key,
            sig_seed=hashlib.sha256(_enc("sig", self.cfg.seed, *key_id)).digest())

    # ------------------------------------------------------------ scheduling

    def _push(self, t: int, prio: int, kind: str, data) -> None:
        self._eid += 1
        heapq.heappush(self._heap, (t, prio, self._eid, kind, data))

    def schedule_admin(self, t: int, action: str, params: Dict) -> None:
        self._push(t, _PRIO_ADMIN, "admin", (action, params))

    def _delay(self, src: str, dst: str) -> int:
        idx = self._chan.get((src, dst), 0)
        self._chan[(src, dst)] = idx + 1
        lo, hi = self.cfg.delay_min_ns, self.cfg.delay_max_ns
        if lo == hi:
            return lo
        h = hashlib.blake2b(_enc(src, dst, idx), key=self._seed_key,
                            digest_size=8).digest()
        return lo + int.from_bytes(h, "big") % (hi - lo + 1)

    def _label(self, who: Tuple[str, int]) -> str:
        kind, ident = who
        return f"r{ident}" if kind == "replica" else f"c{ident}"

    def _apply(self, owner: Tuple[str, int], effects: List[tuple]) -> None:
        src = self._label(owner)
        for eff in effects:
            tag = eff[0]
            if tag == "send":
                _, dst, msg = eff
                mtype = m.msg_type(msg)
                size = m.wire_size(msg, self.cfg.sizes, self.cfg.f)
                self.msgs_by_type[mtype] = self.msgs_by_type.get(mtype, 0) + 1
                self.bytes_by_type[mtype] = self.bytes_by_type.get(mtype, 0) + size
                t = self.now + self._delay(src, self._label(dst))
                self._push(t, _PRIO_DELIVER, "deliver", (dst, src, msg))
            elif tag == "timer":
                _, kind, key, delay = eff
                self._push(self.now + delay, _PRIO_TIMER, "timer",
                           (owner, kind, key))
            elif tag == "note":
                if self.cfg.record_trace:
                    rec = {"t": self.now, "who": src}
                    rec.update(eff[1])
                    self.trace.append(rec)
            else:
                raise ValueError(f"unknown effect {tag!r}")

    # ------------------------------------------------------------------ run

    def run(self) -> RunResult:
        cfg = self.cfg
        end = 0
        while self._heap:
            t, prio, eid, kind, data = heapq.heappop(self._heap)
            if t > cfg.duration_ns:
                break
            self.now = t
            end = t
            if kind == "deliver":
                dst, src, msg = data
                if cfg.record_trace:
                    self.trace.append({"t": t, "ev": "deliver",
                                       "dst": self._label(dst), "src": src,
                                       "type": m.msg_type(msg)})
                if dst[0] == "replica":
                    rep = self.replicas[dst[1]]
                    self._apply(dst, rep.handle(msg, t))
                else:
                    cli = self.clients[dst[1]]
                    if isinstance(msg, m.Reply):
                        self._apply(dst, cli.on_reply(msg, t))
            elif kind == "timer":
                owner, tkind, tkey = data
                if cfg.record_trace:
                    self.trace.append({"t": t, "ev": "timer",
                                       "who": self._label(owner), "kind": tkind})
                if owner[0] == "replica":
                    rep = self.replicas[owner[1]]
                    self._apply(owner, rep.on_timer(tkind, tkey, t))
                else:
                    cli = self.clients[owner[1]]
                    self._apply(owner, cli.on_timer(tkind, tkey, t))
            elif kind == "admin":
                action, params = data
                self._admin(action, params)
        verdict = self._verdict()
        return RunResult(
            cfg=cfg, verdict=verdict,
            msgs_by_type=self.msgs_by_type, bytes_by_type=self.bytes_by_type,
            latency=[r for c in self.clients for r in c.records],
            trace=self.trace, end_ns=end,
            tc_accesses={r.id: r.tc.accesses for r in self.replicas},
            replicas=self.replicas, clients=self.clients)

    # ----------------------------------------------------------- admin hooks

    def _admin(self, action: str, params: Dict) -> None:
        if self.cfg.record_trace:
            self.trace.append({"t": self.now, "ev": "admin", "action": action,
                               **{k: v for k, v in params.items()}})
        if action == "tc_crash":
            rid = params["replica"]
            tc = self.replicas[rid].tc
            if not tc.is_crashed():
                self._blobs[rid] = tc.snapshot()  # admin backup, then pull the plug
                tc.crash()
        elif action == "tc_restore":
            rid = params["replica"]
            old = self.replicas[rid].tc
            fresh = self._component(rid, old.mode, old.strict, old.epoch)
            fresh.restore(self._blobs.pop(rid))
            self.replicas[rid].tc = fresh
        elif action == "tc_restart":
            rid = params["replica"]
            old = self.replicas[rid].tc
            self.replicas[rid].tc = self._component(
                rid, old.mode, old.strict, old.epoch + 1, rekey=True)
        else:
            raise ValueError(f"unknown admin action {action!r}")

    # -------------------------------------------------------------- verdicts

    def _verdict(self) -> Dict:
        correct = [r for r in self.replicas if r.id not in self.byz_ids]
        violations = safety_violations(self.replicas, self.byz_ids)

        submitted = set()
        for c in self.clients:
            upto = c.next_seq - 1 if c.inflight is None else c.next_seq
            submitted |= {(c.id, s) for s in range(1, upto + 1)}
        executed_union = set()
        for r in correct:
            executed_union |= set(r.executed)
        missing = sorted(submitted - executed_union)

        return {
            "safety_ok": not violations,
            "violations": violations,
            "all_committed": not missing,
            "missing_requests": missing[:20],
            "all_clients_done": all(c.done() for c in self.clients),
            "completed_requests": sum(c.completed_count() for c in self.clients),
            "submitted_requests": len(submitted),
            "max_view": max((r.view for r in correct), default=0),
            "flagged": sorted((r.id, sorted(r.flagged_views))
                              for r in correct if r.flagged_views),
            "decisions_sent": sum(r.decisions_sent for r in correct),
            "decisions_suppressed": sum(r.decisions_suppressed for r in correct),
            "stale_epoch_drops": sum(r.stats["stale_epoch_drops"]
                                     for r in correct),
            "retransmits": sum(c.retransmits for c in self.clients),
        }


def _claims(digs: Dict[bytes, List[int]]) -> Dict[str, List[int]]:
    return {d.hex()[:12]: sorted(rs) for d, rs in digs.items()}


def safety_violations(replicas: Iterable[Replica], byz: Set[int]) -> List[Dict]:
    """Every safety violation visible in the replicas' current state.

    Across correct replicas (ids not in `byz`): no two commit different
    digests at one seq, no two admit different digests at one (view, seq),
    and execution digests agree wherever two replicas executed the same seq.
    Across every replica's trusted component: no counter value and no
    context id was certified twice. The simulator reports the list as its
    verdict; the model checker asserts it is empty at every reachable state.
    """
    replicas = list(replicas)
    correct = [r for r in replicas if r.id not in byz]
    violations: List[Dict] = []

    by_seq: Dict[int, Dict[bytes, List[int]]] = {}
    by_slot: Dict[Tuple[int, int], Dict[bytes, List[int]]] = {}
    for r in correct:
        for seq, dig in r.committed_history.items():
            by_seq.setdefault(seq, {}).setdefault(dig, []).append(r.id)
        for view, seq, dig in r.prepared_history:
            by_slot.setdefault((view, seq), {}).setdefault(dig, []).append(r.id)
    for seq, digs in sorted(by_seq.items()):
        if len(digs) > 1:
            violations.append({"kind": "conflicting_commit", "seq": seq,
                               "claims": _claims(digs)})
    for (view, seq), digs in sorted(by_slot.items()):
        if len(digs) > 1:
            violations.append({"kind": "conflicting_admission", "view": view,
                               "seq": seq, "claims": _claims(digs)})

    for a in correct:
        for b in correct:
            if b.id <= a.id:
                continue
            for seq in set(a.exec_history) & set(b.exec_history):
                if a.exec_history[seq] != b.exec_history[seq]:
                    violations.append({"kind": "divergent_execution",
                                       "seq": seq, "replicas": [a.id, b.id]})

    for r in replicas:
        seen_ui: Set[Tuple[str, int]] = set()
        seen_ctx: Set[Tuple[str, int, int]] = set()
        for cert in r.tc.issued_certificates():
            if isinstance(cert, UniqueIdentifier):
                key = (cert.counter, cert.value)
                if key in seen_ui:
                    violations.append({"kind": "double_ui", "replica": r.id,
                                       "counter": key[0], "value": key[1]})
                seen_ui.add(key)
            elif isinstance(cert, ContextCertificate):
                key = (cert.phase, cert.view, cert.seq)
                if key in seen_ctx:
                    violations.append({"kind": "double_context",
                                       "replica": r.id, "context": key})
                seen_ctx.add(key)
    return violations


def run(cfg: SimConfig) -> RunResult:
    return Simulator(cfg).run()


def measure_overhead(cfg: SimConfig) -> Dict:
    """Paired runs, identical but for Decision forwarding, plus the model.

    Overheads are exact fractions of message and byte totals. Under a
    constant-delay network with clients == batch size the simulator's totals
    coincide with the closed-form fault-free counts, so the comparison is
    exact, not approximate.
    """
    import dataclasses as dc
    on = run(dc.replace(cfg, decisions=True))
    off = run(dc.replace(cfg, decisions=False))
    msgs_on, msgs_off = on.msgs_total, off.msgs_total
    bytes_on, bytes_off = on.bytes_total, off.bytes_total
    sim_msgs = Fraction(msgs_on - msgs_off, msgs_off)
    sim_bytes = Fraction(bytes_on - bytes_off, bytes_off)
    model_msgs = rm.decision_msg_overhead(cfg.f, cfg.batch_size)
    model_bytes = rm.decision_byte_overhead(
        cfg.f, cfg.batch_size, cfg.sizes, cfg.threshold_proofs)
    rounds = (cfg.clients * cfg.requests_per_client) // cfg.batch_size
    model_on = rm.fault_free_message_counts(
        cfg.f, cfg.batch_size, rounds, decisions=True)["total"]
    model_off = rm.fault_free_message_counts(
        cfg.f, cfg.batch_size, rounds, decisions=False)["total"]
    return {
        "f": cfg.f, "B": cfg.batch_size,
        "sim_msgs_on": msgs_on, "sim_msgs_off": msgs_off,
        "sim_bytes_on": bytes_on, "sim_bytes_off": bytes_off,
        "model_msgs_on": model_on, "model_msgs_off": model_off,
        "sim_msg_overhead": sim_msgs, "model_msg_overhead": model_msgs,
        "sim_byte_overhead": sim_bytes, "model_byte_overhead": model_bytes,
        "msgs_match": sim_msgs == model_msgs and msgs_on == model_on
                      and msgs_off == model_off,
        "bytes_match": sim_bytes == model_bytes,
        "runs": (on, off),
    }
