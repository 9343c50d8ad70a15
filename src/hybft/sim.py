"""Deterministic discrete-event simulator for the replication protocol.

Virtual time is integer nanoseconds. Events run in (time, priority,
insertion) order; deliveries carry a lower priority number than timers, so a
message arriving at the same instant a timer expires is processed first. In
the EventQueue a seeded send, which nearly always has a (time, priority) of
its own, is one heap entry, and a broadcast under a constant delay is one
heap entry for all its recipients. Per-message network delays are derived
from a keyed hash of the channel and a per-channel counter, never from a
shared PRNG stream, so two runs that differ only in an extra message class
keep identical delays for the messages they have in common. A constant delay
needs neither. A handler's exception leaves the run with a note naming the
seed, the event's index and time, its owner and its message type or timer.

The host's bookkeeping is per step, not per message. Most steps return no
effects (at f=30 nearly every request and reply delivery), and those skip
`_apply`; after every replica step the ledger takes the certificates its
component issued, if it issued any. `_apply` sizes, names and counts a
run of sends at once, of one message object (a broadcast) or of one
fixed-size type (a step's replies), and under a constant delay appends every
send of the step to the one event list of its (time, priority) key.

Construction, the event loop and the verdict run with CPython's cycle
collector off and put back the caller's setting when they end, as timeit
does. A run makes no reference cycles, so every object it drops is freed by
reference counting, and the collector would only re-scan the live Replies,
dict entries and queued events on each pass (a quarter of the CPU time of
the f=30 overhead pair) to free nothing. A RunResult holds no hosts, so a
finished run's replicas and clients go as soon as its Simulator does; `run`
puts the collector back only then, or its first pass would re-scan every
object the run still held.

After every run the safety oracle (safety_violations, which the model
checker also asserts at every reachable state) reads the run's Ledger, which
the host keeps apart from the replicas it observes: committed and admitted
digests must not conflict across correct replicas, execution digests must
agree on common prefixes, and no trusted component may have issued two
certificates for one counter value or context id within one epoch. With a
liveness check (every submitted request should have executed somewhere) its
findings form the run verdict; scenario tests assert against it.
"""

from __future__ import annotations

import csv
import gc
import hashlib
import heapq
import itertools
import json
import os
import threading
from contextlib import contextmanager
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Dict, Iterator, List, Set, Tuple

from . import adversary as adversary_mod
from . import messages as m
from . import resource_model as rm
from .clients import Client
from .config import SimConfig
from .encoding import _INT, _enc, _h
from .protocol import Replica
from .tc import (
    ContextCertificate,
    Directory,
    TcMode,
    TrustedComponent,
    UniqueIdentifier,
)

TALLY_FIELDS = ["f", "n", "B", "delta", "decisions", "msgs_total",
                "msgs_decision", "bytes_total", "overhead_msgs",
                "overhead_bytes"]

_PRIO_ADMIN = -1
_PRIO_DELIVER = 0
_PRIO_TIMER = 1

_NOT_A_MESSAGE = object()


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


class EventQueue:
    """Events in (time, priority, insertion) order.

    A pushed event is one heap entry, (time, priority, insertion number,
    event). `slot` opens an event list at a (time, priority) key instead:
    one heap entry for every event appended to it, which is how a broadcast
    under a constant delay is queued. While a key's list is open, a push at
    that key joins the list, so the key's events keep insertion order.
    Iterating pops (time, priority, event) until the queue is empty; events
    pushed meanwhile join in order. When a handler pushes below the key of
    the list being drained (a zero-delay delivery among the timers of its
    instant), the list's remaining events go back on the heap under their
    old insertion number, still ahead of any later push at that key. An
    event is never a list.
    """

    def __init__(self):
        self._heap: List[tuple] = []
        self._lists: Dict[Tuple[int, int], list] = {}   # the open slots
        self._count = itertools.count()

    def push(self, t: int, prio: int, event) -> None:
        lists = self._lists
        if lists:
            events = lists.get((t, prio))
            if events is not None:
                events.append(event)
                return
        heapq.heappush(self._heap, (t, prio, next(self._count), event))

    def slot(self, t: int, prio: int) -> list:
        """The event list of key (t, prio): appending to it is a push."""
        events = self._lists.get((t, prio))
        if events is None:
            events = self._lists[(t, prio)] = []
            heapq.heappush(self._heap, (t, prio, next(self._count), events))
        return events

    def __iter__(self):
        heap, lists, pop = self._heap, self._lists, heapq.heappop
        while heap:
            t, prio, n, item = pop(heap)
            if type(item) is not list:
                yield t, prio, item
                continue
            key = (t, prio)
            for i, event in enumerate(item):
                yield t, prio, event
                if heap and heap[0] < key:
                    rest = item[i + 1:]
                    if rest:
                        lists[key] = rest
                        heapq.heappush(heap, (t, prio, n, rest))
                    else:
                        del lists[key]
                    break
            else:
                del lists[key]


def _delays(keyed, lo: int, hi: int) -> Iterator[int]:
    """One channel's delays in lo..hi, in order: the idx-th is drawn from
    the channel's keyed hash extended by idx. It holds no simulator, so a
    run's channels make no reference cycle."""
    span = hi - lo + 1
    for idx in itertools.count():
        h = keyed.copy()
        h.update(_INT(8, idx))
        yield lo + int.from_bytes(h.digest(), "big") % span


@contextmanager
def _collector_off():
    """The cycle collector off inside, the caller's setting back after."""
    collecting = gc.isenabled()
    gc.disable()
    try:
        yield
    finally:
        if collecting:
            gc.enable()


class Simulator:
    def __init__(self, cfg: SimConfig):
        cfg.validate()
        self.cfg = cfg
        self.now = 0
        self._queue = EventQueue()
        # per source and destination: the channel's varying delays
        self._chan: Dict[tuple, Dict[tuple, Iterator[int]]] = {}
        self._seed_key = _h(_enc("delay", cfg.seed))[:32]
        self.trace: List[Dict] = []
        self.msgs_by_type: Dict[str, int] = {}
        self.bytes_by_type: Dict[str, int] = {}
        # (size, name) per m.FIXED_SIZE type
        self._sized: Dict[type, Tuple[int, str]] = {}
        self._blobs: Dict[int, object] = {}
        self.ledger = Ledger()
        with _collector_off():
            self._build()

    # ------------------------------------------------------------- assembly

    def _build(self) -> None:
        cfg = self.cfg
        mode = TcMode.HMAC if cfg.tc_mode == "hmac" else TcMode.SIG
        system_key = (_h(_enc("syskey", cfg.seed))
                      if mode is TcMode.HMAC else None)
        self.system_key = system_key
        self.directory = Directory(mode)
        client_keys = {cid: _h(_enc("client", cfg.seed, cid))
                       for cid in range(cfg.clients)}
        self.replicas: List[Replica] = []
        for rid in range(cfg.n):
            strict = not (cfg.vulnerable_tc and rid == 0)
            tc = self._component(rid, mode, strict, epoch=1)
            self.directory.register(rid, 1, tc.public_key())
            self.replicas.append(
                Replica(rid, cfg, tc, self.directory, client_keys))
        self._labels = {("replica", rid): f"r{rid}" for rid in range(cfg.n)}
        self._labels.update({("client", cid): f"c{cid}"
                             for cid in range(cfg.clients)})
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
            sig_seed=_h(_enc("sig", self.cfg.seed, *key_id)))

    # ------------------------------------------------------------ scheduling

    def schedule_admin(self, t: int, action: str, params: Dict) -> None:
        self._queue.push(t, _PRIO_ADMIN, (action, params))

    def _delay(self, src: Tuple[str, int], dst: Tuple[str, int]) -> int:
        """The next delay on channel (src, dst) (see _delays)."""
        try:
            return next(self._chan[src][dst])
        except KeyError:
            delays = self._chan.setdefault(src, {})[dst] = _delays(
                hashlib.blake2b(_enc(self._labels[src], self._labels[dst]),
                                key=self._seed_key, digest_size=8),
                self.cfg.delay_min_ns, self.cfg.delay_max_ns)
            return next(delays)

    def _apply(self, owner: Tuple[str, int], effects: List[tuple]) -> None:
        # Sizing comes first, so an unsized message raises before any send
        # of it is queued or counted; a fixed-size type is sized once per
        # simulator. A run of sends is counted at once: sends of one object
        # (a broadcast) or of one fixed-size type (a step's replies), so
        # `run` is that object or that type. A varying delay is drawn per
        # send, on its channel.
        cfg, queue, now, draw = self.cfg, self._queue, self.now, self._delay
        msgs, nbytes = self.msgs_by_type, self.bytes_by_type
        constant = cfg.delay_min_ns == cfg.delay_max_ns
        deliveries = None
        run, sends = _NOT_A_MESSAGE, 0
        for eff in effects:
            tag = eff[0]
            if tag == "send":
                _, dst, msg = eff
                if msg is not run and type(msg) is not run:
                    if sends:
                        msgs[mtype] = msgs.get(mtype, 0) + sends
                        nbytes[mtype] = nbytes.get(mtype, 0) + sends * size
                    cls = type(msg)
                    fixed = cls in m.FIXED_SIZE
                    sized = self._sized.get(cls)
                    if sized is None:
                        sized = (m.wire_size(msg, cfg.sizes, cfg.f),
                                 m.msg_type(msg))
                        if fixed:
                            self._sized[cls] = sized
                    size, mtype = sized
                    run, sends = (cls if fixed else msg), 0
                sends += 1
                if constant:
                    if deliveries is None:
                        deliveries = queue.slot(now + cfg.delay_min_ns,
                                                _PRIO_DELIVER)
                    deliveries.append((dst, owner, msg))
                else:
                    queue.push(now + draw(owner, dst), _PRIO_DELIVER,
                               (dst, owner, msg))
            elif tag == "timer":
                _, kind, key, delay = eff
                queue.push(now + delay, _PRIO_TIMER, (owner, kind, key))
            elif tag == "note":
                if cfg.record_trace:
                    rec = {"t": now, "who": self._labels[owner]}
                    rec.update(eff[1])
                    self.trace.append(rec)
            elif tag == "fact":
                self.ledger.note(owner[1], eff)
            else:
                raise ValueError(f"unknown effect {tag!r}")
        if sends:
            msgs[mtype] = msgs.get(mtype, 0) + sends
            nbytes[mtype] = nbytes.get(mtype, 0) + sends * size

    # ------------------------------------------------------------------ run

    def run(self) -> RunResult:
        """Run every event up to cfg.duration_ns. A step's effects go to
        `_apply` only if there are any, and after a replica step the ledger
        takes what its component issued, if anything."""
        cfg = self.cfg
        duration, record = cfg.duration_ns, cfg.record_trace
        replicas, clients, ledger = self.replicas, self.clients, self.ledger
        apply, trace, labels = self._apply, self.trace, self._labels
        end = 0
        with _collector_off():
            try:
                for index, (t, prio, event) in enumerate(self._queue):
                    if t > duration:
                        break
                    self.now = end = t
                    if prio == _PRIO_DELIVER:
                        owner, src, msg = event
                        if record:
                            trace.append({"t": t, "ev": "deliver",
                                          "dst": labels[owner],
                                          "src": labels[src],
                                          "type": m.msg_type(msg)})
                        if owner[0] == "replica":
                            effects = replicas[owner[1]].handle(msg, t)
                        elif isinstance(msg, m.Reply):
                            effects = clients[owner[1]].on_reply(msg, src[1], t)
                        else:
                            continue
                    elif prio == _PRIO_TIMER:
                        owner, kind, key = event
                        if record:
                            trace.append({"t": t, "ev": "timer",
                                          "who": labels[owner], "kind": kind})
                        effects = (replicas if owner[0] == "replica" else
                                   clients)[owner[1]].on_timer(kind, key, t)
                    else:
                        self._admin(*event)
                        continue
                    if effects:
                        apply(owner, effects)
                    if owner[0] == "replica":
                        tc = replicas[owner[1]].tc
                        if tc.issued:
                            ledger.note_issued(owner[1], tc.take_issued())
            except Exception as exc:
                exc.add_note(self._context(index, t, prio, event))
                raise
            verdict = self._verdict()
        return RunResult(
            cfg=cfg, verdict=verdict,
            msgs_by_type=self.msgs_by_type, bytes_by_type=self.bytes_by_type,
            latency=[r for c in self.clients for r in c.records],
            trace=self.trace, end_ns=end,
            tc_accesses={r.id: r.tc.accesses for r in self.replicas})

    def _context(self, index: int, t: int, prio: int, event) -> str:
        """The seed, index, virtual time, owner and kind of a failed event."""
        if prio == _PRIO_ADMIN:
            what = f"admin action {event[0]}"
        elif prio == _PRIO_TIMER:
            what = f"{self._labels[event[0]]} handling timer {event[1]}"
        else:
            what = (f"{self._labels[event[0]]} handling "
                    f"{m.msg_type(event[2])} from {self._labels[event[1]]}")
        return f"seed {self.cfg.seed}, event {index} at t={t} ns: {what}"

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
        violations = safety_violations(self.ledger, self.byz_ids)

        submitted, missing = 0, []
        for c in self.clients:
            upto = c.next_seq - 1 if c.inflight is None else c.next_seq
            submitted += upto
            missing += [(c.id, s) for s in range(1, upto + 1)
                        if not any(r.has_executed(c.id, s) for r in correct)]

        return {
            "safety_ok": not violations,
            "violations": violations,
            "all_committed": not missing,
            "missing_requests": missing[:20],
            "all_clients_done": all(c.done() for c in self.clients),
            "completed_requests": sum(c.completed_count() for c in self.clients),
            "submitted_requests": submitted,
            "max_view": max((r.view for r in correct), default=0),
            "flagged": sorted((r.id, sorted(r.flagged_views))
                              for r in correct if r.flagged_views),
            "decisions_sent": sum(r.stats["decisions_sent"] for r in correct),
            "decisions_suppressed": sum(r.stats["decisions_suppressed"]
                                        for r in correct),
            "stale_epoch_drops": sum(r.stats["stale_epoch_drops"]
                                     for r in correct),
            "retransmits": sum(c.retransmits for c in self.clients),
        }


@dataclass
class _Record:
    """One replica's history as its host saw it."""

    admitted: List[Tuple[int, int, bytes]] = field(default_factory=list)
    committed: Dict[int, bytes] = field(default_factory=dict)
    executed: Dict[int, bytes] = field(default_factory=dict)
    issued: List = field(default_factory=list)

    def copy(self) -> "_Record":
        return _Record(list(self.admitted), dict(self.committed),
                       dict(self.executed), list(self.issued))


class Ledger:
    """What the safety oracle audits, kept by the host of a run.

    Per replica: each admission's (view, seq, batch digest) in order, and the
    batch digest committed and the execution digest reached at each seq,
    from the replica's "fact" effects; and every certificate its components
    issued, in order, taken from its component after each step, so the
    audit spans a component's crash and restore.

    `verdict` is a slot for a caller that scans one ledger more than once
    (the model checker): a byz set and the safety_violations list for it.
    Every note drops it.
    """

    def __init__(self):
        self.records: Dict[int, _Record] = {}
        self.verdict = None

    def _record(self, rid: int) -> _Record:
        rec = self.records.get(rid)
        if rec is None:
            rec = self.records[rid] = _Record()
        return rec

    def note(self, rid: int, fact: tuple) -> None:
        _, kind, key, digest = fact
        self.verdict = None
        rec = self._record(rid)
        if kind == "admit":
            rec.admitted.append((*key, digest))
        elif kind == "commit":
            rec.committed[key] = digest
        else:
            rec.executed[key] = digest

    def note_issued(self, rid: int, issued: List) -> None:
        if issued:
            self.verdict = None
            self._record(rid).issued += issued

    def fork(self, rid: int) -> "Ledger":
        """A copy to record replica `rid`'s next step in; the other replicas'
        records are shared, since only the stepping replica's changes."""
        child = Ledger()
        child.records.update(self.records)
        if rid in self.records:
            child.records[rid] = self.records[rid].copy()
        return child


def _claims(digs: Dict[bytes, List[int]]) -> Dict[str, List[int]]:
    return {d.hex()[:12]: sorted(rs) for d, rs in digs.items()}


def safety_violations(ledger: Ledger, byz: Set[int]) -> List[Dict]:
    """Every safety violation the ledger shows.

    Across correct replicas (ids not in `byz`): no two commit different
    digests at one seq, no two admit different digests at one (view, seq),
    and execution digests agree wherever two replicas executed the same seq.
    Across every replica's components: no counter value and no context id
    was certified twice in one epoch (a restart begins a new epoch). The
    simulator reports the list as its verdict; the model checker asserts it
    is empty at every reachable state.
    """
    records = sorted(ledger.records.items())
    correct = [(rid, rec) for rid, rec in records if rid not in byz]
    violations: List[Dict] = []

    by_seq: Dict[int, Dict[bytes, List[int]]] = {}
    by_slot: Dict[Tuple[int, int], Dict[bytes, List[int]]] = {}
    for rid, rec in correct:
        for seq, dig in rec.committed.items():
            by_seq.setdefault(seq, {}).setdefault(dig, []).append(rid)
        for view, seq, dig in rec.admitted:
            by_slot.setdefault((view, seq), {}).setdefault(dig, []).append(rid)
    for seq, digs in sorted(by_seq.items()):
        if len(digs) > 1:
            violations.append({"kind": "conflicting_commit", "seq": seq,
                               "claims": _claims(digs)})
    for (view, seq), digs in sorted(by_slot.items()):
        if len(digs) > 1:
            violations.append({"kind": "conflicting_admission", "view": view,
                               "seq": seq, "claims": _claims(digs)})

    for i, (a, ra) in enumerate(correct):
        for b, rb in correct[i + 1:]:
            for seq in set(ra.executed) & set(rb.executed):
                if ra.executed[seq] != rb.executed[seq]:
                    violations.append({"kind": "divergent_execution",
                                       "seq": seq, "replicas": [a, b]})

    for rid, rec in records:
        seen_ui: Set[Tuple[int, str, int]] = set()
        seen_ctx: Set[Tuple[int, str, int, int]] = set()
        for cert in rec.issued:
            if isinstance(cert, UniqueIdentifier):
                key = (cert.epoch, cert.counter, cert.value)
                if key in seen_ui:
                    violations.append({"kind": "double_ui", "replica": rid,
                                       "counter": key[1], "value": key[2]})
                seen_ui.add(key)
            elif isinstance(cert, ContextCertificate):
                key = (cert.epoch, cert.phase, cert.view, cert.seq)
                if key in seen_ctx:
                    violations.append({"kind": "double_context",
                                       "replica": rid, "context": key[1:]})
                seen_ctx.add(key)
    return violations


def run(cfg: SimConfig) -> RunResult:
    with _collector_off():
        return Simulator(cfg).run()


def run_all(cfgs: List[SimConfig]) -> List[RunResult]:
    """`run` of each configuration, in input order, spread over the cores.

    A run is a pure function of its configuration, so independent runs can
    go to child processes without changing any result. With k = min(runs,
    usable cores) of at least 2, it forks k children; child i runs
    cfgs[i::k], writes the pickled results to a pipe and leaves by
    `os._exit`, so it flushes no inherited buffer and runs no exit handler.
    The caller runs no share while they work, only reads and reaps them.
    A child that raised or died returns nothing, and the caller then runs
    the missing configurations itself in input order, so an exception, its
    note and its traceback are the serial path's. No child outlives the
    call. With fewer than 2 cores or runs, without `os.fork`, or beside
    another thread (a fork copies no thread, so a lock that one holds
    would never be released in the child), it is a loop over `run`.
    """
    cores = (len(os.sched_getaffinity(0))
             if hasattr(os, "fork") and hasattr(os, "sched_getaffinity")
             else 1)
    k = min(len(cfgs), cores)
    if k < 2 or threading.active_count() > 1:
        return [run(cfg) for cfg in cfgs]
    import pickle
    import signal
    results: List = [None] * len(cfgs)
    children: Dict[int, tuple] = {}   # pid -> (share, pipe's read end)
    try:
        for i in range(k):
            r, w = os.pipe()
            pid = os.fork()
            if pid == 0:
                status = 1
                try:
                    os.close(r)
                    share = [run(cfg) for cfg in cfgs[i::k]]
                    with os.fdopen(w, "wb") as out:
                        pickle.dump(share, out, pickle.HIGHEST_PROTOCOL)
                    status = 0
                finally:
                    os._exit(status)
            os.close(w)
            children[pid] = (i, os.fdopen(r, "rb"))
        for pid, (i, pipe) in list(children.items()):
            with pipe:
                data = pipe.read()
            _, status = os.waitpid(pid, 0)
            del children[pid]
            if status == 0:
                results[i::k] = pickle.loads(data)
    finally:
        for pid, (_, pipe) in children.items():
            pipe.close()
            os.kill(pid, signal.SIGKILL)
            os.waitpid(pid, 0)
    return [run(cfg) if res is None else res
            for cfg, res in zip(cfgs, results)]


def measure_overhead(cfg: SimConfig) -> Dict:
    """Paired runs, identical but for Decision forwarding, plus the model.

    The two runs go through `run_all`, so on a host with two or more cores
    they run at once, in two child processes. Overheads are exact fractions
    of message and byte totals. Under a constant-delay network with
    clients == batch size the simulator's totals coincide with the
    closed-form fault-free counts, so the comparison is exact, not
    approximate.
    """
    import dataclasses as dc
    on, off = run_all([dc.replace(cfg, decisions=True),
                       dc.replace(cfg, decisions=False)])
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
