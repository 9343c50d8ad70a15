"""Exhaustive small-model checks for the trusted kit and the protocol core.

Three layers:

1. Component traces: depth-first search over every sequence of counter
   and context operations up to a small depth, driving a real component
   and asserting after each step that values never repeat, skipped ranges
   are never assigned, and context ids are certified at most once.

2. Quorum tracking: brute force over every subset and arrival order of
   attestations for one slot, asserting a replica marks it committed exactly
   when f+1 distinct senders back one digest.

3. Protocol interleavings: a tiny three-replica world (faulty leader, two
   correct followers) explored over every message delivery order and timer
   schedule, with memoized states. Every reachable state's ledger must pass
   the simulator's safety oracle (sim.safety_violations); at least one
   terminal state must show full commitment, demonstrating progress is
   reachable in the scenario.

   The search is a plain depth-first search over world keys. Every
   reachable key is visited and checked once, on the first path that
   reaches it. A replica's key holds all its state (Replica.state_key), so
   a key's successors do not depend on the path, and the order of the
   search does not change what it reaches. The key leaves the ledger out,
   so a state reached by several different histories is checked on that
   first path only (ROADMAP item 8).

   A world key is a few small ints. Every world forked from one root shares
   a table that numbers each distinct replica key (Replica.state_key()) and
   channel queue, and each world caches the numbers of its replicas and
   non-empty channels until they change. Two numbers are equal exactly when
   their values are, so the key tells states apart as the nested key would,
   but hashing it does not hash every queued message again.

   The worlds of one root also share a memo of replica steps, keyed by the
   stepping replica's id, the id of its key and its input (the message, by
   equality, or the timer). A replica reads no clock and its key holds all
   its state, so a step is a function of that triple; it repeats often, as
   paths that differ elsewhere reach equal replicas. A hit reuses the
   successor, the step's delta, its certificates and its key id. The delta
   is the step's effects as they land in a world: sends grouped per
   channel, the armed timers as a frozenset, and the facts. A step that
   raises is not kept.

   A world never mutates the ledger it holds. A step that notes no fact and
   issues no certificate hands its parent's ledger object to the successor;
   only a recording step forks it. The oracle runs once per distinct ledger
   object, and every state that shares the ledger reuses the verdict,
   which the ledger keeps until its next note.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from typing import Dict, List, Set, Tuple

from . import messages as m
from .config import SimConfig
from .encoding import _h
from .protocol import Replica, proposal_counter
from .sim import Ledger, safety_violations
from .tc import (Directory, EquivocationRefused, SequenceRefused, TcMode,
                 TrustedComponent)

_KEY = _h(b"model-check-key")
_H1 = _h(b"payload-one")
_H2 = _h(b"payload-two")


def _fresh_tc(replica_id: int = 0) -> TrustedComponent:
    return TrustedComponent(replica_id, mode=TcMode.HMAC, system_key=_KEY)


# --------------------------------------------------------------------------
# 1a. counter traces


def explore_counter_traces(depth: int = 8) -> Dict[str, int]:
    """Every op sequence over {create(h1), create(h2), skip(1), skip(3)}.

    Along each path, collected certificates must show strictly increasing
    values, no value certified twice, and no overlap between certified
    values and skipped ranges.
    """
    ops = ("c1", "c2", "s1", "s3")
    nodes = 0
    paths = 0
    stack: List[Tuple[TrustedComponent, Tuple, int]] = [(_fresh_tc(), (), 0)]
    while stack:
        tc, facts, d = stack.pop()
        nodes += 1
        values = [v for kind, v in facts if kind == "ui"]
        if values != sorted(values) or len(values) != len(set(values)):
            raise AssertionError(facts)
        skipped: Set[int] = set()
        for kind, v in facts:
            if kind == "skip":
                if set(range(v[0], v[1] + 1)) & skipped:
                    raise AssertionError(facts)
                skipped.update(range(v[0], v[1] + 1))
        covered = sorted(set(values) | skipped)
        if set(values) & skipped or covered != list(range(1, len(covered) + 1)):
            raise AssertionError(facts)
        if d == depth:
            paths += 1
            continue
        for op in ops:
            child = tc.clone()
            if op == "c1":
                ui = child.create_ui(_H1, counter="ctr")
                fact = ("ui", ui.value)
            elif op == "c2":
                ui = child.create_ui(_H2, counter="ctr")
                fact = ("ui", ui.value)
            elif op == "s1":
                cert = child.skip_values("ctr", 1)
                fact = ("skip", (cert.first, cert.last))
            else:
                cert = child.skip_values("ctr", 3)
                fact = ("skip", (cert.first, cert.last))
            stack.append((child, facts + (fact,), d + 1))
    return {"nodes": nodes, "paths": paths}


# --------------------------------------------------------------------------
# 1b. context traces


def explore_context_traces(depth: int = 6) -> Dict[str, int]:
    """Every op sequence over a small context alphabet, against a shadow model.

    The shadow tracks the last position and the issued set; the component
    must accept exactly when the shadow says the id is unissued and in
    order, and refuse with the matching error otherwise.
    """
    alphabet = [
        ("cert", (1, 1)), ("cert", (1, 2)), ("cert", (1, 3)),
        ("cert", (2, 1)), ("skip", (1, 2)), ("skip", (2, 1)),
    ]
    nodes = 0
    paths = 0
    stack = [(_fresh_tc(), (0, 0), frozenset(), 0)]
    while stack:
        tc, pos, issued, d = stack.pop()
        nodes += 1
        if d == depth:
            paths += 1
            continue
        for kind, (view, seq) in alphabet:
            child = tc.clone()
            pv, ps = pos
            if kind == "cert":
                legal_order = (view == pv and seq == ps + 1) or \
                              (view > pv and seq == 1)
                if (view, seq) in issued:
                    try:
                        child.certify_context("p", view, seq, _H1)
                        raise AssertionError(f"reissued ({view},{seq})")
                    except EquivocationRefused:
                        pass
                    stack.append((child, pos, issued, d + 1))
                elif not legal_order:
                    try:
                        child.certify_context("p", view, seq, _H1)
                        raise AssertionError(f"out of order ({view},{seq}) after {pos}")
                    except SequenceRefused:
                        pass
                    stack.append((child, pos, issued, d + 1))
                else:
                    cert = child.certify_context("p", view, seq, _H1)
                    if (cert.view, cert.seq) != (view, seq):
                        raise AssertionError(f"misbound ({view},{seq})")
                    stack.append((child, (view, seq),
                                  issued | {(view, seq)}, d + 1))
            else:
                if (view, seq) <= pos:
                    try:
                        child.skip_contexts("p", view, seq)
                        raise AssertionError(f"backwards skip to ({view},{seq})")
                    except SequenceRefused:
                        pass
                    stack.append((child, pos, issued, d + 1))
                else:
                    child.skip_contexts("p", view, seq)
                    stack.append((child, (view, seq), issued, d + 1))
    return {"nodes": nodes, "paths": paths}


# --------------------------------------------------------------------------
# 2. quorum tracking brute force


def check_commit_quorum(f: int = 2) -> Dict[str, int]:
    """Feed one slot every subset and order of attestations; committed must
    appear exactly at f+1 distinct senders behind a single digest."""
    n = 2 * f + 1
    key = _h(b"clients")
    checked = 0
    digests = [_h(b"batch-a"), _h(b"batch-b")]
    tcs = [_fresh_tc(i) for i in range(n)]
    pool = []
    for sender in range(1, n):
        for dig in digests:
            cdig = m.commit_digest(0, 1, sender, dig)
            pool.append((sender, dig, tcs[sender].create_ui(cdig)))
    directory = Directory(TcMode.HMAC)
    for i in range(n):
        directory.register(i, 1)
    cfg = SimConfig(f=f, decisions=False, window=200)
    for size in range(0, 4):
        for combo in itertools.permutations(pool, size):
            rep = Replica(n - 1, cfg, _fresh_tc(n - 1), directory, {0: key})
            for sender, dig, cert in combo:
                if sender == rep.id:
                    continue
                rep.handle(m.Commit(0, 1, sender, dig, cert), 0)
            by_digest: Dict[bytes, Set[int]] = {}
            for sender, dig, _ in combo:
                if sender != rep.id:
                    by_digest.setdefault(dig, set()).add(sender)
            expect = any(len(s) >= f + 1 for s in by_digest.values())
            tr = rep.trackers.get(1)
            got = tr is not None and tr.committed is not None
            if got != expect:
                raise AssertionError((combo, got, expect))
            checked += 1
    return {"orders": checked}


# --------------------------------------------------------------------------
# 3. protocol interleaving exploration


@dataclass
class World:
    replicas: Dict[int, Replica]
    channels: Dict[Tuple[str, int], Tuple]
    armed: frozenset
    byz: Set[int]
    ledger: Ledger = field(default_factory=Ledger, init=False)
    # ids is the intern table and memo the step memo, both created with the
    # root world and shared by every successor. rkeys holds the id of each
    # replica's Replica.state_key(), set from the memo when the replica
    # steps (or when a key or a step first needs it), qkeys that of each
    # non-empty channel's queue until the channel changes; a successor
    # inherits both.
    ids: Dict[tuple, int] = field(default_factory=dict, init=False)
    memo: Dict[tuple, tuple] = field(default_factory=dict, init=False)
    rkeys: Dict[int, int] = field(default_factory=dict, init=False)
    qkeys: Dict[Tuple[str, int], int] = field(default_factory=dict,
                                              init=False)

    def state_key(self) -> tuple:
        # The ledger is left out, as the replica histories and component
        # audit lists it replaces always were: worlds that differ only in
        # their past are one state, and the oracle sees the first reached.
        ids, rkeys, qkeys = self.ids, self.rkeys, self.qkeys
        for rid, rep in self.replicas.items():
            if rid not in rkeys:
                rkeys[rid] = ids.setdefault(rep.state_key(), len(ids))
        for ch, queue in self.channels.items():
            if queue and ch not in qkeys:
                qkeys[ch] = ids.setdefault(queue, len(ids))
        return (tuple(sorted(rkeys.items())), tuple(sorted(qkeys.items())),
                self.armed)

    def enabled(self) -> List[tuple]:
        acts: List[tuple] = []
        for key in sorted(self.channels):
            if self.channels[key]:
                acts.append(("deliver", key))
        for t in sorted(self.armed):
            acts.append(("timer", t))
        return acts

    def apply(self, act) -> "World":
        """Successor state after `act`, sharing what the step leaves unchanged.

        Channel queues (tuples), the armed set (a frozenset) and a ledger a
        world holds are never mutated. So the successor copies only the
        replica and channel maps and the two key caches. It keeps this
        world's ledger when the step notes no fact and issues no
        certificate, and otherwise a fork with the stepping replica's record
        copied. The stepping replica's successor and the step's delta (see
        _delta) come from the memo, keyed by the replica's id, its key id
        and the input, or, the first time, from a clone that takes the step.
        """
        rid = _stepper(act)
        src, ids = self.replicas[rid], self.ids
        src_kid = self.rkeys.get(rid)
        if src_kid is None:
            src_kid = self.rkeys[rid] = ids.setdefault(src.state_key(), len(ids))
        channels, armed = dict(self.channels), self.armed
        qkeys = dict(self.qkeys)
        if act[0] == "deliver":
            queue = channels[act[1]]
            channels[act[1]] = queue[1:]
            qkeys.pop(act[1], None)
            step = (rid, src_kid, queue[0])
        else:
            _, kind, tkey = act[1]
            armed = armed - {act[1]}
            step = (rid, src_kid, kind, tkey)
        memo = self.memo
        hit = memo.get(step)
        if hit is None:
            rep = src.clone()
            try:
                effects = (rep.handle(queue[0], 0) if act[0] == "deliver"
                           else rep.on_timer(kind, tkey, 0))
            except Exception as exc:
                exc.add_note(f"model check: r{rid} handling " + (
                    f"{m.msg_type(queue[0])} from channel {act[1]}"
                    if act[0] == "deliver" else f"timer {kind} with key {tkey!r}"))
                raise
            rep.share_equal_state(src)
            hit = memo[step] = (
                rep, _delta(rid, effects, self.byz), rep.tc.take_issued(),
                ids.setdefault(rep.state_key(), len(ids)))
        rep, delta, issued, kid = hit
        # built field by field: World() would make a ledger and four dicts
        # only to drop them
        w = object.__new__(World)
        w.replicas = dict(self.replicas)
        w.replicas[rid] = rep
        w.channels, w.armed, w.byz = channels, armed, self.byz
        w.ids, w.memo, w.qkeys = self.ids, memo, qkeys
        w.rkeys = dict(self.rkeys)
        w.rkeys[rid] = kid
        w._land(rid, delta, issued, self.ledger.fork(rid)
                if delta[2] or issued else self.ledger)
        return w

    def _absorb(self, src: int, effects: List[tuple], issued: List) -> None:
        """Land replica `src`'s step in this world in place, noting its facts
        and certificates in this world's own ledger."""
        self.rkeys.pop(src, None)
        self._land(src, _delta(src, effects, self.byz), issued, self.ledger)

    def _land(self, src: int, delta: tuple, issued: List,
              ledger: Ledger) -> None:
        """Add a step's delta to this world's channels and timers, note its
        facts and certificates in `ledger` and make it this world's."""
        sends, timers, facts = delta
        channels, qkeys = self.channels, self.qkeys
        for key, msgs in sends:
            channels[key] = channels.get(key, ()) + msgs
            qkeys.pop(key, None)
        if timers:
            self.armed = self.armed | timers
        for fact in facts:
            ledger.note(src, fact)
        ledger.note_issued(src, issued)
        self.ledger = ledger

    def fully_committed(self) -> bool:
        """Every correct replica has committed and executed a request."""
        correct = [(r, self.ledger.records.get(rid))
                   for rid, r in self.replicas.items() if rid not in self.byz]
        return bool(correct) and all(rec and rec.committed and r.exec_cursor >= 1
                                     for r, rec in correct)

    def seed_channel(self, src: str, dst: int, msgs: List) -> None:
        self.channels[(src, dst)] = self.channels.get((src, dst), ()) + tuple(msgs)
        self.qkeys.pop((src, dst), None)


def _stepper(act) -> int:
    """The replica that takes step `act`."""
    return act[1][1] if act[0] == "deliver" else act[1][0]


def _delta(src: int, effects: List[tuple], byz: Set[int]) -> tuple:
    """What replica `src`'s step effects change in a world, as
    (sends, timers, facts). sends holds each outbound channel once, with its
    new messages in order; sends to a client or a faulty replica go nowhere.
    timers is the frozenset of timers armed, and facts the fact effects in
    order."""
    sends: Dict[Tuple[str, int], tuple] = {}
    timers = []
    facts = []
    for eff in effects:
        if eff[0] == "send":
            _, dst, msg = eff
            if dst[0] == "replica" and dst[1] not in byz:
                key = (f"r{src}", dst[1])
                sends[key] = sends.get(key, ()) + (msg,)
        elif eff[0] == "timer":
            timers.append((src, eff[1], eff[2]))
        elif eff[0] == "fact":
            facts.append(eff)
    return tuple(sends.items()), frozenset(timers), tuple(facts)


def _verdict(ledger: Ledger, byz: frozenset) -> List[Dict]:
    """safety_violations(ledger, byz), kept in ledger.verdict. A world
    never changes the ledger it holds, so each ledger object is scanned
    once however many states share it."""
    kept = ledger.verdict
    if kept is None or kept[0] != byz:
        kept = ledger.verdict = (byz, safety_violations(ledger, byz))
    return kept[1]


def explore_world(world: World, max_states: int = 400_000) -> Dict[str, int]:
    """Visit every state reachable from `world`, raising AssertionError at
    any whose ledger fails the safety oracle, even under python -O. Returns
    the number of states, of terminal states (no step enabled), and of
    terminals where every correct replica has committed and executed.

    The search is depth first over world keys. The stack holds (world,
    step) pairs, and a step is applied when its pair is popped. Pairs are
    pushed in enabled() order, so the last enabled step's successor is
    explored first; any order reaches the same keys. Each key is checked
    once, on the first path that reaches it, since the key leaves the
    ledger out (see the module docstring).

    A state's check is safety_violations on its ledger, run once per
    ledger object (_verdict): a state whose last step recorded nothing
    shares its parent's ledger, and its verdict.
    """
    seen: Set[tuple] = set()
    byz = frozenset(world.byz)
    terminals = 0
    full_commit_terminals = 0
    stack = [(world, None)]
    while stack:
        w, act = stack.pop()
        if act is not None:
            w = w.apply(act)
        key = w.state_key()
        if key in seen:
            continue
        seen.add(key)
        # explicit raises, so that python -O keeps the checks
        if len(seen) > max_states:
            raise AssertionError("state budget exceeded")
        violations = _verdict(w.ledger, byz)
        if violations:
            raise AssertionError(violations)
        acts = w.enabled()
        if not acts:
            terminals += 1
            if w.fully_committed():
                full_commit_terminals += 1
        stack.extend((w, act) for act in acts)
    return {"states": len(seen), "terminals": terminals,
            "full_commit_terminals": full_commit_terminals}


# -- scenario builders -------------------------------------------------------


def _mc_setup(mode: str = "detection", decisions: bool = True,
              requests: int = 1, checkpoint_interval: int = 1000):
    """(world, faulty replica 0's component, client 0's first request), with
    `requests` requests from client 0 delivered to both correct replicas."""
    f, n = 1, 3
    cfg = SimConfig(f=f, mode=mode, decisions=decisions, delta_ns=1,
                    checkpoint_interval=checkpoint_interval,
                    window=2 * checkpoint_interval,
                    suspicion_timeout_ns=1, viewchange_timeout_ns=1)
    directory = Directory(TcMode.HMAC)
    tcs = [_fresh_tc(i) for i in range(n)]
    for i in range(n):
        directory.register(i, 1)
    ckey = _h(b"mc-client")
    replicas = {rid: Replica(rid, cfg, tcs[rid], directory, {0: ckey},
                             max_view=2)
                for rid in (1, 2)}
    payload = b"transfer-10"
    reqs = [m.tagged_request(ckey, 0, seq, payload)
            for seq in range(1, requests + 1)]
    world = World(replicas=replicas, channels={}, armed=frozenset(), byz={0})
    for rid, rep in replicas.items():
        for req in reqs:
            world._absorb(rid, rep.handle(req, 0), rep.tc.take_issued())
    return world, tcs[0], reqs[0]


def equivocate_world(decisions: bool = True) -> World:
    """Faulty leader re-binds the request at values 1 and 2; follower 1 sees
    both (flags the duplicate), follower 2 sees only value 2 (freezes)."""
    world, tc0, req = _mc_setup(decisions=decisions)
    chunk = (req,)
    bdig = m.batch_digest(chunk)
    ui_x = tc0.create_ui(m.prepare_digest(0, 1, bdig),
                         counter=proposal_counter(0))
    ui_y = tc0.create_ui(m.prepare_digest(0, 2, bdig),
                         counter=proposal_counter(0))
    px = m.Prepare(0, 1, chunk, bdig, ui_x)
    py = m.Prepare(0, 2, chunk, bdig, ui_y)
    world.seed_channel("byz", 1, [px, py])
    world.seed_channel("byz", 2, [py])
    return world


def gap_world(decisions: bool = False, requests: int = 1,
              checkpoint_interval: int = 1000) -> World:
    """Faulty leader consumes value 1 and sends nothing; the run must cross
    a view change to make progress."""
    world, tc0, req = _mc_setup(decisions=decisions, requests=requests,
                                checkpoint_interval=checkpoint_interval)
    tc0.create_ui(m.prepare_digest(0, 1, m.batch_digest((req,))),
                  counter=proposal_counter(0))
    return world


def prevention_world(decisions: bool = False) -> World:
    """Prevention mode: the double binding dies inside the leader's component,
    so only the single certified proposal ever reaches the followers."""
    world, tc0, req = _mc_setup(mode="prevention", decisions=decisions)
    chunk = (req,)
    bdig = m.batch_digest(chunk)
    cert = tc0.certify_context("prepare", 0, 1, m.prepare_digest(0, 1, bdig))
    alt = _h(b"other-batch")
    try:
        tc0.certify_context("prepare", 0, 1, m.prepare_digest(0, 1, alt))
        raise AssertionError("component must refuse the second context binding")
    except EquivocationRefused:
        pass
    prep = m.Prepare(0, 1, chunk, bdig, cert)
    world.seed_channel("byz", 1, [prep])
    world.seed_channel("byz", 2, [prep])
    return world
