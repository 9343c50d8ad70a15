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
   schedule, with memoized states. Every reachable state must pass the
   simulator's safety oracle (sim.safety_violations); at least one terminal
   state must show full commitment, demonstrating progress is reachable in
   the scenario.
"""

from __future__ import annotations

import hashlib
import hmac as hmaclib
import itertools
from dataclasses import dataclass
from typing import Dict, List, Set, Tuple

from . import messages as m
from .config import SimConfig
from .protocol import Replica, proposal_counter
from .sim import safety_violations
from .tc import EquivocationRefused, SequenceRefused, TcMode, TrustedComponent

_KEY = hashlib.sha256(b"model-check-key").digest()
_H1 = hashlib.sha256(b"payload-one").digest()
_H2 = hashlib.sha256(b"payload-two").digest()


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
        assert values == sorted(values) and len(values) == len(set(values)), facts
        skipped: Set[int] = set()
        for kind, v in facts:
            if kind == "skip":
                assert not (set(range(v[0], v[1] + 1)) & skipped), facts
                skipped.update(range(v[0], v[1] + 1))
        assert not (set(values) & skipped), facts
        covered = sorted(set(values) | skipped)
        assert covered == list(range(1, len(covered) + 1)), facts
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
                    assert (cert.view, cert.seq) == (view, seq)
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
    key = hashlib.sha256(b"clients").digest()
    checked = 0
    digests = [hashlib.sha256(b"batch-a").digest(),
               hashlib.sha256(b"batch-b").digest()]
    tcs = [_fresh_tc(i) for i in range(n)]
    pool = []
    for sender in range(1, n):
        for dig in digests:
            cdig = m.commit_digest(0, 1, sender, dig)
            pool.append((sender, dig, tcs[sender].create_ui(cdig)))
    from .tc import Directory
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
                rep.on_commit(m.Commit(0, 1, sender, dig, cert), 0)
            by_digest: Dict[bytes, Set[int]] = {}
            for sender, dig, _ in combo:
                if sender != rep.id:
                    by_digest.setdefault(dig, set()).add(sender)
            expect = any(len(s) >= f + 1 for s in by_digest.values())
            tr = rep.trackers.get(1)
            got = tr is not None and tr.committed is not None
            assert got == expect, (combo, got, expect)
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
    delivered: int = 0

    def state_key(self) -> tuple:
        chan = tuple(sorted((k, v) for k, v in self.channels.items() if v))
        reps = tuple((rid, r.state_key()) for rid, r in sorted(self.replicas.items()))
        return (reps, chan, self.armed)

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

        Channel queues (tuples) and the armed set (a frozenset) are never
        mutated, so the successor copies only the replica and channel maps
        and clones the one replica that takes the step; the other replica
        stays shared with this world.
        """
        w = World(dict(self.replicas), dict(self.channels), self.armed,
                  self.byz, self.delivered)
        if act[0] == "deliver":
            key = act[1]
            queue = w.channels[key]
            msg, rest = queue[0], queue[1:]
            w.channels[key] = rest
            rid = key[1]
            rep = w.replicas[rid] = self.replicas[rid].clone()
            effects = rep.handle(msg, 0)
            w.delivered += 1
        else:
            rid, kind, tkey = act[1]
            w.armed = w.armed - {act[1]}
            rep = w.replicas[rid] = self.replicas[rid].clone()
            effects = rep.on_timer(kind, tkey, 0)
        w._absorb(rid, effects)
        return w

    def _absorb(self, src: int, effects: List[tuple]) -> None:
        for eff in effects:
            if eff[0] == "send":
                _, dst, msg = eff
                if dst[0] != "replica" or dst[1] in self.byz:
                    continue
                key = (f"r{src}", dst[1])
                self.channels[key] = self.channels.get(key, ()) + (msg,)
            elif eff[0] == "timer":
                _, kind, tkey, _delay = eff
                self.armed = self.armed | {(src, kind, tkey)}

    def seed_channel(self, src: str, dst: int, msgs: List) -> None:
        self.channels[(src, dst)] = self.channels.get((src, dst), ()) + tuple(msgs)


def explore_world(world: World, max_states: int = 400_000,
                  terminal_check=None) -> Dict[str, int]:
    seen: Set[tuple] = set()
    terminals = 0
    full_commit_terminals = 0
    stack = [world]
    while stack:
        w = stack.pop()
        key = w.state_key()
        if key in seen:
            continue
        seen.add(key)
        assert len(seen) <= max_states, "state budget exceeded"
        violations = safety_violations(w.replicas.values(), w.byz)
        assert not violations, violations
        acts = w.enabled()
        if not acts:
            terminals += 1
            correct = [r for rid, r in w.replicas.items() if rid not in w.byz]
            if correct and all(r.committed_history and r.exec_cursor >= 1
                               for r in correct):
                full_commit_terminals += 1
            if terminal_check is not None:
                terminal_check(w)
            continue
        for act in acts:
            stack.append(w.apply(act))
    return {"states": len(seen), "terminals": terminals,
            "full_commit_terminals": full_commit_terminals}


# -- scenario builders -------------------------------------------------------


def _mc_setup(mode: str = "detection", decisions: bool = True,
              max_view: int = 2):
    from .tc import Directory
    f, n = 1, 3
    cfg = SimConfig(f=f, mode=mode, decisions=decisions, delta_ns=1,
                    checkpoint_interval=1000, window=2000,
                    suspicion_timeout_ns=1, viewchange_timeout_ns=1)
    directory = Directory(TcMode.HMAC)
    tcs = [_fresh_tc(i) for i in range(n)]
    for i in range(n):
        directory.register(i, 1)
    ckey = hashlib.sha256(b"mc-client").digest()
    replicas = {rid: Replica(rid, cfg, tcs[rid], directory, {0: ckey},
                             max_view=max_view)
                for rid in (1, 2)}
    payload = b"transfer-10"
    req = m.Request(0, 1, payload)
    req = m.Request(0, 1, payload,
                    hmaclib.new(ckey, req.digest(), "sha256").digest())
    return cfg, tcs, replicas, req


def equivocate_world(decisions: bool = True) -> World:
    """Faulty leader re-binds the request at values 1 and 2; follower 1 sees
    both (flags the duplicate), follower 2 sees only value 2 (freezes)."""
    cfg, tcs, replicas, req = _mc_setup(decisions=decisions)
    world = World(replicas=replicas, channels={}, armed=frozenset(), byz={0})
    for rid, rep in replicas.items():
        world._absorb(rid, rep.on_client_request(req, 0))
    chunk = (req,)
    bdig = m.batch_digest(chunk)
    ui_x = tcs[0].create_ui(m.prepare_digest(0, 1, bdig),
                            counter=proposal_counter(0))
    ui_y = tcs[0].create_ui(m.prepare_digest(0, 2, bdig),
                            counter=proposal_counter(0))
    px = m.Prepare(0, 1, chunk, bdig, ui_x)
    py = m.Prepare(0, 2, chunk, bdig, ui_y)
    world.seed_channel("byz", 1, [px, py])
    world.seed_channel("byz", 2, [py])
    return world


def gap_world(decisions: bool = False) -> World:
    """Faulty leader consumes value 1 and sends nothing; the run must cross
    a view change to make progress."""
    cfg, tcs, replicas, req = _mc_setup(decisions=decisions)
    world = World(replicas=replicas, channels={}, armed=frozenset(), byz={0})
    for rid, rep in replicas.items():
        world._absorb(rid, rep.on_client_request(req, 0))
    tcs[0].create_ui(m.prepare_digest(0, 1, m.batch_digest((req,))),
                     counter=proposal_counter(0))
    return world


def prevention_world(decisions: bool = False) -> World:
    """Prevention mode: the double binding dies inside the leader's component,
    so only the single certified proposal ever reaches the followers."""
    cfg, tcs, replicas, req = _mc_setup(mode="prevention", decisions=decisions)
    world = World(replicas=replicas, channels={}, armed=frozenset(), byz={0})
    for rid, rep in replicas.items():
        world._absorb(rid, rep.on_client_request(req, 0))
    chunk = (req,)
    bdig = m.batch_digest(chunk)
    cert = tcs[0].certify_context("prepare", 0, 1, m.prepare_digest(0, 1, bdig))
    alt = hashlib.sha256(b"other-batch").digest()
    refused = False
    try:
        tcs[0].certify_context("prepare", 0, 1, m.prepare_digest(0, 1, alt))
    except EquivocationRefused:
        refused = True
    assert refused, "component must refuse the second context binding"
    prep = m.Prepare(0, 1, chunk, bdig, cert)
    world.seed_channel("byz", 1, [prep])
    world.seed_channel("byz", 2, [prep])
    return world
