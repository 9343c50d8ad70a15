"""Exhaustive small-model checks for the trusted kit and the protocol core.

Three layers:

1. Component traces: depth-first search over every sequence of counter
   and context operations up to a small depth, driving a real component
   and asserting after each step that values never repeat, skipped ranges
   are never assigned, and context ids are certified at most once.

2. Quorum tracking: brute force over every subset and arrival order of
   attestations for one slot, asserting a replica marks it committed exactly
   when f+1 distinct senders back one digest.

3. Protocol interleavings: a small world (faulty leader 0, correct
   followers 1..2f) explored over every message delivery order and timer
   schedule. Every reachable state's ledger must pass the simulator's
   safety oracle (sim.safety_violations); at least one terminal state must
   show full commitment, demonstrating progress is reachable in the
   scenario.

   A world is its row plus its ledger. The row is its key: one flat tuple
   of ids into a table that all worlds of one root share (SPIN's collapse
   compression). It holds the armed-timer set, each correct replica
   (numbering (replica id, Replica.state_key())) and each channel slot's
   queue of message ids. Equal ids mean equal values, so the row tells
   states apart as the values would. The table memoizes replica steps, so
   a handler runs only the first time a replica in one state meets one
   input, and the moves on queues and timer sets, so a step is a few
   lookups (see _Table).

   The search is a plain depth-first search over world keys. A replica's
   key holds all its state, so a key's successors do not depend on the path
   and the order of the search does not change what it reaches. Every
   reachable key is checked once, on the first path that reaches it. The
   key leaves the ledger out, so a state reached by several different
   histories is checked on that first path only (ROADMAP item 8). A step
   that notes no fact and issues no certificate hands its parent's ledger
   object on, and the oracle's verdict is kept on the ledger until its next
   note, so the oracle runs once per distinct ledger.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
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

    The shadow tracks the last position. The component must accept exactly
    when the shadow says the id is in order, binding that id, and refuse
    otherwise: a certification at or behind the position (certified, voided
    or passed over) with EquivocationRefused, any other refusal with
    SequenceRefused.
    """
    alphabet = [
        ("cert", (1, 1)), ("cert", (1, 2)), ("cert", (1, 3)),
        ("cert", (2, 1)), ("skip", (1, 2)), ("skip", (2, 1)),
    ]
    nodes = 0
    paths = 0
    stack = [(_fresh_tc(), (0, 0), 0)]
    while stack:
        tc, pos, d = stack.pop()
        nodes += 1
        if d == depth:
            paths += 1
            continue
        for kind, (view, seq) in alphabet:
            child = tc.clone()
            if kind == "cert":
                legal = (view, seq - 1) == pos or (view > pos[0] and seq == 1)
                behind = (view, seq) <= pos
                want = None if legal else (
                    EquivocationRefused if behind else SequenceRefused)
                op, args = child.certify_context, ("p", view, seq, _H1)
            else:
                want = None if (view, seq) > pos else SequenceRefused
                op, args = child.skip_contexts, ("p", view, seq)
            try:
                cert = op(*args)
            except (EquivocationRefused, SequenceRefused) as exc:
                if type(exc) is not want:
                    raise AssertionError(
                        f"{kind} ({view},{seq}) after {pos}: {exc!r}") from exc
                stack.append((child, pos, d + 1))
                continue
            bound = ((cert.view, cert.seq) if kind == "cert"
                     else (cert.to_view, cert.to_seq))
            if want is not None or bound != (view, seq):
                raise AssertionError(
                    f"{kind} ({view},{seq}) after {pos} bound {bound}")
            stack.append((child, bound, d + 1))
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


class _Memo(dict):
    """A dict that computes a missing entry with `fn` and keeps it."""

    def __init__(self, fn):
        self.fn = fn

    def __missing__(self, key):
        value = self[key] = self.fn(key)
        return value


class _Table:
    """What every world of one root shares: the intern table, the row
    layout, the faulty replica ids and the memos.

    `ids` numbers a replica by (replica id, Replica.state_key()), since
    state_key leaves the configuration out, and a message, a queue (a tuple
    of message ids) or an armed-timer set by itself. `values[i]` is the
    first value numbered i. The empty queue is numbered first, so 0 is the
    one false queue id. A row is the armed set's id, one id per correct
    replica (`rids`) and one queue id per channel slot (`slots`, sorted);
    `at` maps a replica id or a channel to its position in the row, and
    `queues` is the first slot's.

    `memo` maps (the stepping replica's table id, its input) to its step:
    (the successor's table id, the step's delta, its certificates). The
    input is the delivered message's id or the timer (replica id, kind,
    key). A replica reads no clock and its key holds all its state, so a
    step is a function of that pair; it repeats often, as paths that differ
    elsewhere reach equal replicas. The delta is what the step changes in a
    row: (position, id of the queue it sends) per channel, the id of the
    timer set it arms or None, and its facts. A step that raises is not
    kept. The moves on queues and armed sets map ids to ids: `pop` a queue
    to its head and the rest, `append` two queues to their join, `fire` an
    armed set and a timer to the set without it, `arm` two sets to their
    union, and `timers` an armed set to its timer steps, sorted.
    """

    def __init__(self, rids, byz, slots):
        self.ids: Dict[object, int] = {}
        self.values: List = []
        ids, v = self.ids, self.values

        # closures over ids and values, not methods, so that no memo refers
        # to the table: a cycle would keep each table until the collector ran
        def intern(value, key) -> int:
            """The id of `key`, numbering it with `value` if it is new."""
            i = ids.get(key)
            if i is None:
                i = ids[key] = len(v)
                v.append(value)
            return i
        self.intern = intern
        self.own = own = lambda value: intern(value, value)
        own(())
        self.rids = tuple(rids)
        self.byz = frozenset(byz)
        self.slots = tuple(slots)
        self.at = {key: i for i, key in enumerate(self.rids + self.slots, 1)}
        self.queues = 1 + len(self.rids)
        self.delivers = tuple(("deliver", ch) for ch in self.slots)
        self.memo: Dict[tuple, tuple] = {}
        self.pop = _Memo(lambda q: (v[q][0], own(v[q][1:])))
        self.append = _Memo(lambda qs: own(v[qs[0]] + v[qs[1]]))
        self.fire = _Memo(lambda at: own(v[at[0]] - {at[1]}))
        self.arm = _Memo(lambda aa: own(v[aa[0]] | v[aa[1]]))
        self.timers = _Memo(lambda a: [("timer", t) for t in sorted(v[a])])

    def replica(self, rep: Replica) -> int:
        return self.intern(rep, (rep.id, rep.state_key()))

    def step(self, kid: int, act, inp) -> tuple:
        """The memo entry for replica `kid` taking step `act` on input
        `inp`, computed by a clone of the replica that takes the step."""
        src = self.values[kid]
        rep = src.clone()
        try:
            effects = (rep.handle(self.values[inp], 0) if act[0] == "deliver"
                       else rep.on_timer(inp[1], inp[2], 0))
        except Exception as exc:
            exc.add_note(f"model check: r{rep.id} handling " + (
                f"{m.msg_type(self.values[inp])} from channel {act[1]}"
                if act[0] == "deliver" else f"timer {inp[1]} with key {inp[2]!r}"))
            raise
        rep.share_equal_state(src)
        delta, issued = self._delta(rep.id, effects), rep.tc.take_issued()
        return self.replica(rep), delta, issued

    def _delta(self, src: int, effects: List[tuple]) -> tuple:
        """What replica `src`'s step effects change in a row, as (sends,
        timers, facts). sends holds each outbound channel's position once,
        with the id of the queue of its new messages; sends to a client or
        a faulty replica go nowhere."""
        sends: Dict[int, tuple] = {}
        timers, facts = [], []
        for eff in effects:
            if eff[0] == "send":
                _, dst, msg = eff
                if dst[0] == "replica" and dst[1] not in self.byz:
                    at = self.at[f"r{src}", dst[1]]
                    sends[at] = sends.get(at, ()) + (self.own(msg),)
            elif eff[0] == "timer":
                timers.append((src, eff[1], eff[2]))
            elif eff[0] == "fact":
                facts.append(eff)
        return (tuple((at, self.own(q)) for at, q in sends.items()),
                self.own(frozenset(timers)) if timers else None, tuple(facts))


@dataclass(eq=False, slots=True)
class World:
    """One state of an exploration: its row and its ledger. The row is its
    key, a flat tuple of ids of a fixed width per root: the armed-timer
    set, each correct replica in `table.rids` order and each channel slot's
    queue. `table`, shared by every world of one root, holds their values.
    """
    row: Tuple[int, ...]
    ledger: Ledger
    table: _Table

    @classmethod
    def root(cls, replicas: Dict[int, Replica], channels: Dict[tuple, tuple],
             byz: Set[int]) -> "World":
        """A world of the correct `replicas` with `channels` in flight, no
        timer armed, an empty ledger and a new table. The slots are the
        channels of `channels` and every channel between two correct
        replicas."""
        rids = sorted(replicas)
        t = _Table(rids, byz, sorted(set(channels) | {
            (f"r{a}", b) for a in rids for b in rids if a != b}))
        return cls((t.own(frozenset()),)
                   + tuple(t.replica(replicas[rid]) for rid in rids)
                   + tuple(t.own(tuple(map(t.own, channels.get(ch, ()))))
                           for ch in t.slots), Ledger(), t)

    def state_key(self) -> tuple:
        # The ledger is left out, as the replica histories and component
        # audit lists it replaces always were: worlds that differ only in
        # their past are one state, and the oracle sees the first reached.
        return self.row

    def enabled(self) -> List[tuple]:
        """A delivery from each non-empty slot in channel order, then each
        armed timer in sorted order."""
        t = self.table
        return (list(itertools.compress(t.delivers, self.row[t.queues:]))
                + t.timers[self.row[0]])

    def apply(self, act) -> "World":
        """Successor state after `act`.

        Each part of the row that changes is a table lookup: the pop or the
        fired timer, the stepping replica's step (from _Table.step the
        first time), and the step's sends and timers. The ledger is never
        mutated: the successor keeps this world's ledger when the step notes
        no fact and issues no certificate, and otherwise a fork with the
        stepping replica's record copied.
        """
        t = self.table
        row = list(self.row)
        if act[0] == "deliver":
            rid = act[1][1]
            at = t.at[act[1]]
            inp, row[at] = t.pop[row[at]]
        else:
            rid = act[1][0]
            row[0] = t.fire[row[0], act[1]]
            inp = act[1]
        at = t.at[rid]
        hit = t.memo.get((row[at], inp))
        if hit is None:
            hit = t.memo[row[at], inp] = t.step(row[at], act, inp)
        row[at], (sends, timers, facts), issued = hit
        for to, add in sends:
            row[to] = t.append[row[to], add]
        if timers is not None:
            row[0] = t.arm[row[0], timers]
        ledger = self.ledger
        if facts or issued:
            ledger = ledger.fork(rid)
            for fact in facts:
                ledger.note(rid, fact)
            ledger.note_issued(rid, issued)
        return World(tuple(row), ledger, t)

    def fully_committed(self) -> bool:
        """Every correct replica has committed and executed a request."""
        records, t = self.ledger.records, self.table
        reps = [t.values[kid] for kid in self.row[1:t.queues]]
        return bool(reps) and all(r.id in records and records[r.id].committed
                                  and r.exec_cursor >= 1 for r in reps)


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
    any whose ledger fails the safety oracle, or once more than
    `max_states` states are seen, even under python -O. Returns the number
    of states, of terminal states (no step enabled), and of terminals where
    every correct replica has committed and executed.

    The search is depth first over world keys. The stack holds (world,
    step) pairs, and a step is applied when its pair is popped. Pairs are
    pushed in enabled() order, so the last enabled step's successor is
    explored first; any order reaches the same keys. Each key is checked
    once, on the first path that reaches it (see the module docstring).
    The check is _verdict on the state's ledger, which a state whose last
    step recorded nothing shares with its parent.
    """
    seen: Set[tuple] = set()
    byz = world.table.byz
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


def _mc_setup(leader, mode: str = "detection", decisions: bool = True,
              requests: int = 1, checkpoint_interval: int = 1000,
              f: int = 1) -> World:
    """The world of n = 2f+1 replicas once `requests` requests from client 0
    have reached each correct replica 1..2f, delivered by apply from
    channels ("c0", replica id). Replica 0 is faulty: `leader(its
    component, client 0's first request)` returns the messages it sends
    each follower, by replica id."""
    n = 2 * f + 1
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
                for rid in range(1, n)}
    payload = b"transfer-10"
    reqs = tuple(m.tagged_request(ckey, 0, seq, payload)
                 for seq in range(1, requests + 1))
    channels = {("c0", rid): reqs for rid in replicas}
    for rid, msgs in leader(tcs[0], reqs[0]).items():
        channels["byz", rid] = tuple(msgs)
    world = World.root(replicas, channels, byz={0})
    for rid in replicas:
        for _ in reqs:
            world = world.apply(("deliver", ("c0", rid)))
    return world


def equivocate_world(decisions: bool = True) -> World:
    """Faulty leader re-binds the request at values 1 and 2; follower 1 sees
    both (flags the duplicate), follower 2 sees only value 2 (freezes)."""
    def leader(tc0, req):
        chunk = (req,)
        bdig = m.batch_digest(chunk)
        ui_x = tc0.create_ui(m.prepare_digest(0, 1, bdig),
                             counter=proposal_counter(0))
        ui_y = tc0.create_ui(m.prepare_digest(0, 2, bdig),
                             counter=proposal_counter(0))
        px = m.Prepare(0, 1, chunk, ui_x)
        py = m.Prepare(0, 2, chunk, ui_y)
        return {1: [px, py], 2: [py]}
    return _mc_setup(leader, decisions=decisions)


def gap_world(decisions: bool = False, requests: int = 1,
              checkpoint_interval: int = 1000, f: int = 1) -> World:
    """Faulty leader consumes value 1 and sends nothing; the run must cross
    a view change to make progress. At f=2 the world has n=5."""
    def leader(tc0, req):
        tc0.create_ui(m.prepare_digest(0, 1, m.batch_digest((req,))),
                      counter=proposal_counter(0))
        return {}
    return _mc_setup(leader, decisions=decisions, requests=requests,
                     checkpoint_interval=checkpoint_interval, f=f)


def prevention_world(decisions: bool = False) -> World:
    """Prevention mode: the double binding dies inside the leader's component,
    so only the single certified proposal ever reaches the followers."""
    def leader(tc0, req):
        chunk = (req,)
        bdig = m.batch_digest(chunk)
        cert = tc0.certify_context("prepare", 0, 1, m.prepare_digest(0, 1, bdig))
        alt = _h(b"other-batch")
        try:
            tc0.certify_context("prepare", 0, 1, m.prepare_digest(0, 1, alt))
            raise AssertionError("component must refuse the second context binding")
        except EquivocationRefused:
            pass
        prep = m.Prepare(0, 1, chunk, cert)
        return {1: [prep], 2: [prep]}
    return _mc_setup(leader, mode="prevention", decisions=decisions)
