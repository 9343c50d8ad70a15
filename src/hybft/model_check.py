"""Exhaustive small-model checks for the trusted kit and the protocol core.

Three layers:

1. Component traces: depth-first search over every sequence of counter
   and context operations up to a small depth, driving a real component
   and asserting after each step that values never repeat, skipped ranges
   are never assigned, and context ids are certified at most once.

2. Quorum tracking: brute force over every subset and arrival order of
   attestations for one slot, asserting a replica marks it committed exactly
   when f+1 distinct senders back one digest.

3. Protocol interleavings: a small world explored over every message
   delivery order and timer schedule. A world is a configuration:
   World.from_config(cfg) builds sim.Simulator(cfg), does not run it, and
   takes its replicas and its clients' requests, so a world is set up as a
   simulator run is. Faulty leader 0 runs cfg's adversary script on the
   requests first, and the Prepares it sends correct replica i are in
   flight on channel ("r0", i); correct replica i takes the requests from
   channel ("c0", i). Every reachable state's ledger must pass the
   simulator's safety oracle (sim.safety_violations); a pinned world shows
   at least one terminal state of full commitment, demonstrating progress
   is reachable in the scenario.

   A world is its row plus its ledger. The row is its key: one flat tuple
   of ids into a table that all worlds of one root share (SPIN's collapse
   compression). It holds the armed-timer set, each correct replica
   (numbering (replica id, Replica.state_key())) and each channel slot's
   queue of message ids. Equal ids mean equal values, so the row tells
   states apart as the values would. The table memoizes replica steps, so
   a handler runs only the first time a replica in one state meets one
   input, and the moves on queues and timer sets, so a step is a few
   lookups (see _Table). A stepped replica shares each part its step left
   equal with the replica it stepped from, and its key reuses that
   replica's key for those parts, so a handler run keys only the state it
   changed.

   The search is a plain depth-first search over world keys. A replica's
   key holds all its state, so a key's successors do not depend on the path
   and the order of the search does not change what it reaches. Every
   reachable key is checked once, on the first path that reaches it. The
   key leaves the ledger out, so a state reached by several different
   histories is checked on that first path only (ROADMAP item 8). The
   search computes a successor's row first and builds the world, with its
   ledger, only for a row it has not seen, so a step to a seen state costs
   the row's lookups alone. A step that notes no fact and issues no
   certificate hands its parent's ledger object on, and the oracle's
   verdict is kept on the ledger until its next note, so the oracle runs
   once per distinct ledger and the ledger is forked once per new state
   whose step recorded something.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Dict, List, Optional, Set, Tuple

from . import messages as m
from .config import ConfigError, SimConfig
from .encoding import _h
from .protocol import Replica
from .sim import Ledger, Simulator, safety_violations
from .tc import EquivocationRefused, SequenceRefused, TcMode, TrustedComponent

# A world's correct replicas escalate view changes up to this view, so that
# a world whose leaders stay faulty or silent is still finite.
_MAX_VIEW = 2

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
    appear exactly at f+1 distinct senders behind a single digest. The
    senders' components and the receiver, a clone of replica n-1 per order,
    are those of a simulator of n = 2f+1 replicas, built and not run."""
    n = 2 * f + 1
    host = Simulator(SimConfig(f=f, decisions=False, window=200))
    checked = 0
    digests = [_h(b"batch-a"), _h(b"batch-b")]
    pool = []
    for sender in range(1, n):
        for dig in digests:
            ui = host.replicas[sender].tc.create_ui(
                m.commit_digest(0, 1, sender, dig))
            pool.append((sender, dig, ui))
    for size in range(0, 4):
        for combo in itertools.permutations(pool, size):
            rep = host.replicas[n - 1].clone()
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

    `keys` holds each interned replica's state_key() by its id, so that
    step can key a replica it stepped by what changed from its source (see
    Replica.state_key).

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
        self.keys: Dict[int, tuple] = {}
        self.memo: Dict[tuple, tuple] = {}
        self.pop = _Memo(lambda q: (v[q][0], own(v[q][1:])))
        self.append = _Memo(lambda qs: own(v[qs[0]] + v[qs[1]]))
        self.fire = _Memo(lambda at: own(v[at[0]] - {at[1]}))
        self.arm = _Memo(lambda aa: own(v[aa[0]] | v[aa[1]]))
        self.timers = _Memo(lambda a: [("timer", t) for t in sorted(v[a])])

    def replica(self, rep: Replica, src: Optional[int] = None) -> int:
        """The id of `rep`. Given the id `src` of the replica that `rep` was
        stepped from, the key reuses `src`'s for the state they share."""
        key = (rep.state_key() if src is None
               else rep.state_key(self.values[src], self.keys[src]))
        i = self.intern(rep, (rep.id, key))
        self.keys.setdefault(i, key)
        return i

    def step(self, kid: int, act, inp) -> tuple:
        """The memo entry for replica `kid` taking step `act` on input
        `inp`, computed by a clone of the replica that takes the step. The
        clone shares what it left equal with replica `kid` and is keyed
        from `kid`'s key."""
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
        return self.replica(rep, kid), delta, issued

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
    def from_config(cls, cfg: SimConfig) -> "World":
        """The root world of `cfg`: the correct replicas of its simulator,
        built and not run, with views capped at _MAX_VIEW, once each has
        taken every client's requests 1..requests_per_client from channel
        (f"c{cid}", i). Each faulty replica handles those requests first;
        the Prepares it sends correct replica i are in flight on channel
        (f"r{rid}", i), and its other sends go nowhere. The slots are those
        channels and every channel between two correct replicas.

        Any configuration but crash_tcs builds, but not every world is
        small: a fault-free one (adversary "none", one client, one
        request) exceeds explore_world's default budget of 400,000 states,
        so there is no fault-free control world yet."""
        if cfg.adversary == "crash_tcs":
            raise ConfigError("the model checker cannot schedule crash_tcs's "
                              "timed component actions")
        host = Simulator(cfg)
        byz = host.byz_ids
        correct = [rep for rep in host.replicas if rep.id not in byz]
        for rep in correct:
            rep.max_view = _MAX_VIEW
        reqs = {f"c{c.id}": tuple(map(c.make_request,
                                      range(1, cfg.requests_per_client + 1)))
                for c in host.clients}
        delivered = [(src, rep.id) for rep in correct for src in reqs]
        channels = {ch: reqs[ch[0]] for ch in delivered}
        for rid in sorted(byz):
            for req in itertools.chain(*reqs.values()):
                for eff in host.replicas[rid].handle(req, 0):
                    # an explicit raise, so that python -O keeps the check
                    if (eff[0] == "note"
                            and eff[1]["ev"] == "attack_unexpected_success"):
                        raise AssertionError(
                            "component must refuse the second context binding")
                    if (eff[0] == "send" and isinstance(eff[2], m.Prepare)
                            and eff[1][1] not in byz):
                        ch = (f"r{rid}", eff[1][1])
                        channels[ch] = channels.get(ch, ()) + (eff[2],)
        rids = [rep.id for rep in correct]
        t = _Table(rids, byz, sorted(set(channels) | {
            (f"r{a}", b) for a in rids for b in rids if a != b}))
        world = cls((t.own(frozenset()),) + tuple(map(t.replica, correct))
                    + tuple(t.own(tuple(map(t.own, channels.get(ch, ()))))
                            for ch in t.slots), Ledger(), t)
        for ch in delivered:
            for _ in reqs[ch[0]]:
                world = world.apply(("deliver", ch))
        return world

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

    def next_row(self, act) -> tuple:
        """The successor's row after `act`, with the facts its step notes
        and the certificates it issues: (row, facts, issued).

        Each part of the row that changes is a table lookup: the pop or the
        fired timer, the stepping replica's step (from _Table.step the
        first time), and the step's sends and timers. Nothing is built, so
        a search can drop a row it has seen at the cost of these lookups.
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
        return tuple(row), facts, issued

    def child(self, act, row: tuple, facts: tuple, issued) -> "World":
        """The successor after `act`, given what next_row(act) returned.

        The ledger is never mutated: the successor keeps this world's
        ledger when the step notes no fact and issues no certificate, and
        otherwise a fork with the stepping replica's record copied.
        """
        ledger = self.ledger
        if facts or issued:
            rid = act[1][1] if act[0] == "deliver" else act[1][0]
            ledger = ledger.fork(rid)
            for fact in facts:
                ledger.note(rid, fact)
            ledger.note_issued(rid, issued)
        return World(row, ledger, self.table)

    def apply(self, act) -> "World":
        """Successor state after `act`: its row, then the world."""
        return self.child(act, *self.next_row(act))

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
    step) pairs, and a step is taken when its pair is popped: next_row
    gives the successor's row, which is its key, and only a row not seen
    yet is built into a world by child, so a seen successor costs table
    lookups and forks no ledger. World.apply is the same two calls. Pairs
    are pushed in enabled() order, so the last enabled step's successor is
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
            step = w.next_row(act)
            if step[0] in seen:
                continue
            w = w.child(act, *step)
        seen.add(w.state_key())
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


# -- scenario worlds -----------------------------------------------------
# One client, faulty leader 0 tripping at seq 1, and no checkpoint unless
# asked for; the timeouts keep their defaults, as the checker's timers
# carry no time.


def equivocate_world(decisions: bool = True) -> World:
    """Faulty leader re-binds the request at values 1 and 2; follower 1 sees
    both (flags the duplicate), follower 2 sees only value 2 (freezes)."""
    return World.from_config(SimConfig(
        decisions=decisions, clients=1, requests_per_client=1,
        checkpoint_interval=1000, window=2000,
        adversary="equivocate_withhold", adversary_params={"trigger": 1}))


def gap_world(decisions: bool = False, requests: int = 1,
              checkpoint_interval: int = 1000, f: int = 1) -> World:
    """Faulty leader consumes value 1 and sends nothing; the run must cross
    a view change to make progress. At f=2 the world has n=5."""
    return World.from_config(SimConfig(
        f=f, decisions=decisions, clients=1, requests_per_client=requests,
        checkpoint_interval=checkpoint_interval,
        window=2 * checkpoint_interval,
        adversary="gap_forever", adversary_params={"trigger": 1}))


def prevention_world(decisions: bool = False) -> World:
    """Prevention mode: the double binding dies inside the leader's component,
    so only the single certified proposal ever reaches the followers."""
    return World.from_config(SimConfig(
        mode="prevention", decisions=decisions, clients=1,
        requests_per_client=1, checkpoint_interval=1000, window=2000,
        adversary="equivocate_withhold", adversary_params={"trigger": 1}))
