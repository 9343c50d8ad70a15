"""Exhaustive small-scope checks: trusted-interface traces and the n=3
protocol worlds under scripted faults, across every delivery interleaving."""

from __future__ import annotations

import ast
import copy
import dataclasses
import functools
import gc
import os
import subprocess
import sys
import textwrap
import weakref
from dataclasses import dataclass
from pathlib import Path
from typing import Dict

import pytest

import hybft
from hybft import messages as m
from hybft import model_check, sim
from hybft.config import ConfigError, SimConfig
from hybft.model_check import (
    World,
    _fresh_tc,
    _verdict,
    check_commit_quorum,
    equivocate_world,
    explore_context_traces,
    explore_counter_traces,
    explore_world,
    gap_world,
    prevention_world,
)
from hybft.protocol import _CONFIG, _COPY, Replica
from hybft.sim import Ledger
from hybft.tc import (ContextCertificate, EquivocationRefused, SequenceRefused,
                      TrustedComponent)


def test_counter_interface_traces_exhaustively():
    r = explore_counter_traces(depth=6)
    assert r["paths"] == 4 ** 6  # four enabled calls per step


def test_context_interface_traces_exhaustively():
    r = explore_context_traces(depth=6)
    assert r["paths"] == 6 ** 6


@pytest.mark.parametrize("fault", ["reissue", "refusal"])
def test_context_traces_catch_a_component_off_the_shadow(fault, monkeypatch):
    # a component that certifies an id behind its phase's position again,
    # or that refuses it as out of sequence rather than as an equivocation
    real = TrustedComponent.certify_context

    def faulty(self, phase, view, seq, msg_hash):
        try:
            return real(self, phase, view, seq, msg_hash)
        except EquivocationRefused:
            if fault == "refusal":
                raise SequenceRefused(f"({view},{seq})") from None
            return ContextCertificate(self.replica_id, self.epoch, phase,
                                      view, seq, msg_hash, b"")

    monkeypatch.setattr(TrustedComponent, "certify_context", faulty)
    with pytest.raises(AssertionError, match=r"^cert \(\d,\d\) after "):
        explore_context_traces(depth=2)


def test_commit_quorum_over_all_arrival_orders():
    # every order of at most three of the 8 attestations: 1 + 8 + 56 + 336
    r = check_commit_quorum(f=2)
    assert r["orders"] == 401


def test_counter_traces_at_full_depth():
    r = explore_counter_traces(depth=8)
    assert r["paths"] == 4 ** 8


# The exact counts pin the explored state spaces: a change that means to
# keep behaviour keeps them, and one that changes them must say why.


def test_equivocating_leader_world_is_safe_everywhere(equivocate_exploration):
    # 8,913 / 17 / 15 while a commit tracker kept how it committed: states
    # that differed only in that record are now one state
    assert equivocate_exploration == {
        "states": 8_657, "terminals": 14, "full_commit_terminals": 12}


def test_equivocating_leader_world_without_decisions_is_safe_everywhere():
    assert explore_world(equivocate_world(decisions=False)) == {
        "states": 3_087, "terminals": 8, "full_commit_terminals": 6}


# The seed keys the components and the clients, so it changes the bytes
# of a world's messages and certificates, not the world's shape.
_SEEDS = pytest.mark.parametrize("seed", [42, 7])


def _seeded(build, seed, monkeypatch):
    """build() with the seed of its configuration set to `seed`."""
    monkeypatch.setattr(model_check, "SimConfig",
                        functools.partial(SimConfig, seed=seed))
    world = build()
    assert world.table.values[world.row[1]].cfg.seed == seed
    return world


@_SEEDS
def test_withholding_leader_world_is_safe_everywhere(seed, monkeypatch):
    world = _seeded(gap_world, seed, monkeypatch)
    assert explore_world(world, max_states=400_000) == {
        "states": 377, "terminals": 4, "full_commit_terminals": 3}


@_SEEDS
def test_prevention_world_is_safe_everywhere(seed, monkeypatch):
    world = _seeded(prevention_world, seed, monkeypatch)
    assert explore_world(world, max_states=400_000) == {
        "states": 1_595, "terminals": 7, "full_commit_terminals": 4}


def _counter_identity(**kw) -> World:
    """Faulty leader 0 runs two value-1 timelines on minted counters."""
    return World.from_config(SimConfig(
        clients=1, requests_per_client=1, checkpoint_interval=1000,
        window=2000, adversary="counter_identity", **kw))


# The counter-identity worlds that are safe, as builders for the property
# tests below.
_MINTING = functools.partial(_counter_identity, vulnerable_tc=True)
_MINTING_NO_DECISIONS = functools.partial(_MINTING, decisions=False)
_SAFE_COUNTER_IDENTITY = [
    pytest.param(_MINTING, id="minting"),
    pytest.param(_MINTING_NO_DECISIONS, id="minting_no_decisions"),
    pytest.param(_counter_identity, id="strict"),
]


# ROADMAP item 25, headline result 3: under the pinned policy the followers
# admit one counter per leader, and a strict component refuses the mint;
# both are safe on every path.
@pytest.mark.parametrize("kw, counts", [
    ({"vulnerable_tc": True}, (2_340, 4, 3)),
    ({"vulnerable_tc": True, "decisions": False}, (1_508, 4, 3)),
    ({}, (2_907, 11, 10)),
], ids=["minting", "minting_no_decisions", "strict"])
def test_counter_identity_worlds_under_the_pinned_policy_are_safe(kw, counts):
    assert explore_world(_counter_identity(**kw)) == dict(zip(
        ("states", "terminals", "full_commit_terminals"), counts))


# Under the announced policy a minting component is unsafe on some path.
@pytest.mark.parametrize("decisions, kinds", [
    (True, ["conflicting_admission"]),
    (False, ["conflicting_admission", "conflicting_commit",
             "divergent_execution"]),
], ids=["decisions", "no_decisions"])
def test_a_counter_identity_world_under_the_announced_policy_is_unsafe(
        decisions, kinds):
    world = _counter_identity(vulnerable_tc=True, counter_policy="announced",
                              decisions=decisions)
    with pytest.raises(AssertionError) as info:
        explore_world(world)
    assert sorted({v["kind"] for v in info.value.args[0]}) == kinds


def test_a_world_is_not_built_from_timed_component_actions():
    # crash_tcs schedules crashes on the simulator's clock, which the
    # checker does not have
    with pytest.raises(ConfigError, match="crash_tcs"):
        World.from_config(SimConfig(adversary="crash_tcs"))


def test_only_the_simulator_sets_up_replicas():
    """The directory and the replicas are built by sim.Simulator alone, so
    a checker world is set up as a simulator run is."""
    src = Path(hybft.__file__).resolve().parent
    offenders = []
    for path in sorted(src.glob("*.py")):
        if path.name == "sim.py":
            continue
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Call) and {"Directory", "Replica"} & {
                    getattr(node.func, "attr", None),
                    getattr(node.func, "id", None)}:
                offenders.append(f"{path.name}:{node.lineno}")
    assert offenders == []


def test_the_prevention_world_rejects_a_component_that_binds_twice(
        monkeypatch):
    real = TrustedComponent.certify_context

    def binds_twice(self, phase, view, seq, msg_hash):
        try:
            return real(self, phase, view, seq, msg_hash)
        except EquivocationRefused:
            return self._issue(ContextCertificate, phase, view, seq, msg_hash)

    monkeypatch.setattr(TrustedComponent, "certify_context", binds_twice)
    with pytest.raises(AssertionError,
                       match="^component must refuse the second context binding$"):
        prevention_world()


def checkpoint_world() -> World:
    """The gap world with two requests and a checkpoint after each seq."""
    return gap_world(requests=2, checkpoint_interval=1)


def test_checkpoint_world_is_safe_everywhere_and_reaches_stable_checkpoints(
        monkeypatch):
    stable = set()
    build = World.child

    def recording_child(world, act, *step):
        child = build(world, act, *step)
        stable.update(r.stable_seq for r in _plain(child).replicas.values())
        return child

    monkeypatch.setattr(World, "child", recording_child)
    assert explore_world(checkpoint_world()) == {
        "states": 1_617, "terminals": 7, "full_commit_terminals": 6}
    assert max(stable) == 2


def test_explorer_rejects_a_world_that_starts_unsafe():
    world = gap_world()
    world.ledger.note(1, ("fact", "commit", 1, b"a" * 32))
    world.ledger.note(2, ("fact", "commit", 1, b"b" * 32))
    with pytest.raises(AssertionError, match="conflicting_commit"):
        explore_world(world)


def test_explorer_rejects_a_commit_that_conflicts_below_the_root(
        monkeypatch):
    # replica 2 notes another digest for each seq it commits. The ledger
    # turns unsafe only once both correct replicas have committed, several
    # steps below the root.
    real = Replica.handle
    forged = []

    def forging(self, msg, now):
        effects = real(self, msg, now)
        if self.id != 2:
            return effects
        forged.extend(e[2] for e in effects if e[:2] == ("fact", "commit"))
        return [("fact", "commit", e[2], b"x" * 32)
                if e[:2] == ("fact", "commit") else e for e in effects]

    monkeypatch.setattr(Replica, "handle", forging)
    world = prevention_world()
    assert _verdict(world.ledger, world.table.byz) == []
    with pytest.raises(AssertionError, match="conflicting_commit"):
        explore_world(world)
    assert forged


def _error_under_python_O(code: str) -> str:
    """The last stderr line of `code` run in an interpreter that strips
    assert statements; the code must fail."""
    code = ("import sys\nif not sys.flags.optimize:\n    sys.exit('not optimized')"
            + textwrap.dedent(code))
    src = os.path.dirname(os.path.dirname(hybft.__file__))
    proc = subprocess.run([sys.executable, "-O", "-c", code],
                          capture_output=True, text=True, timeout=300,
                          env={**os.environ, "PYTHONPATH": src})
    assert proc.returncode == 1
    return proc.stderr.strip().splitlines()[-1]


def test_explorer_rejects_a_world_that_starts_unsafe_under_python_O():
    # the same world as above
    last = _error_under_python_O("""
        from hybft.model_check import explore_world, gap_world
        world = gap_world()
        world.ledger.note(1, ("fact", "commit", 1, b"a" * 32))
        world.ledger.note(2, ("fact", "commit", 1, b"b" * 32))
        explore_world(world)
    """)
    assert last.startswith("AssertionError: ") and "conflicting_commit" in last


def test_counter_traces_catch_a_repeated_value_under_python_O():
    # a component that stamps every identifier with value 1
    last = _error_under_python_O("""
        import dataclasses
        from hybft.model_check import explore_counter_traces
        from hybft.tc import TrustedComponent
        real = TrustedComponent.create_ui

        def stamp_one(self, *args, **kw):
            return dataclasses.replace(real(self, *args, **kw), value=1)

        TrustedComponent.create_ui = stamp_one
        explore_counter_traces(depth=3)
    """)
    assert last.startswith("AssertionError: ")


@pytest.mark.parametrize("name, when, build, note", [
    ("handle", lambda rep, msg, now: rep.id == 2 and isinstance(msg, m.Commit),
     prevention_world, "r2 handling commit from channel ('r1', 2)"),
    ("on_timer", lambda rep, kind, key, now: kind == "suspect",
     gap_world, "r2 handling timer suspect with key 0"),
], ids=["message", "timer"])
def test_a_handler_error_names_the_step(name, when, build, note, monkeypatch):
    real = getattr(Replica, name)

    def failing(self, *args):
        if when(self, *args):
            raise RuntimeError("boom")
        return real(self, *args)

    monkeypatch.setattr(Replica, name, failing)
    with pytest.raises(RuntimeError) as info:
        explore_world(build())
    # the exception and its message are the handler's own
    assert str(info.value) == "boom"
    assert info.value.__notes__ == [f"model check: {note}"]


# -- the representation ----------------------------------------------------


@dataclass
class _Plain:
    """A world with every id replaced by its value: the correct replicas by
    id, each channel's queue of messages, the armed timers and the ledger.
    The reference steppers below step it without the intern table or the
    step memo."""
    replicas: Dict[int, Replica]
    channels: Dict[tuple, tuple]
    armed: frozenset
    ledger: Ledger
    byz: frozenset


def _fields(table, row: tuple) -> tuple:
    """A row's parts: the armed set's id, the correct replicas' ids and
    (channel, queue id) per slot."""
    return (row[0], row[1:table.queues],
            tuple(zip(table.slots, row[table.queues:])))


def _plain(world: World) -> _Plain:
    t, value = world.table, world.table.values
    armed, replicas, queues = _fields(t, world.row)
    return _Plain({value[k].id: value[k] for k in replicas},
                  {ch: tuple(value[i] for i in value[q]) for ch, q in queues},
                  value[armed], world.ledger, t.byz)


def _queues(p: _Plain) -> dict:
    """Each non-empty channel's queue."""
    return {ch: q for ch, q in p.channels.items() if q}


def _plain_key(p: _Plain) -> tuple:
    """The key of a plain state: every replica's Replica.state_key() and
    every non-empty channel's queue, with nothing interned."""
    return (tuple(sorted((rid, r.state_key()) for rid, r in p.replicas.items())),
            tuple(sorted(_queues(p).items())), p.armed)


def _plain_enabled(p: _Plain) -> list:
    return ([("deliver", ch) for ch in sorted(_queues(p))]
            + [("timer", t) for t in sorted(p.armed)])


def _decoder(table):
    """Maps a world key read through `table` to its plain key, by inverting
    the table's intern dict. Ids are comparable only within one table, so
    keys from two explorations are compared this way."""
    value = {i: v for v, i in table.ids.items()}

    def decode(key):
        armed, replicas, queues = _fields(table, key)
        return (tuple(value[k] for k in replicas),
                tuple((ch, tuple(value[i] for i in value[q]))
                      for ch, q in queues if value[q]), value[armed])
    return decode


def _stepper(act) -> int:
    """The replica that takes step `act`."""
    return act[1][1] if act[0] == "deliver" else act[1][0]


def _run(p: _Plain, act) -> tuple:
    """Let replica _stepper(act) of `p` take `act` in place: (effects,
    certificates issued)."""
    rep = p.replicas[_stepper(act)]
    if act[0] == "deliver":
        queue = p.channels[act[1]]
        p.channels[act[1]] = queue[1:]
        effects = rep.handle(queue[0], 0)
    else:
        _, kind, tkey = act[1]
        p.armed = p.armed - {act[1]}
        effects = rep.on_timer(kind, tkey, 0)
    return effects, rep.tc.take_issued()


def _plain_step(p: _Plain, act, fork) -> _Plain:
    """The successor of `p` after `act`, in `fork(p, stepping replica id)`,
    a copy of `p` whose stepping replica and ledger the step may change."""
    rid = _stepper(act)
    w = fork(p, rid)
    effects, issued = _run(w, act)
    for eff in effects:
        if eff[0] == "send" and eff[1][0] == "replica" and eff[1][1] not in w.byz:
            ch = (f"r{rid}", eff[1][1])
            w.channels[ch] = w.channels.get(ch, ()) + (eff[2],)
        elif eff[0] == "timer":
            w.armed = w.armed | {(rid, eff[1], eff[2])}
        elif eff[0] == "fact":
            w.ledger.note(rid, eff)
    w.ledger.note_issued(rid, issued)
    return w


def _deepcopy_apply(p: _Plain, act) -> _Plain:
    """Reference successor: fork by deep-copying the whole plain state."""
    return _plain_step(p, act, lambda p, rid: copy.deepcopy(p))


def _clone_fork(p: _Plain, rid: int) -> _Plain:
    """A copy of `p` with replica `rid` cloned and the ledger forked."""
    reps = dict(p.replicas)
    reps[rid] = reps[rid].clone()
    return _Plain(reps, dict(p.channels), p.armed, p.ledger.fork(rid), p.byz)


def _memo_free_apply(p: _Plain, act) -> _Plain:
    """World.apply without the step memo or the intern table: clone the
    stepping replica and fork the ledger, as every step did before the
    memo."""
    return _plain_step(p, act, _clone_fork)


def _reachable_keys(world, apply, keyof=World.state_key,
                    enabled=World.enabled) -> set:
    seen = set()
    stack = [world]
    while stack:
        w = stack.pop()
        key = keyof(w)
        if key not in seen:
            seen.add(key)
            stack.extend(apply(w, act) for act in enabled(w))
    return seen


def _records(world: World) -> dict:
    """A copy of the world's ledger records, as they are now."""
    return {rid: rec.copy() for rid, rec in world.ledger.records.items()}


def _apply_keeping_parent(world: World, act) -> World:
    key, records = _plain_key(_plain(world)), _records(world)
    child = world.apply(act)
    assert _plain_key(_plain(world)) == key, act
    assert _records(world) == records, act
    return child


@pytest.mark.parametrize("build", [gap_world, prevention_world])
def test_apply_never_mutates_the_parent_world(build):
    assert _reachable_keys(build(), _apply_keeping_parent)


def _plain_data(value) -> bool:
    """Whether `value` is ints, strings, bytes and None, in tuples and
    frozensets: no message, replica or other object."""
    if isinstance(value, (tuple, frozenset)):
        return all(_plain_data(v) for v in value)
    return value is None or isinstance(value, (int, str, bytes))


@pytest.mark.parametrize("build", [gap_world, prevention_world,
                                   checkpoint_world])
def test_world_and_memo_keys_hold_no_message(build, monkeypatch):
    # a world is its row and its ledger; messages, replicas and queues live
    # in the table only, and the memo keys a delivery by the message's id
    keys = []
    state_key = World.state_key

    def recording_key(world):
        key = state_key(world)
        assert key is world.row
        keys.append(key)
        return key

    monkeypatch.setattr(World, "state_key", recording_key)
    root = build()
    explore_world(root)
    # the armed set, each correct replica and each slot, all ids
    width = 1 + len(root.table.rids) + len(root.table.slots)
    assert keys and all(type(key) is tuple and len(key) == width
                        and all(type(i) is int for i in key) for key in keys)
    assert all(_plain_data(step) for step in root.table.memo)


@pytest.mark.parametrize("build", [gap_world, prevention_world,
                                   checkpoint_world])
def test_world_keys_and_plain_keys_are_in_bijection(build, monkeypatch):
    # interning merges no two states and splits none
    pairs = set()
    state_key = World.state_key

    def recording_key(world):
        key = state_key(world)
        pairs.add((key, _plain_key(_plain(world))))
        return key

    monkeypatch.setattr(World, "state_key", recording_key)
    root = build()
    states = explore_world(root)["states"]
    assert len({k for k, _ in pairs}) == len({p for _, p in pairs}) \
        == len(pairs) == states
    # ids and values match one to one: each value is numbered by its own
    # key, and a queue or an armed set is its own key
    t = root.table
    assert len(t.ids) == len(t.values)
    assert all(t.ids[(v.id, v.state_key()) if isinstance(v, Replica) else v]
               == i for i, v in enumerate(t.values))
    kinds = {type(v) for v in t.values}
    assert tuple in kinds and frozenset in kinds and t.values[0] == ()
    assert all(type(v) is not tuple or all(type(i) is int for i in v)
               for v in t.values)


def test_forking_explorer_matches_a_deepcopy_explorer():
    root = gap_world()
    keys = _reachable_keys(root, World.apply)
    forked = set(map(_decoder(root.table), keys))
    reference = _reachable_keys(_plain(gap_world()), _deepcopy_apply,
                                _plain_key, _plain_enabled)
    assert forked == reference
    assert len(forked) == explore_world(gap_world())["states"]


def test_a_table_is_freed_with_its_last_world():
    # no memo refers back to its table, so a table goes with its worlds and
    # does not wait for the cycle collector, which would raise peak memory
    root = gap_world()
    explore_world(root)
    table = weakref.ref(root.table)
    gc.disable()
    try:
        del root
        assert table() is None
    finally:
        gc.enable()


# -- the search ------------------------------------------------------------


def test_the_state_budget_is_enforced():
    assert explore_world(gap_world(), max_states=377)["states"] == 377
    with pytest.raises(AssertionError, match="^state budget exceeded$"):
        explore_world(gap_world(), max_states=376)


def test_the_state_budget_is_enforced_under_python_O():
    last = _error_under_python_O("""
        from hybft.model_check import explore_world, gap_world
        explore_world(gap_world(), max_states=376)
    """)
    assert last == "AssertionError: state budget exceeded"


# The step counts are pinned like the state counts: the successor's row of
# every enabled step of every new state is computed once.
@pytest.mark.parametrize("build, steps", [
    pytest.param(gap_world, 1_120, id="gap"),
    pytest.param(prevention_world, 6_207, id="prevention"),
    pytest.param(lambda: equivocate_world(decisions=False), 12_073,
                 id="equivocate_no_decisions"),
    pytest.param(_MINTING, 10_148, id="minting"),
    pytest.param(_MINTING_NO_DECISIONS, 5_988, id="minting_no_decisions"),
    pytest.param(_counter_identity, 11_775, id="strict"),
])
def test_explorer_visits_every_reachable_state(build, steps, monkeypatch):
    ref_root, root = build(), build()
    ref_keys = _reachable_keys(ref_root, World.apply)
    keys = set()
    rows = 0
    state_key, next_row = World.state_key, World.next_row

    def recording_key(world):
        key = state_key(world)
        keys.add(key)
        return key

    def counting_next_row(world, act):
        nonlocal rows
        rows += 1
        return next_row(world, act)

    monkeypatch.setattr(World, "state_key", recording_key)
    monkeypatch.setattr(World, "next_row", counting_next_row)
    assert explore_world(root)["states"] == len(ref_keys)
    # two roots, two tables: compare decoded keys
    assert set(map(_decoder(root.table), keys)) == \
        set(map(_decoder(ref_root.table), ref_keys))
    assert rows == steps


_FIVE = [
    pytest.param(gap_world, id="gap"),
    pytest.param(prevention_world, id="prevention"),
    pytest.param(checkpoint_world, id="checkpoint"),
    pytest.param(lambda: equivocate_world(decisions=False),
                 id="equivocate_no_decisions"),
    pytest.param(equivocate_world, id="equivocate"),
]
_FIVE_WORLDS = pytest.mark.parametrize("build", _FIVE)
_EIGHT_WORLDS = pytest.mark.parametrize("build", _FIVE + _SAFE_COUNTER_IDENTITY)


# With every replica attribute but the configuration and the counters in
# the key, a key's successors do not depend on the path that reached it, so
# the order of the search does not change what it reaches (ROADMAP item 8).
@_EIGHT_WORLDS
def test_both_pop_orders_reach_the_same_states(build, monkeypatch):
    state_key, enabled = World.state_key, World.enabled

    def reach(order):
        root, keys = build(), set()

        def recording_key(world):
            key = state_key(world)
            keys.add(key)
            return key

        monkeypatch.setattr(World, "state_key", recording_key)
        monkeypatch.setattr(World, "enabled", lambda w: order(enabled(w)))
        counts = explore_world(root)
        return counts, set(map(_decoder(root.table), keys))

    # explore_world pops the last enabled step first; reversed, the first
    last, first = reach(list), reach(lambda acts: acts[::-1])
    assert last == first


# The step order does fix which path reaches a key first, and so which
# ledger the oracle scans there: the scan pins below rest on it.
@_FIVE_WORLDS
def test_steps_are_enabled_in_channel_order_then_timer_order(build,
                                                            monkeypatch):
    enabled, states = World.enabled, 0

    def checking(world):
        nonlocal states
        states += 1
        acts = enabled(world)
        assert acts == _plain_enabled(_plain(world))
        return acts

    monkeypatch.setattr(World, "enabled", checking)
    assert explore_world(build())["states"] == states


def test_an_n5_gap_world_is_safe_up_to_a_fixed_budget():
    # ROADMAP item 21: the gap world at f=2 has four correct replicas and
    # does not finish in tier-1's time, so its first 50,000 states are
    # checked; the only error may be the budget's
    world = gap_world(f=2)
    assert world.table.rids == (1, 2, 3, 4) and world.table.byz == {0}
    assert world.table.values[world.row[1]].cfg.n == 5
    with pytest.raises(AssertionError, match="^state budget exceeded$"):
        explore_world(world, max_states=50_000)


# -- no clock --------------------------------------------------------------


def _apply_at_two_times(world: World, act, checked: dict) -> World:
    """World.apply, once clones of the stepping replica have shown that the
    step's effects and the state it leaves do not depend on the time the
    host passes in. The check reads only the replica object and its input
    (a message object or a timer), so `checked` keeps each pair it has
    shown, and a pair that another path reaches again is not run again."""
    p = _plain(world)
    src = p.replicas[_stepper(act)]
    if act[0] == "deliver":
        inp = p.channels[act[1]][0]
        pair = id(src), id(inp)
    else:
        inp = act[1]
        pair = id(src), inp
    if pair not in checked:
        checked[pair] = src, inp
        results = []
        for now in (0, 10 ** 12):
            rep = src.clone()
            effects = (rep.handle(inp, now) if act[0] == "deliver"
                       else rep.on_timer(inp[1], inp[2], now))
            results.append((effects, rep.state_key()))
        assert results[0] == results[1], act
    return world.apply(act)


@pytest.mark.parametrize("build", [gap_world, prevention_world,
                                   *_SAFE_COUNTER_IDENTITY])
def test_a_replica_reads_no_clock(build):
    # the host stamps times on what a replica reports; the replica's own
    # behaviour is a function of its state and its input alone
    root, checked = build(), {}
    setup = len(root.table.memo)
    assert _reachable_keys(
        root, lambda world, act: _apply_at_two_times(world, act, checked))
    # one check per distinct replica step, as the step memo runs handlers
    assert len(checked) == len(root.table.memo) - setup


# -- the step memo ---------------------------------------------------------


@pytest.mark.parametrize("build", [
    pytest.param(gap_world, id="gap_world"),
    pytest.param(prevention_world, id="prevention_world"),
    pytest.param(checkpoint_world, id="checkpoint_world"),
    pytest.param(lambda: equivocate_world(decisions=False),
                 id="equivocate_no_decisions"),
    *_SAFE_COUNTER_IDENTITY,
])
def test_a_memoized_step_equals_a_memo_free_step_everywhere(build):
    applies = 0

    def apply_checking_memo(world, act):
        nonlocal applies
        applies += 1
        rid = _stepper(act)
        child = world.apply(act)
        got, ref = _plain(child), _memo_free_apply(_plain(world), act)
        assert got.replicas[rid].state_key() == \
            ref.replicas[rid].state_key(), act
        assert (_queues(got), got.armed) == (_queues(ref), ref.armed), act
        assert got.ledger.records.get(rid) == ref.ledger.records.get(rid), act
        return child

    root = build()
    assert _reachable_keys(root, apply_checking_memo)
    # the memo was used: most steps were hits
    assert len(root.table.memo) < applies / 2


# Handler runs are pinned like the step counts: each distinct (replica key,
# input) pair runs once, against 1,120, 6,207 and 12,073 steps. The memo
# also holds the root's deliveries of the client's requests: one per
# request and correct replica.
@pytest.mark.parametrize("build, runs, setup", [
    (gap_world, 71, 2),
    (prevention_world, 132, 2),
    (lambda: equivocate_world(decisions=False), 218, 2),
    (checkpoint_world, 221, 4),
], ids=["gap", "prevention", "equivocate_no_decisions", "checkpoint"])
def test_each_replica_step_runs_its_handler_once(build, runs, setup,
                                                 monkeypatch):
    root = build()
    assert len(root.table.memo) == setup
    calls = 0

    def counting(real):
        def run(self, *args):
            nonlocal calls
            calls += 1
            return real(self, *args)
        return run

    for name in ("handle", "on_timer"):
        monkeypatch.setattr(Replica, name, counting(getattr(Replica, name)))
    explore_world(root)
    assert calls == len(root.table.memo) - setup == runs


def _immutable(value) -> bool:
    """Whether `value` can never change: None, a bool, int, str or bytes,
    or a tuple, frozenset or frozen dataclass of immutable values."""
    kind = type(value)
    if kind is tuple or kind is frozenset:
        return all(map(_immutable, value))
    if dataclasses.is_dataclass(kind):
        return kind.__dataclass_params__.frozen and all(
            _immutable(getattr(value, f.name)) for f in dataclasses.fields(kind))
    return value is None or kind in (bool, int, str, bytes)


def _copied_where_mutable(value) -> bool:
    """Whether clone copies every part of `value` that can change. _copy
    goes by exact type (protocol._COPY): it copies a dict at every depth, a
    list or a set (sharing their elements, which must be immutable), a
    tracker and a component, and it shares a value of any other type,
    which must then be immutable."""
    kind = type(value)
    if kind not in _COPY:
        return _immutable(value)
    if kind is dict:
        return all(_immutable(k) and _copied_where_mutable(v)
                   for k, v in value.items())
    return kind not in (list, set) or all(map(_immutable, value))


@pytest.mark.parametrize("build", [
    pytest.param(gap_world, id="gap_world"),
    pytest.param(prevention_world, id="prevention_world"),
    pytest.param(checkpoint_world, id="checkpoint_world"),
    pytest.param(lambda: equivocate_world(decisions=False),
                 id="equivocate_no_decisions"),
    pytest.param(equivocate_world, id="equivocate"),
    *_SAFE_COUNTER_IDENTITY,
])
def test_memoized_replicas_never_change(build):
    # a successor shares every container that equals its source's; a step
    # that changed a shared container would change a kept replica's key.
    # Each replica in the table must still have the key it was numbered by,
    # and each memo entry names a replica before and after its step. A
    # stepped replica's key reuses its source's entries for the objects
    # they share, so the table's kept key must be the full key, and every
    # object that clone shares must be immutable: a container of a type
    # _copy does not know (a dict subclass, say) would be shared and could
    # change under its reused key.
    root = build()
    value = root.table.values
    replicas = _fields(root.table, root.row)[1]
    roots = [value[k].state_key() for k in replicas]
    explore_world(root)
    assert [value[k].state_key() for k in replicas] == roots
    for (kid, _), (succ, _, _) in root.table.memo.items():
        assert value[kid].id == value[succ].id
        assert root.table.ids[value[succ].id, value[succ].state_key()] == succ
    for kid, rep in enumerate(value):
        if isinstance(rep, Replica):
            key = rep.state_key()
            assert root.table.ids[rep.id, key] == kid
            assert root.table.keys[kid] == key
            assert all(_copied_where_mutable(v) for name, v in vars(rep).items()
                       if name not in _CONFIG), kid


# -- one oracle scan per distinct ledger ----------------------------------


def _records_something(world: World, act) -> bool:
    """Whether `act` notes a fact or issues a certificate, from a clone of
    the stepping replica that takes the step again."""
    effects, issued = _run(_clone_fork(_plain(world), _stepper(act)), act)
    return any(e[0] == "fact" for e in effects) or bool(issued)


# Oracle scans are pinned like handler runs: one per distinct ledger object
# among the explored states, against 377, 1,595, 3,087 and 1,617 states.
_SCANS = pytest.mark.parametrize("build, scans", [
    (gap_world, 104),
    (prevention_world, 127),
    (lambda: equivocate_world(decisions=False), 405),
    (checkpoint_world, 364),
], ids=["gap", "prevention", "equivocate_no_decisions", "checkpoint"])


@_SCANS
def test_each_distinct_ledger_is_scanned_once(build, scans, monkeypatch):
    root = build()
    fresh = sim.safety_violations
    scanned, verdicts, steps = [], [], [0, 0]
    real_scan, real_verdict, build_child = (
        model_check.safety_violations, model_check._verdict, World.child)

    def counting_scan(ledger, byz):
        scanned.append(ledger)
        return real_scan(ledger, byz)

    def checking_verdict(ledger, byz):
        verdict = real_verdict(ledger, byz)
        assert verdict == fresh(ledger, root.table.byz)
        verdicts.append(ledger)
        return verdict

    def sharing_child(world, act, *step):
        records = _records_something(world, act)
        child = build_child(world, act, *step)
        # a step that records nothing keeps its parent's ledger object
        assert (child.ledger is world.ledger) == (not records), act
        steps[records] += 1
        return child

    monkeypatch.setattr(model_check, "safety_violations", counting_scan)
    monkeypatch.setattr(model_check, "_verdict", checking_verdict)
    monkeypatch.setattr(World, "child", sharing_child)
    states = explore_world(root)["states"]
    # a verdict at every new state, one scan per distinct ledger
    assert len(verdicts) == states
    assert len(scanned) == len({id(led) for led in scanned}) \
        == len({id(led) for led in verdicts}) == scans
    assert steps[0] and steps[1]


# The search builds a successor, and forks its ledger, only for a row it has
# not seen, so each distinct ledger but the root's is one fork: 103, 126,
# 404 and 363. Building every successor forked 189, 786, 1,773 and 581.
@_SCANS
def test_a_seen_successor_forks_no_ledger(build, scans, monkeypatch):
    root = build()
    forks = 0
    fork = Ledger.fork

    def counting_fork(ledger, rid):
        nonlocal forks
        forks += 1
        return fork(ledger, rid)

    monkeypatch.setattr(Ledger, "fork", counting_fork)
    explore_world(root)
    assert forks == scans - 1


def test_a_kept_verdict_ends_at_the_next_note():
    byz = frozenset({0})
    ledger = sim.Ledger()
    ledger.note(1, ("fact", "commit", 1, b"a" * 32))
    assert _verdict(ledger, byz) == []
    ledger.note(2, ("fact", "commit", 1, b"b" * 32))
    assert [v["kind"] for v in _verdict(ledger, byz)] == ["conflicting_commit"]
    # the verdict is kept per byz set, and a fork starts with none
    assert _verdict(ledger, frozenset({0, 2})) == []
    assert ledger.fork(1).verdict is None

    ui = _fresh_tc(1).create_ui(b"d" * 32)
    ledger = sim.Ledger()
    ledger.note_issued(1, [ui])
    assert _verdict(ledger, byz) == []
    ledger.note_issued(1, [])
    assert ledger.verdict is not None
    ledger.note_issued(1, [ui])
    assert [v["kind"] for v in _verdict(ledger, byz)] == ["double_ui"]


def test_a_step_that_raised_raises_again_when_reached_again(monkeypatch):
    # replica 2's delivery from the faulty leader is the same step from the
    # root and after replica 1's first step, which leaves replica 2's id
    root = prevention_world()
    first = ("deliver", ("r0", 1))
    again = ("deliver", ("r0", 2))
    other = root.apply(first)
    assert root.table.rids == (1, 2) and other.row[2] == root.row[2]
    memo = dict(root.table.memo)
    real = Replica.handle

    def failing(self, msg, now):
        if self.id == 2:
            raise RuntimeError("boom")
        return real(self, msg, now)

    monkeypatch.setattr(Replica, "handle", failing)
    notes = []
    for world in (root, other, root):
        with pytest.raises(RuntimeError, match="boom") as info:
            world.apply(again)
        notes.append(info.value.__notes__)
    assert notes == [["model check: r2 handling prepare from channel "
                      "('r0', 2)"]] * 3
    assert root.table.memo == memo
