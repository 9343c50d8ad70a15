"""Exhaustive small-scope checks: trusted-interface traces and the n=3
protocol worlds under scripted faults, across every delivery interleaving."""

from __future__ import annotations

import copy

import pytest

from hybft.model_check import (
    World,
    check_commit_quorum,
    equivocate_world,
    explore_context_traces,
    explore_counter_traces,
    explore_world,
    gap_world,
    prevention_world,
)


def test_counter_interface_traces_exhaustively():
    r = explore_counter_traces(depth=6)
    assert r["paths"] == 4 ** 6  # four enabled calls per step


def test_context_interface_traces_exhaustively():
    r = explore_context_traces(depth=6)
    assert r["paths"] == 6 ** 6


def test_commit_quorum_over_all_arrival_orders():
    r = check_commit_quorum(f=2)
    assert r["orders"] > 0


def test_counter_traces_at_full_depth():
    r = explore_counter_traces(depth=8)
    assert r["paths"] == 4 ** 8


# The exact counts pin the explored state spaces: a change that means to
# keep behaviour keeps them, and one that changes them must say why.


def test_equivocating_leader_world_is_safe_everywhere(equivocate_exploration):
    assert equivocate_exploration == {
        "states": 13_571, "terminals": 19, "full_commit_terminals": 17}


def test_equivocating_leader_world_without_decisions_is_safe_everywhere():
    assert explore_world(equivocate_world(decisions=False)) == {
        "states": 3_215, "terminals": 8, "full_commit_terminals": 6}


def test_withholding_leader_world_is_safe_everywhere():
    assert explore_world(gap_world(), max_states=400_000) == {
        "states": 377, "terminals": 4, "full_commit_terminals": 3}


def test_prevention_world_is_safe_everywhere():
    assert explore_world(prevention_world(), max_states=400_000) == {
        "states": 1_595, "terminals": 7, "full_commit_terminals": 4}


def test_explorer_rejects_a_world_that_starts_unsafe():
    world = gap_world()
    world.ledger.note(1, ("fact", "commit", 1, b"a" * 32))
    world.ledger.note(2, ("fact", "commit", 1, b"b" * 32))
    with pytest.raises(AssertionError, match="conflicting_commit"):
        explore_world(world)


# -- copy-on-write forks -------------------------------------------------


def _deepcopy_apply(world: World, act) -> World:
    """Reference successor: fork by deep-copying the whole world."""
    w = copy.deepcopy(world)
    if act[0] == "deliver":
        queue = w.channels[act[1]]
        w.channels[act[1]] = queue[1:]
        rid = act[1][1]
        effects = w.replicas[rid].handle(queue[0], 0)
    else:
        rid, kind, tkey = act[1]
        w.armed = w.armed - {act[1]}
        effects = w.replicas[rid].on_timer(kind, tkey, 0)
    w._absorb(rid, effects)
    return w


def _reachable_keys(world: World, apply) -> set:
    seen = set()
    stack = [world]
    while stack:
        w = stack.pop()
        key = w.state_key()
        if key not in seen:
            seen.add(key)
            stack.extend(apply(w, act) for act in w.enabled())
    return seen


def _apply_keeping_parent(world: World, act) -> World:
    key = world.state_key()
    child = world.apply(act)
    assert world.state_key() == key, act
    return child


@pytest.mark.parametrize("build", [gap_world, prevention_world])
def test_apply_never_mutates_the_parent_world(build):
    assert _reachable_keys(build(), _apply_keeping_parent)


def test_forking_explorer_matches_a_deepcopy_explorer():
    forked = _reachable_keys(gap_world(), World.apply)
    reference = _reachable_keys(gap_world(), _deepcopy_apply)
    assert forked == reference
    assert len(forked) == explore_world(gap_world())["states"]
