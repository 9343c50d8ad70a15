from __future__ import annotations

import dataclasses

import pytest

from hybft.model_check import equivocate_world, explore_world
from hybft.tc import Directory, TcMode, TrustedComponent

SYSTEM_KEY = b"k" * 32


@pytest.fixture
def hmac_pair():
    """Two registered HMAC components sharing one system key, plus directory."""
    directory = Directory(TcMode.HMAC)
    a = TrustedComponent(0, mode=TcMode.HMAC, system_key=SYSTEM_KEY)
    b = TrustedComponent(1, mode=TcMode.HMAC, system_key=SYSTEM_KEY)
    directory.register(0, a.epoch)
    directory.register(1, b.epoch)
    return a, b, directory


@pytest.fixture(scope="session")
def equivocate_exploration():
    """explore_world over the default equivocation world, the largest one.

    It takes seconds, and two test modules assert on it, so it runs once.
    """
    return explore_world(equivocate_world(), max_states=400_000)


@pytest.fixture
def sig_pair():
    """Two registered SIG components with public keys in the directory."""
    directory = Directory(TcMode.SIG)
    a = TrustedComponent(0, mode=TcMode.SIG)
    b = TrustedComponent(1, mode=TcMode.SIG)
    directory.register(0, a.epoch, a.public_key())
    directory.register(1, b.epoch, b.public_key())
    return a, b, directory


def make_hmac_tc(rid: int = 0, **kw) -> TrustedComponent:
    kw.setdefault("mode", TcMode.HMAC)
    kw.setdefault("system_key", SYSTEM_KEY)
    return TrustedComponent(rid, **kw)


def assert_memo_slots(obj, functions) -> None:
    """obj holds a memo of each of `functions` and nothing else besides its
    fields: each in "_" + the function's name, a slot that is no field and
    no other memo's. dataclasses.replace drops every one."""
    fields = {f.name for f in dataclasses.fields(obj)}
    slots = {"_" + fn.__name__ for fn in functions}
    assert len(slots) == len(functions) and not slots & fields
    assert set(vars(obj)) - fields == slots
    assert set(vars(dataclasses.replace(obj))) == fields
