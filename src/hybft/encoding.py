"""Canonical encoding, the package's one digest, its frozen records and
their two memo rules.

It imports no other hybft module, so tc and messages share it as peers. A
message, certificate or timeline entry is a _record: a frozen dataclass
whose __init__ stores each field straight into the instance __dict__. It
keeps a memo in that __dict__ under "_" + the computing function's name,
outside the fields: equality, hashing and dataclasses.replace ignore it.
_once keeps a value of the instance alone; _keyed one that also depends on
a key, the argument after the instance, for the last key only, reused while
the key compares equal. A memo holds only what its own function computed,
or what _preset wrote: the same value, computed by whoever built the record
before the record existed.
"""

from __future__ import annotations

import dataclasses
import functools
import hashlib
import struct

_LEN = struct.Struct(">I").pack
_INT = struct.Struct(">IQ").pack   # length prefix 8, then the value


def _enc(*fields) -> bytes:
    """Canonical length-prefixed encoding used for every certificate payload.

    Every field is a 4-byte big-endian length and its bytes; an int is 8
    unsigned big-endian bytes. Exact bytes, int and str fields, nearly all
    of them, are tested first. A bool or other int subclass packs as an int
    and a str or bytes subclass as its base type; any other field raises
    TypeError, and an int outside 0..2**64-1 raises OverflowError.
    """
    out = []
    append = out.append
    try:
        for f in fields:
            t = type(f)
            if t is bytes:
                append(_LEN(len(f)))
                append(f)
            elif t is int:
                append(_INT(8, f))
            elif t is str:
                b = f.encode("utf-8")
                append(_LEN(len(b)))
                append(b)
            elif isinstance(f, int):
                append(_INT(8, f))
            else:
                if isinstance(f, str):
                    f = f.encode("utf-8")
                elif not isinstance(f, bytes):
                    raise TypeError(f"unencodable field {f!r}")
                append(_LEN(len(f)))
                append(f)
    except struct.error as exc:
        raise OverflowError(f"field out of range: {exc}") from exc
    return b"".join(out)


def _h(payload: bytes) -> bytes:
    """SHA-256 of payload: every digest and derived key in the package."""
    return hashlib.sha256(payload).digest()


def _record(cls):
    """`cls` as a frozen dataclass whose __init__ stores each field in the
    instance __dict__, where the memos go too; dataclass's own makes one
    object.__setattr__ call per field. Assignment still raises
    FrozenInstanceError. A default must be a value: a factory would make
    its field required."""
    cls = dataclasses.dataclass(frozen=True, init=False)(cls)
    fields = dataclasses.fields(cls)
    scope = {f"_{f.name}": f.default for f in fields}
    params = ", ".join(f.name if f.default is dataclasses.MISSING
                       else f"{f.name}=_{f.name}" for f in fields)
    body = "".join(f"\n    fill[{f.name!r}] = {f.name}" for f in fields)
    exec(f"def __init__(self, {params}):\n    fill = self.__dict__{body}",
         scope)
    cls.__init__ = scope["__init__"]
    cls.__init__.__qualname__ = f"{cls.__qualname__}.__init__"
    return cls


def _preset(record, **memos):
    """`record` with the memo of each named _once method already holding
    `memos`' value for it, which its builder computed first."""
    fill = record.__dict__
    for name, value in memos.items():
        fill["_" + name] = value
    return record


def _once(method):
    """Memoize a method of a frozen dataclass on its instance. The result
    is a plain function, so setattr on the class can wrap it."""
    slot = "_" + method.__name__

    @functools.wraps(method)
    def memoized(self):
        memo = self.__dict__
        try:
            return memo[slot]
        except KeyError:
            value = memo[slot] = method(self)
            return value

    return memoized


def _keyed(compute):
    """Memoize compute(obj, key) on obj, as (key, value), for the last key.
    The slot is "_" + compute.__name__, which wraps keeps."""
    slot = "_" + compute.__name__

    @functools.wraps(compute)
    def memoized(obj, key):
        memo = obj.__dict__.get(slot)
        if memo is None or memo[0] != key:
            memo = obj.__dict__[slot] = (key, compute(obj, key))
        return memo[1]

    return memoized
