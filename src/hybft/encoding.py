"""Canonical encoding, the package's one digest, and its two memo rules.

It imports no other hybft module, so tc and messages share it as peers. A
frozen dataclass keeps a memo in its __dict__ under "_" + the computing
function's name, outside the fields: equality, hashing and
dataclasses.replace ignore it. _once keeps a value of the instance alone;
_keyed one that also depends on a key, the argument after the instance,
for the last key only, reused while the key compares equal. A memo holds
only what its own function computed.
"""

from __future__ import annotations

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
