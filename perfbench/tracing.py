"""Per-layer tracing, installed from outside the package.

The tracer wraps the public entry points of each hybft module (the layer
boundaries) with a span recorder, runs the workload, and puts the original
functions back. Nothing inside ``src/`` knows it is being traced.

A span is (id, parent id, name, start ns, end ns). Spans nest through a
stack, so a layer's self time is its span time minus the time covered by
the spans opened inside it. Aggregates cover every span; raw spans are kept
in memory up to ``span_cap`` and written out when the benchmark ends.
"""

from __future__ import annotations

import json
import time
from typing import Dict, List, Optional

_now = time.perf_counter_ns

# Spans that are one event dispatched by the simulator loop.
_DISPATCH = ("protocol.handle.", "protocol.on_timer", "clients.on_reply",
             "clients.on_timer")


def layer_targets(hybft) -> List[tuple]:
    """(owner, attribute, span name) for every wrapped layer boundary.

    The span name of ``Replica.handle`` is chosen per message type at call
    time, so it is listed with the name ``None``.
    """
    m, tc, cl = hybft.messages, hybft.tc, hybft.clients
    return [
        (m.Request, "digest", "messages.digest"),
        (m, "batch_digest", "messages.digest"),
        (m, "prepare_digest", "messages.digest"),
        (m, "commit_digest", "messages.digest"),
        (m, "checkpoint_digest", "messages.digest"),
        (m.ViewChange, "core_digest", "messages.digest"),
        (m.ViewChange, "vdigest", "messages.digest"),
        (m.NewView, "ndigest", "messages.digest"),
        (m, "wire_size", "messages.wire_size"),
        (tc.TrustedComponent, "verify", "tc.verify"),
        (tc.TrustedComponent, "create_ui", "tc.create_ui"),
        (tc.TrustedComponent, "certify_context", "tc.certify_context"),
        (tc.TrustedComponent, "attest_state", "tc.attest_state"),
        (tc.Directory, "verify", "tc.directory_verify"),
        (cl.Client, "on_reply", "clients.on_reply"),
        (cl.Client, "on_timer", "clients.on_timer"),
        (hybft.protocol.Replica, "handle", None),
        (hybft.protocol.Replica, "on_timer", "protocol.on_timer"),
        (hybft.sim.Simulator, "__init__", "sim.setup"),
        (hybft.sim.Simulator, "run", "sim.loop"),
        (hybft.model_check.World, "apply", "model_check.apply"),
        (hybft.model_check.World, "state_key", "model_check.state_key"),
    ]


class Tracer:
    """Span recorder with per-name aggregates: [calls, total ns, self ns]."""

    def __init__(self, span_cap: int = 100_000):
        self.stats: Dict[str, List[int]] = {}
        self.events = 0          # dispatches made directly by sim.loop
        self.span_cap = span_cap
        self.spans: List[tuple] = []
        self.spans_total = 0
        self._stack: List[list] = []
        self._saved: List[tuple] = []

    # ---------------------------------------------------------------- spans

    def call(self, name: str, fn, *args, **kwargs):
        stack = self._stack
        parent = stack[-1] if stack else None
        if parent is not None and parent[0] == "sim.loop" \
                and name.startswith(_DISPATCH):
            self.events += 1
        self.spans_total += 1
        frame = [name, self.spans_total, 0]   # name, span id, child ns
        stack.append(frame)
        start = _now()
        try:
            return fn(*args, **kwargs)
        finally:
            end = _now()
            stack.pop()
            dur = end - start
            st = self.stats.get(name)
            if st is None:
                st = self.stats[name] = [0, 0, 0]
            st[0] += 1
            st[1] += dur
            st[2] += dur - frame[2]
            if parent is not None:
                parent[2] += dur
            if len(self.spans) < self.span_cap:
                self.spans.append((frame[1], parent[1] if parent else 0,
                                   name, start, end))

    def calls(self, name: str) -> int:
        st = self.stats.get(name)
        return st[0] if st else 0

    def self_s(self, name: str) -> float:
        st = self.stats.get(name)
        return st[2] / 1e9 if st else 0.0

    # ------------------------------------------------------------- patching

    def install(self, hybft) -> None:
        """Wrap every layer boundary; undo with uninstall()."""
        if self._saved:
            raise RuntimeError("tracer already installed")
        for owner, attr, name in layer_targets(hybft):
            orig = owner.__dict__[attr] if isinstance(owner, type) \
                else getattr(owner, attr)
            self._saved.append((owner, attr, orig))
            setattr(owner, attr, self._wrap(orig, name))

    def uninstall(self) -> None:
        for owner, attr, orig in reversed(self._saved):
            setattr(owner, attr, orig)
        self._saved = []

    def _wrap(self, fn, name: Optional[str]):
        call = self.call
        if name is not None:
            def traced(*args, **kwargs):
                return call(name, fn, *args, **kwargs)
        else:
            names: Dict[type, str] = {}

            def traced(replica, msg, now):
                cls = type(msg)
                nm = names.get(cls)
                if nm is None:
                    nm = names[cls] = "protocol.handle." + cls.__name__.lower()
                return call(nm, fn, replica, msg, now)
        return traced

    # --------------------------------------------------------------- output

    def write(self, path: str, meta: Dict) -> None:
        """Aggregates first, then the retained raw spans, one JSON per line."""
        with open(path, "w") as fh:
            fh.write(json.dumps({
                "meta": meta, "spans_total": self.spans_total,
                "spans_kept": len(self.spans),
                "layers": {n: {"calls": c, "total_ns": t, "self_ns": s}
                           for n, (c, t, s) in sorted(self.stats.items())},
            }, sort_keys=True) + "\n")
            for sid, parent, name, start, end in self.spans:
                fh.write(json.dumps([sid, parent, name, start, end]) + "\n")
