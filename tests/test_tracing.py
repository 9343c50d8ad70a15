"""The benchmark's traced mode finds every layer boundary it wraps.

`perfbench/tracing.py` wraps named attributes of the package from outside
it, so renaming or deleting one of them breaks `perfbench/run.py --trace 1`
and nothing else. This test reads each target the way `Tracer.install`
does, without installing anything.
"""

from __future__ import annotations

import importlib.util
from pathlib import Path

import hybft
import hybft.model_check  # noqa: F401  (layer_targets reads it off the package)

TRACING = Path(__file__).resolve().parent.parent / "perfbench" / "tracing.py"


def _load_tracing():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_traced_layer_boundary_resolves():
    targets = _load_tracing().layer_targets(hybft)
    assert len(targets) == 22
    missing = []
    for owner, attr, _ in targets:
        if isinstance(owner, type):
            fn = owner.__dict__.get(attr)   # a class's own attribute
        else:
            fn = getattr(owner, attr, None)
        if not callable(fn):
            missing.append(f"{getattr(owner, '__name__', owner)}.{attr}")
    assert missing == []
