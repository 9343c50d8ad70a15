"""Run configuration: defaults, JSON files, and dot-path overrides.

A configuration is a flat dataclass plus the byte-size model and an adversary
section. Files are plain JSON with optional "sim", "size_model" and
"adversary" sections, and nothing else; command-line overrides use dot paths
into the same namespace ("sim.f=3", "size_model.tx_bytes=512",
"adversary.script=...", "adversary.k=2"). An override's value is a JSON
literal, else a plain string, and passes the same type check as a file's.
"""

from __future__ import annotations

import dataclasses
import json
from dataclasses import dataclass, field
from typing import Dict, Optional

from .resource_model import SizeModel

# Each adversary script's parameters: name -> (type, default). The type is
# one of _TYPES; a null default means the script derives the value (k: f;
# targets: the last k replicas) or leaves the step out.
ADVERSARY_PARAMS: Dict[str, Dict[str, tuple]] = {
    "none": {},
    "equivocate_withhold": {"trigger": ("int", 2)},
    "gap_forever": {"trigger": ("int", 2)},
    "silent_repliers": {},
    "counter_identity": {},
    "crash_tcs": {"k": ("int?", None), "crash_at_ns": ("int", 300_000_000),
                  "restore_at_ns": ("int?", None),
                  "restart_at_ns": ("int?", None),
                  "targets": ("ints?", None)},
}
ADVERSARY_SCRIPTS = tuple(ADVERSARY_PARAMS)


class ConfigError(Exception):
    """Invalid or inconsistent run configuration."""


@dataclass
class SimConfig:
    f: int = 1
    batch_size: int = 1
    clients: int = 1
    requests_per_client: int = 2
    payload_size: int = 32

    mode: str = "detection"            # detection | prevention
    tc_mode: str = "hmac"              # hmac | sig
    decisions: bool = True
    delta_ns: int = 20_000_000
    pipelining: bool = False
    pipeline_depth: int = 8
    reply_policy: str = "f+1"          # f+1 | n-f
    counter_policy: str = "pinned"     # pinned | announced
    vulnerable_tc: bool = False
    threshold_proofs: bool = False

    delay_min_ns: int = 1_000_000
    delay_max_ns: int = 5_000_000
    batch_timeout_ns: int = 2_000_000
    suspicion_timeout_ns: int = 60_000_000
    viewchange_timeout_ns: int = 120_000_000
    retransmit_ns: int = 300_000_000
    duration_ns: int = 2_000_000_000

    checkpoint_interval: int = 100
    window: Optional[int] = None

    seed: int = 42
    record_trace: bool = True

    adversary: str = "none"
    adversary_params: Dict = field(default_factory=dict)
    sizes: SizeModel = field(default_factory=SizeModel)

    @property
    def n(self) -> int:
        return 2 * self.f + 1

    def effective_window(self) -> int:
        if self.window is not None:
            return self.window
        depth = self.pipeline_depth if self.pipelining else 1
        return max(2, 2 * self.batch_size * depth)

    def effective_checkpoint_interval(self) -> int:
        w = self.effective_window()
        return min(self.checkpoint_interval, max(1, w // 2))

    def validate(self) -> "SimConfig":
        for fld in dataclasses.fields(self):
            low = _LOWEST.get(fld.name, 0 if fld.name.endswith("_ns") else None)
            if low is not None and getattr(self, fld.name) < low:
                raise ConfigError(f"{fld.name} must be >= {low}")
        # the canonical encoding packs the seed as an unsigned 64-bit integer
        if not 0 <= self.seed < 2 ** 64:
            raise ConfigError("seed must be in [0, 2**64)")
        if self.delay_max_ns < self.delay_min_ns:
            raise ConfigError("need delay_min_ns <= delay_max_ns")
        for fld in dataclasses.fields(self.sizes):
            if getattr(self.sizes, fld.name) < 0:
                raise ConfigError(f"size_model.{fld.name} must be >= 0")
        if self.mode not in ("detection", "prevention"):
            raise ConfigError(f"unknown mode {self.mode!r}")
        if self.tc_mode not in ("hmac", "sig"):
            raise ConfigError(f"unknown tc_mode {self.tc_mode!r}")
        if self.reply_policy not in ("f+1", "n-f"):
            raise ConfigError(f"unknown reply_policy {self.reply_policy!r}")
        if self.counter_policy not in ("pinned", "announced"):
            raise ConfigError(f"unknown counter_policy {self.counter_policy!r}")
        if self.adversary not in ADVERSARY_SCRIPTS:
            raise ConfigError(f"unknown adversary script {self.adversary!r}")
        params = ADVERSARY_PARAMS[self.adversary]
        for name, value in self.adversary_params.items():
            if name not in params:
                raise ConfigError(f"unknown parameter {name!r} of adversary "
                                  f"script {self.adversary!r}")
            _check_type("adversary", name, params[name][0], value)
            if name.endswith("_ns") and value is not None and value < 0:
                raise ConfigError(f"adversary.{name} must be >= 0")
        k = self.adversary_params.get("k")
        targets = self.adversary_params.get("targets") or ()
        if ((k is not None and not 0 <= k <= self.n)
                or any(not 0 <= t < self.n for t in targets)):
            raise ConfigError(f"adversary.k must be in 0..{self.n} and "
                              f"adversary.targets in 0..{self.n - 1}")
        if self.vulnerable_tc and self.adversary != "counter_identity":
            raise ConfigError(
                "vulnerable_tc is only meaningful under the counter_identity script")
        if self.counter_policy == "announced" and not self.vulnerable_tc:
            raise ConfigError(
                "announced counter policy exists to demonstrate the vulnerable "
                "component; enable vulnerable_tc")
        if self.mode == "prevention" and self.adversary == "counter_identity" \
                and self.vulnerable_tc:
            raise ConfigError(
                "counter_identity targets detection-mode counters; prevention "
                "certifies contexts, not counter values")
        if self.window is not None and self.window < 2:
            raise ConfigError("window must be >= 2")
        return self


# The lowest value of each bounded integer option; any other *_ns option
# must be >= 0. A timer that re-arms itself after no time never lets virtual
# time reach duration_ns.
_LOWEST = {"f": 1, "batch_size": 1, "clients": 1, "requests_per_client": 0,
           "payload_size": 0, "pipeline_depth": 1, "checkpoint_interval": 1,
           "batch_timeout_ns": 1, "viewchange_timeout_ns": 1,
           "retransmit_ns": 1}


_SECTIONS = ("sim", "size_model", "adversary")
_SIM_OPTIONS = {f.name for f in dataclasses.fields(SimConfig)} - {
    "sizes", "adversary_params"}
_SIZE_OPTIONS = {f.name for f in dataclasses.fields(SizeModel)}


def _is_int(value) -> bool:
    return isinstance(value, int) and not isinstance(value, bool)


# Option value types: name -> (description, test).
_TYPES = {
    "bool": ("a boolean", lambda v: isinstance(v, bool)),
    "str": ("a string", lambda v: isinstance(v, str)),
    "int": ("an integer", _is_int),
    "int?": ("an integer or null", lambda v: v is None or _is_int(v)),
    "ints?": ("a list of integers or null", lambda v: v is None or (
        isinstance(v, list) and all(map(_is_int, v)))),
}


def _type_of(default) -> str:
    """A field's type is the JSON type of its default; window, whose default
    null means "derived", takes an integer or null."""
    return ("bool" if isinstance(default, bool) else
            "str" if isinstance(default, str) else
            "int" if default is not None else "int?")


def _check_type(section: str, name: str, kind: str, value) -> None:
    want, ok = _TYPES[kind]
    if not ok(value):
        raise ConfigError(f"{section}.{name} must be {want}, got {value!r}")


def _set(cfg: SimConfig, section: str, name: Optional[str], value) -> None:
    """Check one option's name and type and store it. Files and overrides
    both come through here, so they accept exactly the same values."""
    if section not in _SECTIONS:
        raise ConfigError(f"unknown config sections [{section!r}]; options "
                          f"belong under one of {list(_SECTIONS)}")
    if name is None:
        raise ConfigError(f"config section {section!r} must be a JSON object")
    if section == "sim":
        if name not in _SIM_OPTIONS:
            raise ConfigError(f"unknown sim option {name!r}")
        _check_type(section, name, _type_of(getattr(cfg, name)), value)
        setattr(cfg, name, value)
    elif section == "size_model":
        if name not in _SIZE_OPTIONS:
            raise ConfigError(f"unknown size_model option {name!r}")
        _check_type(section, name, _type_of(getattr(cfg.sizes, name)), value)
        cfg.sizes = dataclasses.replace(cfg.sizes, **{name: value})
    elif name == "script":
        cfg.adversary = value
    else:
        cfg.adversary_params[name] = value


def apply_override(cfg: SimConfig, path: str, raw: str) -> None:
    """One `section.name=raw` override; a bare name means `sim.name`."""
    section, _, name = path.partition(".")
    if not name:
        section, name = "sim", path
    try:
        value = json.loads(raw)
    except json.JSONDecodeError:
        value = raw
    _set(cfg, section, name, value)


def from_dict(data: Dict) -> SimConfig:
    if not isinstance(data, dict):
        raise ConfigError("a config file must hold a JSON object")
    cfg = SimConfig()
    for section, options in data.items():
        if not isinstance(options, dict):  # {"f": 2}, or {"sim": 2}
            _set(cfg, section, None, options)
        for name, value in options.items():
            _set(cfg, section, name, value)
    return cfg


def _apply_script(cfg: SimConfig, script: str) -> None:
    """Select an adversary script and the workload floor its demo needs."""
    cfg.adversary = script
    if script == "counter_identity":
        cfg.vulnerable_tc = True
    if script == "equivocate_withhold":
        cfg.clients = max(cfg.clients, 2)
        cfg.requests_per_client = max(cfg.requests_per_client, 3)
    if script == "silent_repliers":
        cfg.clients = max(cfg.clients, 2)


def load(path: Optional[str] = None, overrides=(),
         script: Optional[str] = None) -> SimConfig:
    """The file, then the script's presets, then the overrides; validated."""
    data = {}
    if path is not None:
        with open(path) as fh:
            try:
                data = json.load(fh)
            except json.JSONDecodeError as exc:
                raise ConfigError(f"{path} is not valid JSON: {exc}") from None
    cfg = from_dict(data)
    if script is not None:
        _apply_script(cfg, script)
    for item in overrides:
        key, sep, raw = item.partition("=")
        if not sep:
            raise ConfigError(f"override {item!r} must look like path=value")
        apply_override(cfg, key, raw)
    return cfg.validate()

