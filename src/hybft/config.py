"""Run configuration: defaults, JSON files, and dot-path overrides.

A configuration is a flat dataclass plus the byte-size model and an adversary
section. Files are plain JSON with optional "sim", "size_model" and
"adversary" sections, and nothing else; command-line overrides use dot paths
into the same namespace ("sim.f=3", "size_model.tx_bytes=512",
"adversary.script=...", "adversary.k=2").
"""

from __future__ import annotations

import dataclasses
import json
from dataclasses import dataclass, field
from typing import Dict, Optional

from .resource_model import SizeModel

ADVERSARY_SCRIPTS = (
    "none", "equivocate_withhold", "gap_forever", "silent_repliers",
    "counter_identity", "crash_tcs",
)


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
        if self.f < 1:
            raise ConfigError("f must be >= 1")
        if self.batch_size < 1:
            raise ConfigError("batch_size must be >= 1")
        if self.clients < 1:
            raise ConfigError("clients must be >= 1")
        if self.requests_per_client < 0:
            raise ConfigError("requests_per_client must be >= 0")
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
        if self.delay_min_ns < 0 or self.delay_max_ns < self.delay_min_ns:
            raise ConfigError("need 0 <= delay_min_ns <= delay_max_ns")
        if self.delta_ns < 0:
            raise ConfigError("delta_ns must be >= 0")
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
        if self.checkpoint_interval < 1:
            raise ConfigError("checkpoint_interval must be >= 1")
        if self.window is not None and self.window < 2:
            raise ConfigError("window must be >= 2")
        return self


def _coerce(current, raw: str):
    if isinstance(current, bool):
        low = raw.lower()
        if low in ("1", "true", "yes", "on"):
            return True
        if low in ("0", "false", "no", "off"):
            return False
        raise ConfigError(f"expected a boolean, got {raw!r}")
    if isinstance(current, int) and not isinstance(current, bool):
        return int(raw)
    if current is None:
        # Optional[int] fields; "none" clears them back to the default
        return None if raw.lower() == "none" else int(raw)
    return raw


def apply_override(cfg: SimConfig, path: str, raw: str) -> None:
    section, _, name = path.partition(".")
    if not name:
        section, name = "sim", path
    if section == "sim":
        if not hasattr(cfg, name) or name in ("sizes", "adversary_params"):
            raise ConfigError(f"unknown sim option {name!r}")
        setattr(cfg, name, _coerce(getattr(cfg, name), raw))
    elif section == "size_model":
        if not hasattr(cfg.sizes, name):
            raise ConfigError(f"unknown size_model option {name!r}")
        cfg.sizes = dataclasses.replace(cfg.sizes, **{name: int(raw)})
    elif section == "adversary":
        if name == "script":
            cfg.adversary = raw
        else:
            try:
                cfg.adversary_params[name] = json.loads(raw)
            except json.JSONDecodeError:
                cfg.adversary_params[name] = raw
    else:
        raise ConfigError(f"unknown config section {section!r}")


_SECTIONS = ("sim", "size_model", "adversary")


def _check_type(section: str, name: str, default, value) -> None:
    """A file value must have the JSON type of its field's default."""
    if isinstance(default, bool):
        want, ok = "a boolean", isinstance(value, bool)
    elif isinstance(default, str):
        want, ok = "a string", isinstance(value, str)
    else:  # int fields, and window, whose default null means "derived"
        want = "an integer" if default is not None else "an integer or null"
        ok = (isinstance(value, int) and not isinstance(value, bool)
              or default is None and value is None)
    if not ok:
        raise ConfigError(f"{section}.{name} must be {want}, got {value!r}")


def from_dict(data: Dict) -> SimConfig:
    unknown = set(data) - set(_SECTIONS)
    if unknown:
        raise ConfigError(f"unknown config sections {sorted(unknown)}; "
                          f"options belong under one of {list(_SECTIONS)}")
    cfg = SimConfig()
    sim = dict(data.get("sim", {}))
    for k, v in sim.items():
        if not hasattr(cfg, k) or k in ("sizes", "adversary_params"):
            raise ConfigError(f"unknown sim option {k!r}")
        _check_type("sim", k, getattr(cfg, k), v)
        setattr(cfg, k, v)
    if "size_model" in data:
        unknown = set(data["size_model"]) - {
            f.name for f in dataclasses.fields(SizeModel)}
        if unknown:
            raise ConfigError(f"unknown size_model options {sorted(unknown)}")
        for k, v in data["size_model"].items():
            _check_type("size_model", k, getattr(cfg.sizes, k), v)
        cfg.sizes = SizeModel(**data["size_model"])
    adv = data.get("adversary", {})
    if adv:
        cfg.adversary = adv.get("script", cfg.adversary)
        cfg.adversary_params = {k: v for k, v in adv.items() if k != "script"}
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

