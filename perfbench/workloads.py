"""The three benchmark workloads, driven through hybft's public entry points.

Every workload is a fixed list of operations per pass. An operation is one
simulator run (a forwarding on/off pair on ``normal_f30``) or one exhaustive
world exploration. It returns an ``Outcome``: whether the protocol failed
(raised or stalled), whether its outputs passed the workload's checks, the
useful requests it committed, and the deterministic outputs that feed the
behaviour digest.

A protocol failure in an ``adversarial_mix`` cell is a measured outcome, not
a benchmark error: today's fetch-state ``KeyError`` and the equivocation
stall show there on some seeds, and they count toward ``fail_frac``. An
operation whose outputs are wrong (an unexpected safety verdict, totals off
the closed form, a failed model-checker assertion) fails the benchmark.

Clients are closed-loop with one request in flight each, and all load lives
on the simulator's virtual clock, so wall time measures only the program.
"""

from __future__ import annotations

import dataclasses
import hashlib
import traceback
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Callable, Dict, List

from hybft import model_check, sim
from hybft.config import SimConfig

# Criterion-1 closed form at f=30, B=500: Decision forwarding adds this share
# of messages.
F30_MSG_OVERHEAD = Fraction(177, 3236)


@dataclass
class Outcome:
    failed: bool = False     # raised, stalled, or verdict differs from the
                             # expected one: counts toward fail_frac
    crashed: bool = False    # raised, so its time bought no requests
    correct: bool = True     # outputs passed the workload's correctness checks;
                             # only these failures count as failed operations
    error: str = ""
    requests: int = 0        # committed client requests (one per world for mc)
    msgs: int = 0
    bytes: int = 0
    vc_bytes: int = 0        # ViewChange plus NewView bytes
    latencies_ns: List[int] = field(default_factory=list)
    outages_ns: List[int] = field(default_factory=list)
    counts: Dict[str, int] = field(default_factory=dict)
    record: Dict = field(default_factory=dict)


@dataclass
class Op:
    cell: str
    f: int
    seed: int
    run: Callable[[], Outcome]


def derive_seed(*parts) -> int:
    """Seed of one operation, derived from the workload seed and its place."""
    text = ":".join(str(p) for p in parts).encode()
    return int.from_bytes(hashlib.sha256(text).digest()[:4], "big")


def _error(exc: BaseException) -> str:
    frames = traceback.extract_tb(exc.__traceback__)
    where = ""
    if frames:
        last = frames[-1]
        where = f" at {last.filename.rsplit('/', 1)[-1]}:{last.lineno} in {last.name}"
    return f"{type(exc).__name__}: {exc}{where}"


def _add_run(out: Outcome, res) -> None:
    """Fold one simulator RunResult into an Outcome."""
    v = res.verdict
    out.requests += v["completed_requests"]
    out.msgs += res.msgs_total
    out.bytes += res.bytes_total
    out.vc_bytes += (res.bytes_by_type.get("viewchange", 0)
                     + res.bytes_by_type.get("newview", 0))
    out.latencies_ns += [r.completed_ns - r.submitted_ns for r in res.latency]
    # time without service: the longest gap between completions, counting
    # from the start and, when clients never finished, up to the run's end
    marks = [0] + sorted(r.completed_ns for r in res.latency)
    if not v["all_clients_done"]:
        marks.append(res.end_ns)
    out.outages_ns.append(max((b - a for a, b in zip(marks, marks[1:])),
                              default=0))
    c = out.counts
    for key, val in (("retransmits", v["retransmits"]),
                     ("view_changes", v["max_view"]),
                     ("decisions_sent", v["decisions_sent"]),
                     ("decisions_suppressed", v["decisions_suppressed"]),
                     ("tc_accesses", sum(res.tc_accesses.values()))):
        c[key] = c.get(key, 0) + val
    out.record.setdefault("runs", []).append({
        "verdict": v, "end_ns": res.end_ns,
        "msgs_by_type": dict(sorted(res.msgs_by_type.items())),
        "bytes_by_type": dict(sorted(res.bytes_by_type.items())),
        "latency": [(r.client_id, r.client_seq, r.submitted_ns, r.completed_ns)
                    for r in res.latency],
    })


# ------------------------------------------------------------- normal_f30


def f30_cell(seed: int) -> SimConfig:
    """The cli's exact overhead cell at f=30, B=500: constant 1 ms delay,
    500 clients x 2 requests, no checkpoint or timer inside the run."""
    return dataclasses.replace(
        SimConfig(), f=30, batch_size=500, clients=500, requests_per_client=2,
        delay_min_ns=1_000_000, delay_max_ns=1_000_000, delta_ns=0,
        pipelining=False, checkpoint_interval=5_000, window=10_000,
        record_trace=False, duration_ns=4_000_000_000, seed=seed).validate()


def _f30_pair(cfg: SimConfig) -> Outcome:
    out = Outcome()
    try:
        rep = sim.measure_overhead(cfg)
    except Exception as exc:  # counted and listed, never retried
        return Outcome(failed=True, crashed=True, correct=False,
                       error=_error(exc))
    for res in rep["runs"]:
        _add_run(out, res)
    problems = []
    if not (rep["msgs_match"] and rep["bytes_match"]):
        problems.append("simulator totals differ from the closed form")
    if rep["sim_msg_overhead"] != F30_MSG_OVERHEAD:
        problems.append(f"message overhead {rep['sim_msg_overhead']} "
                        f"!= {F30_MSG_OVERHEAD}")
    for res in rep["runs"]:
        if not (res.verdict["safety_ok"] and res.verdict["all_clients_done"]):
            problems.append(f"verdict {_verdict_line(res.verdict)}")
    if problems:
        out.failed, out.correct, out.error = True, False, "; ".join(problems)
    out.record["overhead"] = {k: str(rep[k]) for k in (
        "sim_msg_overhead", "sim_byte_overhead", "model_msg_overhead",
        "model_byte_overhead")}
    return out


def normal_f30_ops(seed: int, pass_no: int) -> List[Op]:
    cfg = f30_cell(derive_seed("normal_f30", seed, pass_no))
    return [Op("f30_B500_pair", 30, cfg.seed, lambda: _f30_pair(cfg))]


# -------------------------------------------------------- adversarial_mix

# (label, f, sim overrides, adversary params, expected verdict)
#   "live": safe, and every client finished all its requests
#   "violation": the scenario exists to show a safety violation
_TRIGGER = {"trigger": 100}


def _adversarial_cells() -> List[tuple]:
    cells = []
    for f in (1, 2, 3):
        cells += [
            ("none", f, {}, {}, "live"),
            ("equivocate_withhold", f, {"adversary": "equivocate_withhold"},
             _TRIGGER, "live"),
            ("gap_forever", f, {"adversary": "gap_forever"}, _TRIGGER, "live"),
            ("silent_repliers", f, {"adversary": "silent_repliers"}, {}, "live"),
            ("crash_tcs_k=f", f, {"adversary": "crash_tcs"}, {"k": f}, "live"),
            ("counter_identity", f, {"adversary": "counter_identity",
                                     "vulnerable_tc": True,
                                     "counter_policy": "announced"},
             {}, "violation"),
            ("prevention_none", f, {"mode": "prevention"}, {}, "live"),
            ("prevention_equivocate_withhold", f,
             {"mode": "prevention", "adversary": "equivocate_withhold"},
             _TRIGGER, "live"),
        ]
    # Ed25519 certificates only at f=1, where one run takes about a second.
    # No sig equivocation cell: its stall (also seen in the HMAC cell) idles
    # for five wall seconds, which would swamp the run-to-run spread.
    cells += [
        ("sig_none", 1, {"tc_mode": "sig"}, {}, "live"),
        ("sig_gap_forever", 1, {"tc_mode": "sig", "adversary": "gap_forever"},
         _TRIGGER, "live"),
    ]
    return cells


ADVERSARIAL_CELLS = _adversarial_cells()


def adversarial_config(f: int, overrides: Dict, params: Dict,
                       seed: int) -> SimConfig:
    """4 closed-loop clients x 50 requests, seeded uniform 1-5 ms delays.

    Ten virtual seconds let every cell finish when the protocol is live
    (silent repliers at f=3 need about 5.6 s); a stalled run idles until then.
    """
    return dataclasses.replace(
        SimConfig(), f=f, clients=4, requests_per_client=50,
        delay_min_ns=1_000_000, delay_max_ns=5_000_000,
        duration_ns=10_000_000_000, record_trace=False, seed=seed,
        adversary_params=dict(params), **overrides).validate()


def _verdict_line(v: Dict) -> str:
    kinds = sorted({x["kind"] for x in v["violations"]})
    return (f"safety_ok={v['safety_ok']}{' ' + ','.join(kinds) if kinds else ''}"
            f" completed={v['completed_requests']}/{v['submitted_requests']}"
            f" max_view={v['max_view']}")


def _adversarial_run(cfg: SimConfig, expect: str) -> Outcome:
    try:
        res = sim.run(cfg)
    except Exception as exc:  # counted and listed, never retried
        return Outcome(failed=True, crashed=True, error=_error(exc),
                       record={"error": _error(exc)})
    out = Outcome()
    _add_run(out, res)
    v = res.verdict
    if expect == "violation":
        if v["safety_ok"]:
            out.failed, out.correct = True, False
            out.error = "expected a safety violation, got none"
    elif not v["safety_ok"]:
        out.failed, out.correct = True, False
        out.error = "unexpected safety violation: " + _verdict_line(v)
    elif not v["all_clients_done"]:
        out.failed = True
        out.error = "stall: " + _verdict_line(v)
    return out


def adversarial_mix_ops(seed: int, pass_no: int) -> List[Op]:
    ops = []
    for i, (label, f, over, params, expect) in enumerate(ADVERSARIAL_CELLS):
        cfg = adversarial_config(f, over, params,
                                 derive_seed("adversarial_mix", seed, pass_no, i))
        ops.append(Op(label, f, cfg.seed,
                      lambda cfg=cfg, expect=expect: _adversarial_run(cfg, expect)))
    return ops


# ---------------------------------------------------------------- mc_worlds

# The default equivocate world (13,571 states, about a minute) is too long
# to repeat in every run, so its decisions-off variant stands in.
MC_WORLDS = (
    ("gap_world", model_check.gap_world),
    ("prevention_world", model_check.prevention_world),
    ("equivocate_world_nodecisions",
     lambda: model_check.equivocate_world(decisions=False)),
)


def _explore(build) -> Outcome:
    try:
        r = model_check.explore_world(build())
    except Exception as exc:  # a failed safety assertion lands here
        return Outcome(failed=True, crashed=True, correct=False,
                       error=_error(exc), record={"error": _error(exc)})
    out = Outcome(requests=1, record=dict(r))
    out.counts["states"] = r["states"]
    if r["full_commit_terminals"] < 1:
        out.failed, out.correct = True, False
        out.error = "no terminal state commits the request on every replica"
    return out


def mc_worlds_ops(seed: int, pass_no: int) -> List[Op]:
    # exhaustive exploration has no random input: the seed changes nothing
    return [Op(name, 1, 0, lambda build=build: _explore(build))
            for name, build in MC_WORLDS]


# ------------------------------------------------------------------ registry


def _warm_f30(seed: int) -> None:
    sim.run(dataclasses.replace(f30_cell(seed), decisions=False))


def _warm_adversarial(seed: int) -> None:
    for op in adversarial_mix_ops(seed, -1)[:8]:
        op.run()


def _warm_mc(seed: int) -> None:
    _explore(model_check.gap_world)


def first_build(name: str, seed: int):
    """What set-up time measures after the import: the first Simulator or
    World a workload builds."""
    if name == "normal_f30":
        return sim.Simulator(f30_cell(derive_seed("normal_f30", seed, 0)))
    if name == "adversarial_mix":
        _, f, over, params, _ = ADVERSARIAL_CELLS[0]
        return sim.Simulator(adversarial_config(
            f, over, params, derive_seed("adversarial_mix", seed, 0, 0)))
    return MC_WORLDS[0][1]()


WORKLOADS = {
    "normal_f30": (normal_f30_ops, _warm_f30),
    "adversarial_mix": (adversarial_mix_ops, _warm_adversarial),
    "mc_worlds": (mc_worlds_ops, _warm_mc),
}
