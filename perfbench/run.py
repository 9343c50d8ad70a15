"""hybft benchmark: three workloads, end-to-end metrics or a traced run.

Run from the repository root:

    python3 perfbench/run.py --workload normal_f30 --seed 1 --seconds 25 --trace 0

Workloads (see workloads.py): ``normal_f30``, ``adversarial_mix`` and
``mc_worlds``. Everything runs in this process with no threads; set-up time
is measured in fresh interpreters, started one at a time between operations.

``--trace 0`` measures for ``--seconds`` and reports the end-to-end metrics.
``--trace 1`` alternates an untraced pass with the same pass traced, reports
per-layer metrics (counts and self times per traced pass) and
``trace_overhead``, and writes the spans to ``perfbench/out/``.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``. ``failed`` counts
operations whose outputs were wrong; a run that raised or stalled with
outputs still as expected is a defect of the program, measured by
``ok_frac`` and listed, not a failed operation. The lines before it give the
same figures for a human, every failed operation and defect, the behaviour
digest and the provenance. Exit status is 2, with no result line, when the
package or BENCHMARK.json is missing or a metric is not the one declared.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import resource
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass
from importlib import metadata
from pathlib import Path
from typing import Dict, List, Tuple

import speed
import tracing

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
SPEC = ROOT / "BENCHMARK.json"
OUT = HERE / "out"

SETUP_REPEATS = 9

HANDLED_TYPES = ("request", "prepare", "commit", "decision", "checkpoint",
                 "viewchange", "newview", "fetchbatch", "batchresponse",
                 "fetchstate", "stateresponse")


class BenchError(Exception):
    """The benchmark cannot produce a result."""


@dataclass
class Sample:
    pass_no: int
    op: object
    out: object
    wall: float   # wall seconds
    ref: float    # seconds at the reference host speed (speed.py)


# ----------------------------------------------------------------- set-up


def import_package():
    if not (SRC / "hybft" / "__init__.py").is_file():
        raise BenchError(f"no hybft package under {SRC}")
    sys.path.insert(0, str(SRC))
    import hybft
    if Path(hybft.__file__).resolve().parent != (SRC / "hybft").resolve():
        raise BenchError(f"hybft imported from {hybft.__file__}, not {SRC}")
    return hybft


def load_spec() -> Dict:
    if not SPEC.is_file():
        raise BenchError(f"{SPEC.name} not found at {ROOT}")
    with open(SPEC) as fh:
        return json.load(fh)


def setup_probe(workload: str, seed: int) -> Tuple[float, float]:
    """One cold set-up, measured in a fresh interpreter: (wall, ref) seconds."""
    proc = subprocess.run(
        [sys.executable, str(HERE / "setup_probe.py"), workload, str(seed)],
        cwd=ROOT, capture_output=True, text=True, timeout=120)
    if proc.returncode != 0:
        raise BenchError(f"set-up probe failed: {proc.stderr.strip()}")
    wall, ref = proc.stdout.split()[-2:]
    return float(wall), float(ref)


def provenance() -> Dict:
    return {
        "git": _git_sha(),
        "python": sys.version.split()[0],
        "cryptography": metadata.version("cryptography"),
        "nproc": len(os.sched_getaffinity(0)),
    }


def _git_sha() -> str:
    """HEAD of the checkout, read without starting git; "unknown" outside one."""
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if not ref.startswith("ref: "):
            return ref
        name = ref[5:]
        loose = ROOT / ".git" / name
        if loose.is_file():
            return loose.read_text().strip()
        for line in (ROOT / ".git" / "packed-refs").read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


# ---------------------------------------------------------------- running


def timed(op, pass_no: int) -> Sample:
    with speed.Clock() as clock:
        out = op.run()
    return Sample(pass_no, op, out, clock.wall, clock.ref)


def measure(ops_for, seed: int, seconds: float,
            probe) -> Tuple[List[Sample], List[tuple]]:
    """Whole passes until `seconds` have gone, so every cell of the workload
    weighs the same in a run wherever the time runs out.

    The set-up probes run between operations, spread over the run, so that
    they see the same machine conditions as the operations do.
    """
    samples: List[Sample] = []
    setup: List[tuple] = []
    start = time.perf_counter()
    pass_no = 0
    while pass_no == 0 or time.perf_counter() - start < seconds:
        for op in ops_for(seed, pass_no):
            while len(setup) < SETUP_REPEATS and time.perf_counter() - start \
                    >= len(setup) * seconds / SETUP_REPEATS:
                setup.append(probe())
            samples.append(timed(op, pass_no))
        pass_no += 1
    while len(setup) < SETUP_REPEATS:
        setup.append(probe())
    return samples, setup


def digest(samples: List[Sample]) -> str:
    """SHA-256 of the deterministic outputs: counts by type, verdicts,
    latency records, world state and terminal counts, errors."""
    rows = [{"cell": s.op.cell, "f": s.op.f, "seed": s.op.seed,
             "failed": s.out.failed, "error": s.out.error,
             "record": s.out.record}
            for s in samples]
    blob = json.dumps(rows, sort_keys=True, default=str).encode()
    return hashlib.sha256(blob).hexdigest()


# ---------------------------------------------------------------- metrics


def req_per_s(samples: List[Sample], clock: str = "ref") -> float:
    """Committed requests per second: the geometric mean, over the cells
    that commit requests, of each cell's requests over its seconds.

    Per useful request, and runs that raised are left out: a crash ends a
    run at a seed-dependent point having committed nothing, so its time
    says nothing about speed (crashes count in ok_frac instead), and fixing
    one does not read as a slowdown. Per cell, so each cell weighs the same
    whatever its size and one pathologically slow run moves the figure by a
    25th root. On mc_worlds each world counts as one request.
    """
    cells: Dict[tuple, List[float]] = {}
    for s in samples:
        if s.out.crashed:
            continue
        acc = cells.setdefault((s.op.cell, s.op.f), [0, 0.0])
        acc[0] += s.out.requests
        acc[1] += getattr(s, clock)
    rates = [req / secs for req, secs in cells.values() if req]
    if not rates:  # every run raised; those runs are incorrect or in ok_frac
        return 0.0
    return math.exp(statistics.fmean(math.log(r) for r in rates))


def nearest_rank(sorted_values: List[int], q: float) -> int:
    return sorted_values[max(0, math.ceil(q * len(sorted_values)) - 1)]


def virtual_metrics(samples: List[Sample]) -> Dict[str, float]:
    """Simulated-clock and per-request figures; zero where a workload has no
    simulator runs (mc_worlds)."""
    lat = sorted(x for s in samples for x in s.out.latencies_ns)
    outages = [x for s in samples for x in s.out.outages_ns]
    sim_req = sum(s.out.requests for s in samples if s.out.latencies_ns)
    mc = [s for s in samples if "states" in s.out.counts]
    passes = 1 + max(s.pass_no for s in samples)
    return {
        "virt_lat_p50_ms": nearest_rank(lat, 0.5) / 1e6 if lat else 0.0,
        "virt_lat_p99_ms": nearest_rank(lat, 0.99) / 1e6 if lat else 0.0,
        "virt_lat_samples": len(lat),
        "virt_outage_ms": statistics.median(outages) / 1e6 if outages else 0.0,
        "msgs_per_req": (sum(s.out.msgs for s in samples) / sim_req
                         if sim_req else 0.0),
        "bytes_per_req": (sum(s.out.bytes for s in samples) / sim_req
                          if sim_req else 0.0),
        "fail_frac": sum(s.out.failed for s in samples) / len(samples),
        "explore_s": sum(s.ref for s in mc) / passes,
    }


def per_layer(tracer, untraced: List[Sample], traced: List[Sample],
              passes: int) -> Dict[str, float]:
    """Per traced pass: counts and self seconds of each layer, plus ratios."""
    v = virtual_metrics(untraced)
    req = sum(s.out.requests for s in traced)

    def count(key):
        return sum(s.out.counts.get(key, 0) for s in traced)

    def per_req(x):
        return x / req if req else 0.0

    out: Dict[str, float] = {}

    def layer(name):
        out[name + ".calls"] = tracer.calls(name) / passes
        out[name + ".self_s"] = tracer.self_s(name) / passes

    layer("messages.digest")
    out["messages.digests_per_req"] = per_req(tracer.calls("messages.digest"))
    layer("messages.wire_size")
    for name in ("tc.verify", "tc.create_ui", "tc.directory_verify",
                 "tc.certify_context", "tc.attest_state"):
        layer(name)
    out["tc.verifies_per_req"] = per_req(tracer.calls("tc.verify")
                                         + tracer.calls("tc.directory_verify"))
    out["tc.accesses_per_req"] = per_req(count("tc_accesses"))
    layer("clients.on_reply")
    out["clients.retransmits"] = count("retransmits") / passes
    for t in HANDLED_TYPES:
        layer("protocol.handle." + t)
    layer("protocol.on_timer")
    total_bytes = sum(s.out.bytes for s in traced)
    out["protocol.viewchange_bytes_share"] = (
        sum(s.out.vc_bytes for s in traced) / total_bytes if total_bytes else 0.0)
    for key in ("view_changes", "decisions_sent", "decisions_suppressed"):
        out["protocol." + key] = count(key) / passes
    out["sim.setup.self_s"] = tracer.self_s("sim.setup") / passes
    out["sim.loop.self_s"] = tracer.self_s("sim.loop") / passes
    out["sim.events"] = tracer.events / passes
    out["sim.events_per_req"] = per_req(tracer.events)
    layer("model_check.apply")
    layer("model_check.state_key")
    states = count("states")
    out["model_check.states"] = states / passes
    mc_ref = sum(s.ref for s in untraced if "states" in s.out.counts)
    out["model_check.states_per_s"] = (
        sum(s.out.counts.get("states", 0) for s in untraced) / mc_ref
        if mc_ref else 0.0)
    applies = tracer.calls("model_check.apply")
    out["model_check.useful_ratio"] = states / applies if applies else 0.0
    out["trace_overhead"] = (sum(s.ref for s in traced)
                             / sum(s.ref for s in untraced))
    out.update(v)
    return out


def declared_units(metrics: Dict[str, float], declared: List[Dict]) -> Dict[str, str]:
    """Self-check: the run has exactly the metrics BENCHMARK.json declares.
    Returns each metric's declared unit."""
    units = {d["name"]: d["unit"] for d in declared}
    if set(units) != set(metrics):
        raise BenchError(f"metrics differ from {SPEC.name}: "
                         f"missing {sorted(set(units) - set(metrics))}, "
                         f"undeclared {sorted(set(metrics) - set(units))}")
    return units


# ----------------------------------------------------------------- report


def report_failures(workload: str, samples: List[Sample]) -> None:
    """Lists every protocol failure: "failed" where the outputs were wrong,
    "defect" where a run raised or stalled with outputs still as expected."""
    for s in samples:
        if s.out.failed:
            kind = "defect" if s.out.correct else "failed"
            print(f"# {kind}: workload={workload} cell={s.op.cell} f={s.op.f} "
                  f"seed={s.op.seed} pass={s.pass_no}: {s.out.error}")


def report_end_to_end(workload: str, metrics, v) -> None:
    """Every end-to-end figure by name; n/a where it does not apply."""
    sim_runs = workload != "mc_worlds"
    lines = [
        ("setup_s", metrics["setup_s"], "s"),
        ("req_per_s", metrics["req_per_s"], "1/s"),
        ("explore_s", v["explore_s"] if not sim_runs else None, "s"),
        ("fail_frac", v["fail_frac"], "ratio"),
        ("ok_frac", metrics["ok_frac"], "ratio"),
        ("peak_rss_mb", metrics["peak_rss_mb"], "MB"),
        ("virt_lat_p50_ms", v["virt_lat_p50_ms"] if sim_runs else None,
         f"sim_ms (n={v['virt_lat_samples']})"),
        ("virt_lat_p99_ms", v["virt_lat_p99_ms"] if sim_runs else None,
         f"sim_ms (n={v['virt_lat_samples']})"),
        ("virt_outage_ms", v["virt_outage_ms"] if workload == "adversarial_mix"
         else None, "sim_ms"),
        ("msgs_per_req", v["msgs_per_req"] if sim_runs else None, "msgs/req"),
        ("bytes_per_req", v["bytes_per_req"] if sim_runs else None, "B/req"),
    ]
    for name, val, unit in lines:
        shown = "n/a" if val is None else f"{val:.6g}"
        print(f"# {name:16s} {shown:>14s} {unit}")


def run(args) -> Dict:
    hybft = import_package()
    spec = load_spec()
    import workloads  # imports hybft, so only once src/ is on the path

    ops_for, warm_up = workloads.WORKLOADS[args.workload]
    print(f"# hybft benchmark workload={args.workload} seed={args.seed} "
          f"seconds={args.seconds} trace={args.trace}")
    print(f"# provenance: {json.dumps(provenance(), sort_keys=True)}")
    for w in spec["workloads"]:
        if w["name"] == args.workload:
            print(f"# why: {w['why']}")

    if not args.trace:
        warm_up(args.seed)
        samples, setup = measure(
            ops_for, args.seed, args.seconds,
            lambda: setup_probe(args.workload, args.seed))
        v = virtual_metrics(samples)
        metrics = {
            "setup_s": statistics.median(ref for _, ref in setup),
            "req_per_s": req_per_s(samples),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
            "ok_frac": 1.0 - v["fail_frac"],
        }
        units = declared_units(metrics, spec["end_to_end"])
        report_end_to_end(args.workload, metrics, v)
        print(f"# wall clock: setup_s "
              f"{statistics.median(wall for wall, _ in setup):.6g} s, "
              f"req_per_s {req_per_s(samples, 'wall'):.6g} 1/s")
        correct = all(s.out.correct for s in samples)
    else:
        warm_up(args.seed)
        tracer = tracing.Tracer()
        untraced: List[Sample] = []
        traced: List[Sample] = []
        correct = True
        start, pass_no = time.perf_counter(), 0
        while pass_no == 0 or time.perf_counter() - start < args.seconds:
            plain = [timed(op, pass_no) for op in ops_for(args.seed, pass_no)]
            tracer.install(hybft)
            try:
                seen = [timed(op, pass_no) for op in ops_for(args.seed, pass_no)]
            finally:
                tracer.uninstall()
            if digest(plain) != digest(seen):
                print(f"# tracing changed the outputs of pass {pass_no}")
                correct = False
            untraced += plain
            traced += seen
            pass_no += 1
        samples = untraced
        metrics = per_layer(tracer, untraced, traced, pass_no)
        units = declared_units(metrics, spec["per_layer"])
        correct = correct and all(s.out.correct for s in untraced + traced)
        OUT.mkdir(exist_ok=True)
        spans = OUT / f"spans-{args.workload}-seed{args.seed}.jsonl"
        tracer.write(str(spans), {"workload": args.workload, "seed": args.seed,
                                  "passes": pass_no})
        print(f"# traced passes={pass_no} spans={tracer.spans_total} "
              f"kept={len(tracer.spans)} written to {spans.relative_to(ROOT)}")
        for name in sorted(metrics):
            print(f"# {name:40s} {metrics[name]:>16.6g} {units[name]}")

    report_failures(args.workload, samples)
    failed = sum(not s.out.correct for s in samples)
    defects = sum(s.out.failed and s.out.correct for s in samples)
    passes = 1 + max(s.pass_no for s in samples)
    print(f"# passes={passes} operations={len(samples)} failed={failed} "
          f"defects={defects}")
    print(f"# behaviour sha256 (pass 0): "
          f"{digest([s for s in samples if s.pass_no == 0])}")
    return {
        "correct": correct,
        "attempted": len(samples),
        "failed": failed,
        "metrics": {k: {"value": val, "unit": units[k]}
                    for k, val in metrics.items()},
    }


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workload", required=True,
                   choices=("normal_f30", "adversarial_mix", "mc_worlds"))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    try:
        result = run(args)
    except BenchError as exc:
        print(f"benchmark error: {exc}", file=sys.stderr)
        return 2
    print(json.dumps(result, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())
