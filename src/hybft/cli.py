"""Command line front end for the simulator and the analytic model.

Subcommands:

  run       one simulated execution, verdict and tallies
  overhead  paired runs (forwarding on/off) checked against the closed form
  table1    per-protocol cost table and derived ratios
  sweep     overhead grid over (f, batch), optionally simulator-confirmed
  attack    scripted-fault demo with a narrated trace

Exit status: 0 on success, 1 when a verdict or cross-check fails, 2 for
configuration and usage errors.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import sys
from typing import List, Optional

from . import config as cfgmod
from . import resource_model as rm
from . import sim as simmod
from .config import ADVERSARY_SCRIPTS, ConfigError, SimConfig


def _exact_cell(base: SimConfig, f: int, batch: int) -> SimConfig:
    """Settings under which the simulator reproduces the closed form exactly:
    constant delay, one request round in flight, no timer can fire early
    enough to suppress forwarding, and no checkpoint inside the run."""
    delay = base.delay_min_ns
    return dataclasses.replace(
        base, f=f, batch_size=batch, clients=batch, requests_per_client=2,
        delay_min_ns=delay, delay_max_ns=delay, delta_ns=0,
        pipelining=False, checkpoint_interval=5_000, window=10_000,
        adversary="none", vulnerable_tc=False, counter_policy="pinned",
        record_trace=False, duration_ns=max(base.duration_ns, 4_000_000_000),
    ).validate()


def _pct(x) -> str:
    return f"{float(x) * 100:.4f}%"


# ------------------------------------------------------------------ run


def cmd_run(args) -> int:
    cfg = cfgmod.load(args.config, args.set)
    result = simmod.run(cfg)
    if args.out:
        result.write_outputs(args.out)
    if args.json:
        print(json.dumps(result.summary_dict(), indent=2, sort_keys=True))
    else:
        v = result.verdict
        print(f"n={cfg.n} f={cfg.f} mode={cfg.mode} adversary={cfg.adversary} "
              f"seed={cfg.seed}")
        print(f"safety: {'ok' if v['safety_ok'] else 'VIOLATED'}")
        for viol in v["violations"]:
            print(f"  violation: {viol}")
        print(f"requests: {v['completed_requests']}/{v['submitted_requests']} "
              f"completed, clients_done={v['all_clients_done']}, "
              f"max_view={v['max_view']}")
        print(f"decisions: sent={v['decisions_sent']} "
              f"suppressed={v['decisions_suppressed']}")
        print(f"messages: {result.msgs_total} total, "
              f"{result.bytes_total} bytes")
        for mtype, count in sorted(result.msgs_by_type.items()):
            print(f"  {mtype:12s} {count:8d}  {result.bytes_by_type[mtype]:10d}B")
    ok = result.verdict["safety_ok"] and result.verdict["all_clients_done"]
    return 0 if ok else 1


# ------------------------------------------------------------------ overhead


def cmd_overhead(args) -> int:
    base = cfgmod.load(args.config, args.set)
    cfg = _exact_cell(base, args.f, args.batch)
    rep = simmod.measure_overhead(cfg)
    print(f"f={rep['f']} n={2 * rep['f'] + 1} batch={rep['B']}")
    print(f"messages  on/off: sim {rep['sim_msgs_on']}/{rep['sim_msgs_off']}"
          f"  model {rep['model_msgs_on']}/{rep['model_msgs_off']}")
    print(f"message overhead: sim {_pct(rep['sim_msg_overhead'])}"
          f"  model {_pct(rep['model_msg_overhead'])}"
          f"  exact={rep['msgs_match']}")
    print(f"byte overhead:    sim {_pct(rep['sim_byte_overhead'])}"
          f"  model {_pct(rep['model_byte_overhead'])}"
          f"  exact={rep['bytes_match']}")
    if args.out:
        on, off = rep["runs"]
        simmod.write_tally_csv(args.out, [
            off.tally_row(),
            on.tally_row(overhead_msgs=float(rep["sim_msg_overhead"]),
                         overhead_bytes=float(rep["sim_byte_overhead"])),
        ])
    return 0 if rep["msgs_match"] and rep["bytes_match"] else 1


# ------------------------------------------------------------------ table1


def cmd_table1(args) -> int:
    f = args.f
    cols = ("protocol", "group", "leader msgs", "signs", "verifies", "tc accesses")
    print(f"{cols[0]:10s} {cols[1]:>10s} {cols[2]:>12s} {cols[3]:>8s} "
          f"{cols[4]:>10s} {cols[5]:>12s}")
    for name, row in rm.COST_TABLE.items():
        print(f"{name:10s} {str(row.group_size):>10s} "
              f"{str(row.leader_msgs):>12s} {str(row.signs):>8s} "
              f"{str(row.verifies):>10s} {str(row.seq_tc_accesses):>12s}")
    print()
    print(f"at f={f}:")
    for name, row in rm.COST_TABLE.items():
        print(f"  {name:10s} group={row.group_size.at(f):4d} "
              f"leader_msgs={row.leader_msgs.at(f):4d} "
              f"crypto/replica={row.crypto_per_replica(f):3d} "
              f"tc={row.seq_tc_accesses.at(f)}")
    ratio = rm.leader_bandwidth_ratio(f)
    print(f"\nproposal bandwidth, 3f+1 group over 2f+1 group: "
          f"+{_pct(ratio)} (limit +50% as f grows)")
    vr = rm.verification_ratio("PBFT", "MinBFT")
    print(f"verification count ratio PBFT/MinBFT: {vr}")
    return 0


# ------------------------------------------------------------------ sweep


def cmd_sweep(args) -> int:
    base = cfgmod.load(args.config, args.set)
    fs = [int(x) for x in args.f_list.split(",")]
    batches = [int(x) for x in args.batch_list.split(",")]
    rows = []
    failures = 0
    for f in fs:
        for b in batches:
            row = rm.overhead_row(f, b, base.sizes, base.threshold_proofs)
            rows.append(row)
            line = (f"f={f:3d} B={b:4d}  msgs={row['msgs_total']:9d} "
                    f"decision={row['msgs_decision']:8d} "
                    f"msg_ovh={row['overhead_msgs'] * 100:7.4f}% "
                    f"byte_ovh={row['overhead_bytes'] * 100:7.4f}%")
            if args.simulate:
                rep = simmod.measure_overhead(_exact_cell(base, f, b))
                match = rep["msgs_match"] and rep["bytes_match"]
                failures += 0 if match else 1
                line += f"  sim={'exact' if match else 'MISMATCH'}"
            print(line)
    if args.out:
        simmod.write_tally_csv(args.out, rows)
        print(f"wrote {args.out}")
    return 0 if failures == 0 else 1


# ------------------------------------------------------------------ attack


_STORY = {
    "attack_equivocate": "leader bound the same batch at two counter values",
    "attack_gap": "leader consumed a counter value and went dark",
    "attack_counter_identity": "leader asked its component for fresh counters",
    "parallel_timelines": "two counters now both certify value 1",
    "mode_violation_refused": "strict component refused the counter request",
    "equivocation_refused": "component refused a second binding for the slot",
    "attack_unexpected_success": "component accepted a double binding",
    "flag_leader": "follower proved the leader re-bound a request",
    "viewchange": "replica voted to change the view",
    "newview": "new leader installed the view",
    "stable": "checkpoint became stable",
    "decision_sent": "replica forwarded a commit proof to lagging peers",
}


def cmd_attack(args) -> int:
    cfg = cfgmod.load(args.config, args.set, script=args.script)
    result = simmod.run(cfg)
    if args.out:
        result.write_outputs(args.out)
    print(f"script={cfg.adversary} mode={cfg.mode} "
          f"policy={cfg.counter_policy} n={cfg.n} f={cfg.f}")
    shown = 0
    for rec in result.trace:
        ev = rec.get("ev")
        if ev in _STORY and shown < args.max_events:
            t_ms = rec["t"] / 1e6
            detail = {k: v for k, v in rec.items()
                      if k not in ("t", "who", "ev")}
            extra = f" {detail}" if detail else ""
            print(f"  t={t_ms:9.3f}ms {rec['who']:>4s} {ev}: "
                  f"{_STORY[ev]}{extra}")
            shown += 1
    v = result.verdict
    print(f"safety: {'ok' if v['safety_ok'] else 'VIOLATED'}")
    for viol in v["violations"]:
        print(f"  violation: {viol}")
    print(f"requests completed: {v['completed_requests']}/"
          f"{v['submitted_requests']}  max_view={v['max_view']} "
          f"flagged={v['flagged']}")
    violated = not v["safety_ok"]
    if args.expect_violation:
        return 0 if violated else 1
    return 0 if not violated else 1


# ------------------------------------------------------------------ parser


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="hybft",
        description="replicated state machine testbed with trusted counters")
    sub = p.add_subparsers(dest="command", required=True)

    def common(sp):
        sp.add_argument("--config", help="JSON config file")
        sp.add_argument("--set", action="append", default=[],
                        metavar="PATH=VALUE",
                        help="override one option, e.g. sim.f=2 or "
                             "size_model.tx_bytes=512")

    sp = sub.add_parser("run", help="run one simulation")
    common(sp)
    sp.add_argument("--out", help="directory for trace/summary/tally files")
    sp.add_argument("--json", action="store_true",
                    help="print the summary as JSON")
    sp.set_defaults(func=cmd_run)

    sp = sub.add_parser("overhead",
                        help="measure forwarding overhead against the model")
    common(sp)
    sp.add_argument("-f", type=int, default=10, help="fault bound")
    sp.add_argument("--batch", type=int, default=500, help="batch size")
    sp.add_argument("--out", help="tally CSV path")
    sp.set_defaults(func=cmd_overhead)

    sp = sub.add_parser("table1", help="print the per-protocol cost table")
    sp.add_argument("-f", type=int, default=1, help="fault bound")
    sp.set_defaults(func=cmd_table1)

    sp = sub.add_parser("sweep", help="overhead grid over (f, batch)")
    common(sp)
    sp.add_argument("--f-list", default="1,2,3,10,30")
    sp.add_argument("--batch-list", default="1,10,100,500")
    sp.add_argument("--simulate", action="store_true",
                    help="confirm each cell with paired simulator runs")
    sp.add_argument("--out", help="CSV path for the model rows")
    sp.set_defaults(func=cmd_sweep)

    sp = sub.add_parser("attack", help="run a scripted fault and narrate it")
    sp.add_argument("script", choices=[s for s in ADVERSARY_SCRIPTS
                                       if s != "none"])
    common(sp)
    sp.add_argument("--out", help="directory for trace/summary/tally files")
    sp.add_argument("--expect-violation", action="store_true",
                    help="succeed only if safety was violated")
    sp.add_argument("--max-events", type=int, default=40,
                    help="trace lines to narrate")
    sp.set_defaults(func=cmd_attack)
    return p


def main(argv: Optional[List[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except FileNotFoundError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
