"""Acceptance suite: one test per headline claim of the package.

`pytest tests/test_acceptance.py -v` prints one PASS/FAIL verdict line per
criterion; add `-s` for the detail line each test prints on success. Every
tolerance the README states is asserted here, so a red test is the
corresponding claim failing at tolerance, not a formatting problem.
"""

from __future__ import annotations

import dataclasses
import json
from fractions import Fraction

import pytest

from conftest import make_hmac_tc
from hybft import resource_model as rm
from hybft.cli import _exact_cell
from hybft.config import ADVERSARY_SCRIPTS, SimConfig
from hybft.model_check import explore_world, gap_world
from hybft.sim import Simulator, measure_overhead, run, run_all
from hybft.tc import ContextCertificate, EquivocationRefused


def _line(n: int, detail: str) -> None:
    print(f"[criterion {n:02d}] PASS {detail}")


# 1. Decision forwarding costs about 2% extra messages at f=10 and about 5%
#    at f=30 (batch 500), and under constant delay the simulator's totals
#    equal the closed-form counts exactly, on and off.

def test_criterion_01_message_overhead_two_cells():
    r10 = measure_overhead(_exact_cell(SimConfig(), 10, 500))
    r30 = measure_overhead(_exact_cell(SimConfig(), 30, 500))
    for r in (r10, r30):
        assert r["msgs_match"] and r["bytes_match"]
        assert r["sim_msg_overhead"] == r["model_msg_overhead"]
    assert r10["sim_msg_overhead"] == Fraction(19, 1072)
    assert r30["sim_msg_overhead"] == Fraction(177, 3236)
    o10, o30 = float(r10["sim_msg_overhead"]), float(r30["sim_msg_overhead"])
    assert abs(o10 - 0.02) <= 0.005
    assert abs(o30 - 0.05) <= 0.007
    _line(1, f"message overhead f=10 B=500 {o10:.4%} (target 2% +/- 0.5pp), "
             f"f=30 B=500 {o30:.4%} (target 5% +/- 0.7pp), "
             f"simulator == closed form on both cells")


# 2. A patient forwarding timer (delta at least twice the one-way delay)
#    sends zero Decision messages in fault-free runs: checkpoints and later
#    commits always arrive first and suppress the send.

def test_criterion_02_patient_timer_sends_no_decisions():
    suppressed = 0
    for f in (1, 2):
        cfg = SimConfig(f=f, clients=2, requests_per_client=3,
                        decisions=True, delta_ns=4_000_000,
                        delay_min_ns=1_000_000, delay_max_ns=1_000_000,
                        checkpoint_interval=1, pipelining=False,
                        seed=21, record_trace=False)
        r = run(cfg)
        assert r.verdict["safety_ok"] and r.verdict["all_clients_done"]
        assert r.msgs_by_type.get("decision", 0) == 0
        assert r.verdict["decisions_sent"] == 0
        assert r.verdict["decisions_suppressed"] > 0
        suppressed += r.verdict["decisions_suppressed"]
    _line(2, f"delta = 4x one-way delay, f in {{1,2}}: 0 Decisions on the "
             f"wire, {suppressed} timer firings all suppressed by evidence")


# 3. One byte-size model, varying only the transaction size, lands within
#    10 percentage points of all four published byte-overhead readings.

def test_criterion_03_byte_overhead_calibration_points():
    targets = {(10, 256): 0.10, (30, 256): 0.89,
               (10, 1024): 0.03, (30, 1024): 0.23}
    base = rm.SizeModel()
    got = {}
    for (f, tx), want in targets.items():
        sizes = dataclasses.replace(base, tx_bytes=tx)
        ov = float(rm.decision_byte_overhead(f, 500, sizes, False))
        assert abs(ov - want) <= 0.10, (f, tx, ov, want)
        got[(f, tx)] = ov
    _line(3, "byte overhead at B=500 within +/- 10pp on all four points: "
             + ", ".join(f"(f={f}, tx={tx}) {got[(f, tx)]:.1%} vs "
                         f"{targets[(f, tx)]:.0%}"
                         for (f, tx) in sorted(got)))


# 4. With f silent repliers, clients only finish when Decision forwarding is
#    on; with it off the run stalls indefinitely while safety still holds.

def test_criterion_04_silent_repliers_need_forwarding():
    for f in (1, 2):
        base = SimConfig(f=f, clients=2, requests_per_client=2,
                         adversary="silent_repliers", seed=3,
                         record_trace=False)
        on = run(dataclasses.replace(base, decisions=True)).verdict
        off = run(dataclasses.replace(base, decisions=False)).verdict
        assert on["safety_ok"] and on["all_clients_done"]
        assert off["safety_ok"] and not off["all_clients_done"]
        # the stall is observed over the full run, far past 100x mean RTT
        assert base.duration_ns >= 100 * (base.delay_min_ns
                                          + base.delay_max_ns)
        assert off["completed_requests"] == 0
    _line(4, "f silent repliers, f in {1,2}: forwarding on completes all "
             "requests, forwarding off completes none over >= 100x mean "
             "RTT, safety intact either way")


# 5. No reachable state of the exhaustively explored n=3 adversarial worlds
#    violates safety, and neither do 1,000 seeded runs per adversary script
#    and fault bound.

def test_criterion_05_adversarial_state_exploration_and_seed_sweep(
        equivocate_exploration):
    eq = equivocate_exploration
    gp = explore_world(gap_world())
    assert eq["full_commit_terminals"] >= 1
    assert gp["full_commit_terminals"] >= 1
    cells = [(script, f, seed)
             for script in ("equivocate_withhold", "gap_forever")
             for f in (1, 2, 3) for seed in range(1000)]
    results = run_all([SimConfig(f=f, seed=seed, clients=1,
                                 requests_per_client=2, adversary=script,
                                 record_trace=False)
                       for script, f, seed in cells])
    for cell, res in zip(cells, results):
        assert res.verdict["safety_ok"], cell
        assert res.verdict["all_clients_done"], cell
    runs = len(results)
    _line(5, f"exhaustive n=3 worlds safe in every reachable state "
             f"({eq['states']} + {gp['states']} states, "
             f"{eq['full_commit_terminals']} and "
             f"{gp['full_commit_terminals']} full-commit terminals), plus "
             f"{runs} seeded adversarial runs all safe and live")


# 6. Equivocation is flagged and frozen in detection mode, and cannot be
#    certified at all in prevention mode: the component refuses the second
#    binding and no two certificates for one context id ever exist.

def test_criterion_06_equivocation_detected_or_refused():
    det = run(SimConfig(f=1, clients=2, requests_per_client=3,
                        adversary="equivocate_withhold", seed=9,
                        record_trace=False))
    assert det.verdict["safety_ok"] and det.verdict["all_clients_done"]
    assert det.verdict["flagged"], "detection mode must flag the leader"
    assert det.verdict["max_view"] >= 1, "flagged view must be abandoned"

    prev_sim = Simulator(SimConfig(f=1, clients=2, requests_per_client=3,
                                   mode="prevention",
                                   adversary="equivocate_withhold", seed=9,
                                   record_trace=True))
    prev = prev_sim.run()
    assert prev.verdict["safety_ok"] and prev.verdict["all_clients_done"]
    assert not prev.verdict["flagged"] and prev.verdict["max_view"] == 0
    assert any(e.get("ev") == "equivocation_refused" for e in prev.trace)

    ff_sim = Simulator(SimConfig(f=1, clients=2, requests_per_client=2,
                                 mode="prevention", seed=10,
                                 record_trace=False))
    ff_sim.run()
    for rec in (*prev_sim.ledger.records.values(),
                *ff_sim.ledger.records.values()):
        seen = set()
        for cert in rec.issued:
            if isinstance(cert, ContextCertificate):
                cid = (cert.replica_id, cert.epoch, cert.phase,
                       cert.view, cert.seq)
                assert cid not in seen, f"two certificates for {cid}"
                seen.add(cid)

    tc = make_hmac_tc()
    tc.certify_context("prepare", 0, 1, b"a" * 32)
    with pytest.raises(EquivocationRefused):
        tc.certify_context("prepare", 0, 1, b"b" * 32)
    _line(6, f"detection flags and abandons the double binding "
             f"(flagged={det.verdict['flagged']}), prevention refuses it at "
             f"the component and the audit finds one certificate per "
             f"context id")


# 7. The counter-identity attack succeeds exactly when the deployment both
#    trusts leader-announced counter names and runs a component that mints
#    anonymous counters; pinning the name or keeping the component strict
#    each defeat it.

def test_criterion_07_counter_identity_attack_trichotomy():
    base = SimConfig(f=1, adversary="counter_identity", seed=5, clients=1,
                     requests_per_client=2, record_trace=True)
    vuln = run(dataclasses.replace(base, vulnerable_tc=True,
                                   counter_policy="announced")).verdict
    assert not vuln["safety_ok"]
    kinds = {v["kind"] for v in vuln["violations"]}
    assert "conflicting_commit" in kinds
    assert "conflicting_admission" in kinds

    pinned = run(dataclasses.replace(base, vulnerable_tc=True)).verdict
    assert pinned["safety_ok"] and pinned["all_clients_done"]

    strict = run(base)
    assert strict.verdict["safety_ok"] and strict.verdict["all_clients_done"]
    assert any(e.get("ev") == "mode_violation_refused" for e in strict.trace)
    _line(7, f"announced names + minting component: safety violated "
             f"({', '.join(sorted(kinds))}); pinned names: safe; strict "
             f"component: minting refused, run stays safe and live")


# 8. Crashing up to f trusted components leaves the run live; crashing more
#    stalls it without hurting safety; restoring a snapshot resumes it; a
#    restart without directory agreement is quarantined by epoch checks
#    while the rest of the group keeps committing.

def test_criterion_08_component_crash_restore_restart():
    def crash_run(params, **kw):
        return run(SimConfig(f=1, adversary="crash_tcs",
                             adversary_params=params, record_trace=False,
                             **kw)).verdict

    k1 = crash_run({"k": 1, "crash_at_ns": 8_000_000})
    assert k1["safety_ok"] and k1["all_clients_done"]

    k2 = crash_run({"k": 2, "crash_at_ns": 8_000_000})
    assert k2["safety_ok"] and not k2["all_clients_done"]

    rest = crash_run({"k": 2, "crash_at_ns": 8_000_000,
                      "restore_at_ns": 700_000_000})
    assert rest["safety_ok"] and rest["all_clients_done"]

    ep = crash_run({"k": 1, "crash_at_ns": 8_000_000,
                    "restart_at_ns": 11_000_000},
                   clients=2, requests_per_client=3, seed=7)
    assert ep["safety_ok"] and ep["all_clients_done"]
    assert ep["stale_epoch_drops"] > 0
    assert ep["max_view"] == 0
    _line(8, f"k=f crash stays live, k=f+1 stalls safely "
             f"({k2['completed_requests']}/{k2['submitted_requests']} done), "
             f"snapshot restore resumes, restart without re-registration is "
             f"dropped on stale epoch ({ep['stale_epoch_drops']} drops) "
             f"while the group finishes")


# 9. The analytic cost table reproduces the published six-protocol
#    comparison, the leader's bandwidth share stays below one half, and the
#    verification saving versus the two-verification baselines is 2x.

def test_criterion_09_analytic_cost_table_and_ratios():
    assert set(rm.COST_TABLE) == {"PBFT", "FlexiBFT", "MinBFT",
                                  "Zyzzyva", "FlexiZZ", "MinZZ"}
    flexi = rm.COST_TABLE["FlexiBFT"]
    assert (str(flexi.group_size), str(flexi.leader_msgs), str(flexi.signs),
            str(flexi.verifies), str(flexi.seq_tc_accesses)) \
        == ("3f+1", "3f", "1", "2f", "1")
    minbft = rm.COST_TABLE["MinBFT"]
    assert (str(minbft.group_size), str(minbft.verifies),
            str(minbft.seq_tc_accesses)) == ("2f+1", "f", "2")
    assert str(rm.COST_TABLE["PBFT"].leader_msgs) == "6f"

    assert rm.leader_bandwidth_ratio(1) == Fraction(1, 3)
    ratios = [rm.leader_bandwidth_ratio(f) for f in (1, 2, 10, 100, 1000)]
    assert all(a < b for a, b in zip(ratios, ratios[1:]))
    assert all(r < Fraction(1, 2) for r in ratios)

    assert rm.verification_ratio("PBFT", "MinBFT") == 2
    assert rm.verification_ratio("FlexiBFT", "MinBFT") == 2
    _line(9, "six-row cost table matches the published comparison, leader "
             "bandwidth share grows from 1/3 toward the 1/2 limit, "
             "verification ratio vs MinBFT is exactly 2")


# 10. Any (configuration, seed) pair replays byte for byte: every adversary
#     script plus the prevention and signature variants, run twice each.

def test_criterion_10_deterministic_replay():
    cells = [
        SimConfig(f=1, clients=2, requests_per_client=2, seed=11),
        SimConfig(f=2, clients=2, requests_per_client=3,
                  adversary="equivocate_withhold", seed=12),
        SimConfig(f=1, adversary="gap_forever", seed=13),
        SimConfig(f=1, clients=2, adversary="silent_repliers", seed=3),
        SimConfig(f=1, adversary="counter_identity", vulnerable_tc=True,
                  counter_policy="announced", seed=5),
        SimConfig(f=1, adversary="crash_tcs",
                  adversary_params={"k": 2, "crash_at_ns": 8_000_000,
                                    "restore_at_ns": 700_000_000}, seed=6),
        SimConfig(f=1, mode="prevention", clients=2,
                  requests_per_client=2, seed=14),
        SimConfig(f=1, tc_mode="sig", seed=15),
    ]
    assert {c.adversary for c in cells} == set(ADVERSARY_SCRIPTS)
    for cfg in cells:
        a, b = run(cfg), run(cfg)
        blob_a = "\n".join(json.dumps(e, sort_keys=True)
                           for e in a.trace).encode()
        blob_b = "\n".join(json.dumps(e, sort_keys=True)
                           for e in b.trace).encode()
        assert blob_a == blob_b, f"trace differs on rerun: {cfg.adversary}"
        assert a.verdict == b.verdict
        assert a.msgs_by_type == b.msgs_by_type
        assert a.bytes_by_type == b.bytes_by_type
    _line(10, f"{len(cells)} scenarios covering every adversary script "
              f"(plus prevention and signature modes) replay byte for byte")
