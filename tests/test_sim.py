"""End-to-end simulator runs: determinism, verdicts, and the exact match
between simulated tallies and the closed-form cost model."""

from __future__ import annotations

import dataclasses
import hashlib
import itertools
import json
from fractions import Fraction

import pytest

from hybft.config import SimConfig
from hybft.protocol import Replica
from hybft.sim import TALLY_FIELDS, measure_overhead, run, safety_violations
from hybft.tc import ContextCertificate, UniqueIdentifier


def exact_cell(f: int, batch: int, **kw) -> SimConfig:
    """Constant delay, one round in flight, no early timers, no checkpoints
    inside the run: the regime where tallies equal the closed form."""
    kw.setdefault("duration_ns", 4_000_000_000)
    return SimConfig(
        f=f, batch_size=batch, clients=batch, requests_per_client=2,
        delay_min_ns=1_000_000, delay_max_ns=1_000_000, delta_ns=0,
        pipelining=False, checkpoint_interval=5_000, window=10_000,
        record_trace=False, **kw).validate()


# ------------------------------------------------------------- fault-free


def test_fault_free_run_reaches_unanimous_execution():
    v = run(SimConfig(f=1, clients=2, requests_per_client=2)).verdict
    assert v["safety_ok"] is True
    assert v["violations"] == []
    assert v["all_clients_done"] is True
    assert v["completed_requests"] == 4
    assert v["max_view"] == 0
    assert v["flagged"] == []


def test_larger_group_fault_free():
    v = run(SimConfig(f=3, clients=2, requests_per_client=2, seed=9)).verdict
    assert v["safety_ok"] and v["all_clients_done"]
    assert v["max_view"] == 0


def test_state_request_for_an_unexecuted_checkpoint_goes_unanswered():
    # replica 0 adopts checkpoint 23 from its peers' certificates while it has
    # executed only up to 22, then receives a FetchState for 23
    v = run(SimConfig(f=1, clients=4, requests_per_client=20, seed=8,
                      record_trace=False)).verdict
    assert v["safety_ok"] and v["all_clients_done"]


@pytest.mark.parametrize("f,clients", [(1, 2), (1, 4), (2, 2), (2, 4)])
def test_fault_free_soak_is_safe_and_live(f, clients):
    # seeds 6-9 include 8, whose f=1 cells reach the state transfer above
    for requests, seed in itertools.product((20, 50), range(6, 10)):
        v = run(SimConfig(f=f, clients=clients, requests_per_client=requests,
                          seed=seed, duration_ns=10_000_000_000,
                          record_trace=False)).verdict
        assert v["safety_ok"] and v["all_clients_done"], (requests, seed)


# ------------------------------------------------------------- determinism


def test_identical_config_reruns_byte_identical():
    cfg = SimConfig(f=2, clients=2, requests_per_client=2, seed=11)
    a = run(cfg)
    b = run(cfg)
    ta = "\n".join(json.dumps(r, sort_keys=True) for r in a.trace)
    tb = "\n".join(json.dumps(r, sort_keys=True) for r in b.trace)
    assert ta == tb
    assert a.summary_dict() == b.summary_dict()


def test_seed_changes_the_schedule():
    base = SimConfig(f=1, clients=2, requests_per_client=2)
    a = run(dataclasses.replace(base, seed=1))
    b = run(dataclasses.replace(base, seed=2))
    assert [r["t"] for r in a.trace] != [r["t"] for r in b.trace]


def test_adversarial_run_is_equally_deterministic():
    cfg = SimConfig(f=1, clients=2, requests_per_client=3, seed=5,
                    adversary="equivocate_withhold")
    a, b = run(cfg), run(cfg)
    assert a.trace == b.trace


def test_takeover_stays_single_when_votes_beat_the_leaders_timer():
    # at this seed the defection quorum reaches the incoming leader before
    # its own suspicion fires; the joining vote must not double the takeover
    cfg = SimConfig(f=2, seed=127, clients=1, requests_per_client=2,
                    adversary="gap_forever", record_trace=True)
    r = run(cfg)
    assert r.verdict["safety_ok"] and r.verdict["all_clients_done"]
    assert r.verdict["max_view"] == 1
    assert sum(1 for e in r.trace if e.get("ev") == "newview") == 1


# --------------------------------------------------------- model vs tallies


@pytest.mark.parametrize("f", [1, 2, 3])
@pytest.mark.parametrize("batch", [1, 10])
def test_simulated_counts_equal_closed_form(f, batch):
    res = measure_overhead(exact_cell(f, batch))
    assert res["msgs_match"], res
    assert res["bytes_match"], res


def test_smallest_cell_counts_frozen():
    res = measure_overhead(exact_cell(1, 1))
    # two consensus rounds of the n=3 count table
    assert res["sim_msgs_on"] == 32
    assert res["sim_msgs_off"] == 28
    assert res["sim_msg_overhead"] == Fraction(1, 7)
    assert res["sim_byte_overhead"] == Fraction(23, 110)


def test_decision_traffic_absent_when_disabled():
    r = run(exact_cell(2, 1, decisions=False))
    assert r.msgs_by_type.get("decision", 0) == 0
    assert r.verdict["decisions_sent"] == 0


# ---------------------------------------------------------- delta deferral


def test_patient_timer_suppresses_every_decision():
    # evidence of peer progress arrives before a patient timer fires
    cfg = SimConfig(f=1, clients=2, requests_per_client=3,
                    delay_min_ns=1_000_000, delay_max_ns=1_000_000,
                    delta_ns=4_000_000, checkpoint_interval=1,
                    record_trace=False)
    r = run(cfg)
    assert r.verdict["all_clients_done"]
    assert r.msgs_by_type.get("decision", 0) == 0
    assert r.verdict["decisions_sent"] == 0
    assert r.verdict["decisions_suppressed"] > 0


def test_eager_timer_ships_decisions():
    cfg = SimConfig(f=1, clients=2, requests_per_client=3,
                    delay_min_ns=1_000_000, delay_max_ns=5_000_000,
                    delta_ns=0, record_trace=False)
    r = run(cfg)
    assert r.verdict["all_clients_done"]
    assert r.msgs_by_type.get("decision", 0) > 0


# ------------------------------------------------------------ mode costs


def test_signature_mode_spares_verifier_accesses():
    base = dict(f=1, clients=1, requests_per_client=2, record_trace=False)
    hm = run(SimConfig(tc_mode="hmac", **base))
    sg = run(SimConfig(tc_mode="sig", **base))
    assert hm.verdict["all_clients_done"] and sg.verdict["all_clients_done"]
    for rid in range(3):
        assert sg.tc_accesses[rid] < hm.tc_accesses[rid]


# -------------------------------------------------------------- scenarios


def test_silent_repliers_dichotomy_smallest():
    on = run(SimConfig(f=1, clients=2, requests_per_client=2, seed=3,
                       adversary="silent_repliers", decisions=True,
                       record_trace=False)).verdict
    off = run(SimConfig(f=1, clients=2, requests_per_client=2, seed=3,
                        adversary="silent_repliers", decisions=False,
                        record_trace=False)).verdict
    assert on["safety_ok"] and on["all_clients_done"]
    assert off["safety_ok"] and not off["all_clients_done"]


def test_crash_beyond_f_stalls_and_restore_recovers():
    base = SimConfig(f=1, clients=2, requests_per_client=2, seed=7,
                     record_trace=False)
    stall = run(dataclasses.replace(base, adversary="crash_tcs",
                adversary_params={"k": 2, "crash_at_ns": 8_000_000})).verdict
    assert stall["safety_ok"] and not stall["all_clients_done"]
    resumed = run(dataclasses.replace(base, adversary="crash_tcs",
                  adversary_params={"k": 2, "crash_at_ns": 8_000_000,
                                    "restore_at_ns": 700_000_000})).verdict
    assert resumed["safety_ok"] and resumed["all_clients_done"]


def test_restarted_component_cannot_rejoin_the_timeline():
    cfg = SimConfig(f=1, clients=2, requests_per_client=3, seed=7,
                    adversary="crash_tcs",
                    adversary_params={"k": 1, "crash_at_ns": 8_000_000,
                                      "restart_at_ns": 11_000_000},
                    record_trace=False)
    v = run(cfg).verdict
    assert v["safety_ok"] and v["all_clients_done"]
    assert v["stale_epoch_drops"] > 0


# ---------------------------------------------------------------- outputs


def test_write_outputs_round_trips(tmp_path):
    r = run(SimConfig(f=1, clients=1, requests_per_client=1, seed=2))
    r.write_outputs(str(tmp_path))
    lines = (tmp_path / "trace.jsonl").read_text().splitlines()
    assert lines and all(json.loads(ln) for ln in lines)
    summary = json.loads((tmp_path / "summary.json").read_text())
    assert summary["verdict"]["safety_ok"] is True
    header = (tmp_path / "tallies.csv").read_text().splitlines()[0]
    assert header.split(",") == TALLY_FIELDS


# Pinned sha256 of trace.jsonl followed by summary.json. A change that is
# meant to keep behaviour must keep these; one that changes behaviour on
# purpose must say why the new hashes are right.
GOLDEN = {
    "hmac": (SimConfig(f=1, clients=2, requests_per_client=2, seed=1),
             "2616b76fce7f00c5ea310915969306f7214d5ce8026ab33791e102f74e3571b0"),
    "sig": (SimConfig(f=1, clients=2, requests_per_client=2, seed=2,
                      tc_mode="sig"),
            "ed9347aa9fca0770327972cafc3ed6bcd2282c4da844d7173287c2bda4ca5a64"),
    "prevention": (
        SimConfig(f=1, clients=2, requests_per_client=2, seed=3,
                  mode="prevention"),
        "9a1b50f34b73837451df923febd8ad59be35e924641cf5c7a5c334e91ea91418"),
    "equivocate_withhold": (
        SimConfig(f=1, clients=2, requests_per_client=3, seed=5,
                  adversary="equivocate_withhold"),
        "fa8dfd27f337d5a523e33156caede51e70e0ba3c34abb23ecfff6e6682eac627"),
    "gap_forever": (
        SimConfig(f=1, clients=1, requests_per_client=3, seed=4,
                  adversary="gap_forever"),
        "daed0a2bd9e6fd3561fbe9c49b7712382be33e16e28639ec7f04ab09025bd24c"),
    "gap_forever_prevention": (
        SimConfig(f=1, clients=1, requests_per_client=3, seed=4,
                  adversary="gap_forever", mode="prevention"),
        "e1a15f9da99794f796df77266b43eb43dd1375200337beb430dcc5d231ffb449"),
    "gap_forever_sig": (
        SimConfig(f=1, clients=1, requests_per_client=3, seed=4,
                  adversary="gap_forever", tc_mode="sig"),
        "33b68a133d041009dce11fcab0643831b7dd76c7e8298ef635bd3a5258a7791f"),
    "silent_repliers": (
        SimConfig(f=1, clients=2, requests_per_client=2, seed=3,
                  adversary="silent_repliers"),
        "c0d5f98d3fd74ec4f44a98d879a3f08c477ad7bafc6dfd90d3760634009c97b8"),
    "counter_identity": (  # unsafe: pins the violation path of the verdict
        SimConfig(f=1, clients=1, requests_per_client=1, seed=5,
                  adversary="counter_identity", vulnerable_tc=True,
                  counter_policy="announced"),
        "180576da8600af3860038e6b11f2923454173f436c620a9f6f3ff30ec609047b"),
    "crash_restore": (
        SimConfig(f=1, clients=2, requests_per_client=2, seed=7,
                  adversary="crash_tcs",
                  adversary_params={"k": 2, "crash_at_ns": 8_000_000,
                                    "restore_at_ns": 700_000_000}),
        "ffa5788d07295f0e369c44bc333b4d0ce04ca4cd903106f8982a42262fed5d0f"),
    "crash_restart": (
        SimConfig(f=1, clients=2, requests_per_client=3, seed=7,
                  adversary="crash_tcs",
                  adversary_params={"k": 1, "crash_at_ns": 8_000_000,
                                    "restart_at_ns": 11_000_000}),
        "d406737027807118845f70c2004842cfeac9e58012f5dc33a626618ac0bf01f1"),
}


@pytest.mark.parametrize("name", sorted(GOLDEN))
def test_outputs_match_the_golden_hashes(name, tmp_path):
    cfg, want = GOLDEN[name]
    run(cfg).write_outputs(str(tmp_path))
    got = hashlib.sha256((tmp_path / "trace.jsonl").read_bytes()
                         + (tmp_path / "summary.json").read_bytes())
    assert got.hexdigest() == want


# ----------------------------------------------------------------- oracle


class _IssuedOnly:
    """Component stand-in that only answers the issuance audit."""

    def __init__(self, certs=()):
        self.certs = tuple(certs)

    def issued_certificates(self):
        return self.certs


def _bare_replica(rid: int, certs=()) -> Replica:
    return Replica(rid, SimConfig(), _IssuedOnly(certs), None, {})


def test_oracle_reports_each_kind_of_violation():
    d1, d2 = hashlib.sha256(b"one").digest(), hashlib.sha256(b"two").digest()
    ui = UniqueIdentifier(0, 1, "r0:msg", 1, d1, b"")
    ctx = ContextCertificate(0, 1, "prepare", 0, 1, d1, b"")
    # replica 0 is faulty: its histories are ignored, its component audited
    faulty = _bare_replica(0, certs=(ui, ctx, ui, ctx))
    a, b = _bare_replica(1), _bare_replica(2)
    for rep, dig in ((faulty, d2), (a, d1), (b, d2)):
        rep.committed_history[1] = dig
        rep.prepared_history.append((0, 1, dig))
        rep.exec_history[1] = dig
    assert safety_violations([faulty, a, b], {0}) == [
        {"kind": "conflicting_commit", "seq": 1,
         "claims": {d1.hex()[:12]: [1], d2.hex()[:12]: [2]}},
        {"kind": "conflicting_admission", "view": 0, "seq": 1,
         "claims": {d1.hex()[:12]: [1], d2.hex()[:12]: [2]}},
        {"kind": "divergent_execution", "seq": 1, "replicas": [1, 2]},
        {"kind": "double_ui", "replica": 0, "counter": "r0:msg", "value": 1},
        {"kind": "double_context", "replica": 0, "context": ("prepare", 0, 1)},
    ]
    # with replica 2 faulty too, one correct replica is left to contradict
    assert [v["kind"] for v in safety_violations([faulty, a, b], {0, 2})] == [
        "double_ui", "double_context"]
    assert safety_violations([a, _bare_replica(2)], set()) == []
