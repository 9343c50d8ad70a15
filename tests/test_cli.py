"""Command-line entry points: exit codes, output files, narrative output."""

from __future__ import annotations

import json

import pytest

from hybft.cli import main
from hybft.config import ConfigError, load
from hybft.sim import TALLY_FIELDS

FAST = ["--set", "clients=1", "--set", "requests_per_client=1",
        "--set", "record_trace=false"]


def test_run_fault_free_exits_zero(capsys):
    rc = main(["run", "--set", "f=1"] + FAST)
    assert rc == 0
    out = capsys.readouterr().out
    assert "safety: ok" in out and "clients_done=True" in out


def test_run_json_summary_parses(capsys):
    rc = main(["run", "--set", "f=1", "--json"] + FAST)
    assert rc == 0
    summary = json.loads(capsys.readouterr().out)
    assert summary["verdict"]["safety_ok"] is True
    assert summary["msgs_total"] > 0


def test_run_writes_output_files(tmp_path, capsys):
    out = tmp_path / "res"
    rc = main(["run", "--set", "f=1", "--set", "clients=1",
               "--set", "requests_per_client=1", "--out", str(out)])
    assert rc == 0
    assert (out / "trace.jsonl").exists()
    assert (out / "summary.json").exists()
    header = (out / "tallies.csv").read_text().splitlines()[0]
    assert header.split(",") == TALLY_FIELDS


def test_run_stalled_workload_exits_nonzero(capsys):
    rc = main(["run", "--set", "adversary=silent_repliers",
               "--set", "decisions=false", "--set", "clients=2",
               "--set", "record_trace=false"])
    assert rc == 1


def test_config_file_and_override_precedence(tmp_path, capsys):
    cfgfile = tmp_path / "c.json"
    cfgfile.write_text(json.dumps({"sim": {"f": 2, "clients": 1,
                                           "requests_per_client": 1,
                                           "record_trace": False}}))
    rc = main(["run", "--config", str(cfgfile), "--json"])
    assert rc == 0
    assert json.loads(capsys.readouterr().out)["f"] == 2
    rc = main(["run", "--config", str(cfgfile), "--set", "f=1", "--json"])
    assert rc == 0
    assert json.loads(capsys.readouterr().out)["f"] == 1


def test_options_outside_a_section_exit_two(tmp_path, capsys):
    cfgfile = tmp_path / "c.json"
    cfgfile.write_text(json.dumps({"f": 2}))
    assert main(["run", "--config", str(cfgfile)]) == 2
    assert "unknown config sections ['f']" in capsys.readouterr().err


def test_attack_presets_sit_between_file_and_overrides(tmp_path):
    cfgfile = tmp_path / "c.json"
    cfgfile.write_text(json.dumps({"sim": {"clients": 1}}))
    assert load(str(cfgfile)).clients == 1
    assert load(str(cfgfile), script="silent_repliers").clients == 2
    # an override still wins, even below the preset's floor
    assert load(str(cfgfile), ["clients=1"], script="silent_repliers").clients == 1
    crash = load(None, ["adversary.k=2"], script="crash_tcs")
    assert crash.adversary == "crash_tcs" and crash.adversary_params == {"k": 2}


def test_bad_override_exits_two(capsys):
    assert main(["run", "--set", "nonsense"]) == 2
    assert main(["run", "--set", "f=-3"]) == 2
    assert main(["run", "--config", "/does/not/exist.json"]) == 2
    capsys.readouterr()
    # values not of the option's type, and names that are not options (a
    # property, a method), are config errors, not crashes
    for bad in ("sim.f=abc", "size_model.tx_bytes=x", "sim.window=abc",
                "sim.n=3", "sim.validate=3"):
        assert main(["run", "--set", bad]) == 2
        err = capsys.readouterr().err
        assert "config error:" in err and "Traceback" not in err
    # adversary parameters: a value of the wrong type, and a misspelt name
    for bad in ("adversary.k=abc", "adversary.kk=5"):
        assert main(["attack", "crash_tcs", "--set", bad]) == 2
        err = capsys.readouterr().err
        assert "config error:" in err and "Traceback" not in err


def test_overhead_small_cell_exact(capsys):
    rc = main(["overhead", "-f", "1", "--batch", "1"])
    assert rc == 0
    out = capsys.readouterr().out
    assert "exact=True" in out
    assert "14.2857%" in out  # 2/14 extra messages at n=3, B=1


def test_table1_prints_all_rows_and_ratios(capsys):
    rc = main(["table1", "-f", "1"])
    assert rc == 0
    out = capsys.readouterr().out
    for name in ("PBFT", "FlexiBFT", "MinBFT", "Zyzzyva", "FlexiZZ", "MinZZ"):
        assert name in out
    assert "+33.3333%" in out
    assert "ratio PBFT/MinBFT: 2" in out


def test_sweep_writes_model_rows(tmp_path, capsys):
    path = tmp_path / "sweep.csv"
    rc = main(["sweep", "--f-list", "1,2", "--batch-list", "1",
               "--simulate", "--out", str(path)])
    assert rc == 0
    lines = path.read_text().splitlines()
    assert lines[0].split(",") == TALLY_FIELDS
    assert len(lines) == 3
    assert capsys.readouterr().out.count("sim=exact") == 2


def test_attack_counter_identity_dichotomy(capsys):
    base = ["attack", "counter_identity", "--set", "record_trace=true",
            "--set", "requests_per_client=1"]
    rc = main(base + ["--set", "counter_policy=announced",
                      "--expect-violation"])
    assert rc == 0
    out = capsys.readouterr().out
    assert "VIOLATED" in out and "conflicting_commit" in out
    # pinned admission (the default) starves the same script
    rc = main(base)
    assert rc == 0
    assert "safety: ok" in capsys.readouterr().out


def test_attack_expect_violation_fails_on_safe_run(capsys):
    rc = main(["attack", "equivocate_withhold", "--expect-violation",
               "--set", "record_trace=true"])
    assert rc == 1
    assert "safety: ok" in capsys.readouterr().out


@pytest.mark.parametrize("text", ['{bad', '{"sim": {"f": "2"}}',
                                  '{"size_model": {"tx_bytes": true}}',
                                  '{"sim": 2}', '[1]'])
def test_malformed_config_file_exits_two(tmp_path, capsys, text):
    cfgfile = tmp_path / "c.json"
    cfgfile.write_text(text)
    assert main(["run", "--config", str(cfgfile)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error:") and "Traceback" not in err


# Each of these would crash a run or keep it from ever ending, so it must be
# a configuration error; the attack cases go through the crash_tcs script.
OUT_OF_RANGE = [
    "sim.seed=-1", f"sim.seed={2 ** 64}", "sim.payload_size=-1",
    "sim.retransmit_ns=0", "sim.retransmit_ns=-5", "sim.batch_timeout_ns=0",
    "sim.viewchange_timeout_ns=0", "sim.delay_min_ns=-1",
    "sim.suspicion_timeout_ns=-1", "sim.delta_ns=-1", "sim.duration_ns=-1",
    "sim.pipeline_depth=0", "size_model.tx_bytes=-1",
    "size_model.header_bytes=-1",
    "attack:adversary.crash_at_ns=-5", "attack:adversary.k=9",
    "attack:adversary.targets=[7]", "attack:adversary.targets=[-1]",
]


@pytest.mark.parametrize("bad", OUT_OF_RANGE)
def test_out_of_range_value_exits_two(bad, capsys):
    script, _, override = bad.rpartition(":")
    with pytest.raises(ConfigError):
        load(overrides=[override], script="crash_tcs" if script else None)
    argv = ["attack", "crash_tcs"] if script else ["run"]
    assert main(argv + ["--set", override]) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error:") and "Traceback" not in err


def test_range_bounds_are_accepted():
    cfg = load(overrides=["sim.seed=0", "sim.payload_size=0",
                          "sim.retransmit_ns=1", "sim.delta_ns=0",
                          "sim.pipeline_depth=1", "size_model.tx_bytes=0"])
    assert (cfg.seed, cfg.retransmit_ns, cfg.pipeline_depth) == (0, 1, 1)
    assert load(overrides=[f"sim.seed={2 ** 64 - 1}"]).seed == 2 ** 64 - 1
    crash = load(overrides=["adversary.k=3", "adversary.targets=[0, 2]"],
                 script="crash_tcs")
    assert crash.adversary_params == {"k": 3, "targets": [0, 2]}


# Each remaining configuration error, with the message a user sees: unknown
# names and values, and option combinations that mean nothing.
@pytest.mark.parametrize("overrides, script, message", [
    (["sim.delay_min_ns=5", "sim.delay_max_ns=4"], None,
     "need delay_min_ns <= delay_max_ns"),
    (["sim.mode=fast"], None, "unknown mode 'fast'"),
    (["sim.tc_mode=rsa"], None, "unknown tc_mode 'rsa'"),
    (["sim.reply_policy=all"], None, "unknown reply_policy 'all'"),
    (["sim.counter_policy=free"], None, "unknown counter_policy 'free'"),
    (["adversary.script=byzantine"], None,
     "unknown adversary script 'byzantine'"),
    (["sim.vulnerable_tc=true"], None,
     "vulnerable_tc is only meaningful under the counter_identity script"),
    (["sim.counter_policy=announced"], None,
     "announced counter policy exists to demonstrate the vulnerable "
     "component; enable vulnerable_tc"),
    (["sim.mode=prevention"], "counter_identity",
     "counter_identity targets detection-mode counters; prevention "
     "certifies contexts, not counter values"),
    (["sim.window=1"], None, "window must be >= 2"),
    (["size_model.tx_kbytes=1"], None, "unknown size_model option 'tx_kbytes'"),
], ids=["delays", "mode", "tc_mode", "reply_policy", "counter_policy",
        "script", "vulnerable_tc", "announced", "prevention_identity",
        "window", "size_option"])
def test_each_config_error_names_its_cause(overrides, script, message):
    with pytest.raises(ConfigError) as info:
        load(overrides=overrides, script=script)
    assert str(info.value) == message
