"""Command-line behavior: determinism, seed override, error reporting."""

import hashlib
import json
import os
import subprocess
import sys

import pytest

from wiretap_commit import adversary, cli, harness, parallel
from wiretap_commit.adversary import GRID_LIMIT, TRIAL_LIMIT, WORD_LIMIT
from wiretap_commit.bits import BitVector
from wiretap_commit.channel import make_channel
from wiretap_commit.cli import EXIT_BAD_CONFIG, EXIT_OK, main
from wiretap_commit.harness import KIND_BY_COMMAND, ExperimentConfig, ResultTable
from wiretap_commit.measures import CrossoverPair
from wiretap_commit.protocol import (
    commit_phase,
    derive_params,
    explicit_params,
    params_from_config,
    session_to_config,
)
from wiretap_commit.rng import make_rng


@pytest.fixture
def soundness_config(tmp_path):
    doc = {
        "version": 1,
        "kind": "soundness",
        "seed": 17,
        "trials": 150,
        "params": {
            "n": 300, "p": 0.1, "q": 0.1, "privacy": "one",
            "alpha1": 0.05, "beta1": 0.05, "beta2": 0.1,
        },
    }
    path = tmp_path / "soundness.json"
    path.write_text(json.dumps(doc))
    return path


def test_soundness_writes_csv(soundness_config, tmp_path):
    out = tmp_path / "result.csv"
    code = main(["soundness", "--config", str(soundness_config),
                 "--out", str(out), "--threads", "1"])
    assert code == EXIT_OK
    table = ResultTable.from_csv(out.read_text())
    assert table.metadata["seed"] == 17
    assert table.rows[0][table.columns.index("metric")] == "soundness_rejection_rate"


def test_byte_identical_reruns(soundness_config, tmp_path):
    out1, out2 = tmp_path / "a.csv", tmp_path / "b.csv"
    for out in (out1, out2):
        assert main(["soundness", "--config", str(soundness_config),
                     "--out", str(out), "--threads", "1"]) == EXIT_OK
    assert out1.read_bytes() == out2.read_bytes()


def test_threads_do_not_change_output(soundness_config, tmp_path, fork_small_calls):
    out1, out2 = tmp_path / "t1.csv", tmp_path / "t2.csv"
    assert main(["soundness", "--config", str(soundness_config),
                 "--out", str(out1), "--threads", "1"]) == EXIT_OK
    assert main(["soundness", "--config", str(soundness_config),
                 "--out", str(out2), "--threads", "2"]) == EXIT_OK
    assert out1.read_bytes() == out2.read_bytes()


def test_seed_flag_overrides_and_is_recorded(soundness_config, tmp_path):
    out = tmp_path / "s.json"
    assert main(["soundness", "--config", str(soundness_config),
                 "--seed", "99", "--out", str(out), "--format", "json",
                 "--threads", "1"]) == EXIT_OK
    table = ResultTable.from_json(out.read_text())
    assert table.metadata["seed"] == 99
    assert table.rows[0][table.columns.index("seed")] == 99


def _grid_doc(steps):
    return {"version": 1, "kind": "capacity-grid",
            "grid": {"p_min": 0.1, "p_max": 0.4, "q_min": 0.1, "q_max": 0.4,
                     "steps": steps}}


def test_capacity_subcommand(tmp_path):
    cfg = tmp_path / "cap.json"
    cfg.write_text(json.dumps(_grid_doc(4)))
    out = tmp_path / "cap.csv"
    assert main(["capacity", "--config", str(cfg), "--out", str(out)]) == EXIT_OK
    table = ResultTable.from_csv(out.read_text())
    assert len(table) == 16


def test_grid_past_the_limit_exits_before_any_work(tmp_path, capsys, monkeypatch):
    def no_work(*args, **kwargs):
        raise AssertionError("the grid ran before its size was checked")

    monkeypatch.setattr(harness, "run_capacity_grid", no_work)
    cfg = tmp_path / "cap.json"
    cfg.write_text(json.dumps(_grid_doc(GRID_LIMIT + 1)))
    assert main(["capacity", "--config", str(cfg)]) == EXIT_BAD_CONFIG
    err = capsys.readouterr().err
    assert err.startswith("error: ") and f"limited to {GRID_LIMIT}" in err


def test_grid_at_the_limit_validates():
    ExperimentConfig.from_dict(_grid_doc(GRID_LIMIT)).validate()


def test_malformed_json_reports_line_and_column(tmp_path, capsys):
    cfg = tmp_path / "bad.json"
    cfg.write_text('{"version": 1,\n  "kind": soundness}\n')
    assert main(["soundness", "--config", str(cfg)]) == EXIT_BAD_CONFIG
    err = capsys.readouterr().err
    assert "line 2" in err and "column" in err


def test_invalid_params_fail_nonzero(tmp_path, capsys):
    cfg = tmp_path / "invalid.json"
    cfg.write_text(json.dumps({
        "version": 1, "kind": "soundness", "trials": 10,
        "params": {"n": 100, "p": 0.2, "q": 0.2, "privacy": "one",
                   "alpha1": 0.05, "beta1": 0.05, "beta2": 0.9},
    }))
    assert main(["soundness", "--config", str(cfg)]) == EXIT_BAD_CONFIG
    assert "rate" in capsys.readouterr().err


def test_kind_mismatch_rejected(soundness_config, capsys):
    assert main(["binding", "--config", str(soundness_config)]) == EXIT_BAD_CONFIG
    assert "does not match" in capsys.readouterr().err


def test_replay_roundtrip(tmp_path):
    params = derive_params(200, CrossoverPair(0.1, 0.1), "one",
                           alpha1=0.1, beta1=0.05, beta2=0.1)
    channel = make_channel(0.1, 0.1)
    rng = make_rng(8)
    c = BitVector.random(rng, params.commit_bits)
    session = commit_phase(params, c, channel, rng)
    doc = session_to_config(session, params)
    path = tmp_path / "session.json"
    path.write_text(json.dumps(doc))
    out = tmp_path / "replay.csv"
    assert main(["replay", "--config", str(path), "--out", str(out)]) == EXIT_OK
    table = ResultTable.from_csv(out.read_text())
    row = dict(zip(table.columns, table.rows[0]))
    assert row["metric"] == "replay_bob_test"


def _transcript() -> dict:
    """The transcript of an honest n = 200 session."""
    params = derive_params(200, CrossoverPair(0.1, 0.1), "one",
                           alpha1=0.1, beta1=0.05, beta2=0.1)
    rng = make_rng(8)
    c = BitVector.random(rng, params.commit_bits)
    return session_to_config(commit_phase(params, c, make_channel(0.1, 0.1), rng), params)


@pytest.mark.parametrize("edit,message", [
    (lambda doc: doc["G"].pop("l"), "G is missing 'l'"),
    (lambda doc: doc["Ext"].update(seed="zz"), "not a hex string: 'zz'"),
    (lambda doc: doc.update(g_bar="zz"), "not a hex string: 'zz'"),
    (lambda doc: doc.update(foo=1), "unknown transcript fields: ['foo']"),
    (lambda doc: doc["params"].update(foo=1), "unknown params fields: ['foo']"),
    (lambda doc: doc["G"].update(foo=1), "unknown G fields: ['foo']"),
    (lambda doc: doc["Ext"].update(foo=1), "unknown Ext fields: ['foo']"),
    (lambda doc: doc.pop("Q"), "transcript is missing 'Q'"),
    # fields that derived params recompute; each of these once replayed
    (lambda doc: doc["params"].update(rate=1e308),
     "params.rate = 1e+308 conflicts with the params"),
    (lambda doc: doc["params"].update(challenge_bits=-1),
     "params.challenge_bits = -1 conflicts with the params, which give 10"),
    (lambda doc: doc["params"].update(challenge_bits=2 ** 70),
     f"params.challenge_bits = {2 ** 70} conflicts with the params, which give 10"),
    (lambda doc: doc["params"].update(commit_bits=0),
     "params.commit_bits = 0 conflicts with the params"),
    # once an OverflowError in floor(n * R), exit 1
    (lambda doc: doc["params"].update(n=10 ** 400), "past the largest float"),
    # once "hex length 13 bytes does not match -9 bits": the seed was read first
    (lambda doc: doc["G"].update(n=-3, l=-5),
     "need 1 <= output_bits <= input_bits, got n=-3, l=-5"),
], ids=["missing-G-l", "non-hex-Ext-seed", "non-hex-g_bar", "unknown-top-level-field",
        "unknown-params-field", "unknown-G-field", "unknown-Ext-field", "missing-Q",
        "derived-rate-past-capacity", "derived-challenge-bits-negative",
        "derived-challenge-bits-huge", "derived-commit-bits-zero", "n-past-every-float",
        "G-dimensions-before-its-seed"])
def test_malformed_transcript_is_a_config_error(tmp_path, capsys, edit, message):
    doc = _transcript()
    edit(doc)
    path = tmp_path / "session.json"
    path.write_text(json.dumps(doc))
    assert main(["replay", "--config", str(path)]) == EXIT_BAD_CONFIG
    err = capsys.readouterr().err
    assert err.startswith("error: ") and message in err


def _explicit_transcript() -> dict:
    """The transcript of an n = 16 session with explicit params, as in
    demos/configs/binding.json."""
    params = explicit_params(16, CrossoverPair(0.25, 0.25), "one", alpha1=0.125,
                             challenge_bits=8, commit_bits=4)
    rng = make_rng(7)
    c = BitVector.random(rng, params.commit_bits)
    return session_to_config(commit_phase(params, c, make_channel(0.25, 0.25), rng),
                             params)


@pytest.mark.parametrize("key,value,written", [
    ("beta1", 0.9, 0.5), ("rate", 7.0, 0.25), ("beta2", 0.3, None),
])
def test_explicit_transcript_with_a_conflicting_field_is_a_config_error(
        tmp_path, capsys, key, value, written):
    # explicit params write beta1 = l_G / n, rate = commit_bits / n and no beta2
    doc = _explicit_transcript()
    path = tmp_path / "session.json"
    path.write_text(json.dumps(doc))
    assert main(["replay", "--config", str(path)]) == EXIT_OK
    capsys.readouterr()
    doc["params"][key] = value
    path.write_text(json.dumps(doc))
    assert main(["replay", "--config", str(path)]) == EXIT_BAD_CONFIG
    assert (f"params.{key} = {value!r} conflicts with the params, which give {written!r}"
            in capsys.readouterr().err)


@pytest.mark.parametrize("coupling,r,message", [
    ("weird", None, "unknown coupling 'weird'"),
    ("independent", 0.5, "independent coupling takes no r parameter"),
    ("custom", 5.0, "r=5.0 outside Frechet bounds"),
    ("degraded", -1.0, "degraded coupling takes no r parameter"),
    # once replayed with exit 0, though a config refused the same params
    ("custom", None, "custom coupling requires r"),
], ids=["unknown", "independent-with-r", "custom-r-out-of-bounds", "degraded-with-r",
        "custom-without-r"])
def test_transcript_with_invalid_coupling_is_a_config_error(tmp_path, capsys, coupling,
                                                            r, message):
    doc = _transcript()
    doc["params"]["coupling"] = coupling
    if r is not None:
        doc["params"]["r"] = r
    path = tmp_path / "session.json"
    path.write_text(json.dumps(doc))
    assert main(["replay", "--config", str(path)]) == EXIT_BAD_CONFIG
    err = capsys.readouterr().err
    assert err.startswith("error: ") and message in err


def test_unknown_coupling_in_params_is_named(tmp_path, capsys):
    # the params are checked first, so the channel block is not blamed
    cfg = tmp_path / "weird.json"
    cfg.write_text(json.dumps(_soundness_doc(params=dict(_PARAMS, coupling="weird"),
                                             channel={"coupling": "independent"})))
    assert main(["soundness", "--config", str(cfg), "--threads", "1"]) == EXIT_BAD_CONFIG
    assert "unknown coupling 'weird'" in capsys.readouterr().err


@pytest.mark.parametrize("threads", ["0", "-1"])
def test_threads_below_one_rejected(soundness_config, capsys, threads):
    assert main(["soundness", "--config", str(soundness_config),
                 "--threads", threads]) == EXIT_BAD_CONFIG
    assert "--threads must be >= 1" in capsys.readouterr().err


def _threads_run(monkeypatch, tmp_path, config_threads, argv_tail=()):
    """The threads field of the config main runs, with 4 CPUs in the
    machine and 3 usable by the process."""
    doc = _soundness_doc()
    if config_threads is not None:
        doc["threads"] = config_threads
    cfg = tmp_path / "threads.json"
    cfg.write_text(json.dumps(doc))
    seen = []
    monkeypatch.setattr(os, "cpu_count", lambda: 4)
    monkeypatch.setattr(cli, "usable_cpus", lambda: 3)
    monkeypatch.setattr(cli, "run_experiment",
                        lambda config: seen.append(config.threads) or
                        harness.run_experiment(config))
    code = main(["soundness", "--config", str(cfg), *argv_tail])
    return code, seen


def test_config_threads_hold_without_the_flag(monkeypatch, tmp_path, capsys):
    assert _threads_run(monkeypatch, tmp_path, 1) == (EXIT_OK, [1])


def test_threads_flag_overrides_the_config(monkeypatch, tmp_path, capsys):
    assert _threads_run(monkeypatch, tmp_path, 1, ["--threads", "2"]) == (EXIT_OK, [2])


def test_threads_default_to_the_usable_cpus(monkeypatch, tmp_path, capsys):
    assert _threads_run(monkeypatch, tmp_path, None) == (EXIT_OK, [3])


def test_config_threads_below_one_rejected_without_the_flag(monkeypatch, tmp_path, capsys):
    # run_experiment validates the config before any trial runs
    def no_trials(*args, **kwargs):
        raise AssertionError("a trial ran before the threads were validated")

    monkeypatch.setattr(adversary, "map_trials", no_trials)
    assert _threads_run(monkeypatch, tmp_path, 0) == (EXIT_BAD_CONFIG, [0])
    assert "threads must be >= 1" in capsys.readouterr().err


def test_stdout_emission(soundness_config, capsys):
    assert main(["soundness", "--config", str(soundness_config),
                 "--threads", "1"]) == EXIT_OK
    out = capsys.readouterr().out
    assert out.startswith("# wiretap-commit-result")


def test_config_out_path_used_when_flag_absent(tmp_path):
    out = tmp_path / "from_config.csv"
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({
        "version": 1, "kind": "soundness", "seed": 1, "trials": 50,
        "out": str(out),
        "params": {"n": 200, "p": 0.1, "q": 0.1, "privacy": "one",
                   "alpha1": 0.05, "beta1": 0.05, "beta2": 0.1},
    }))
    assert main(["soundness", "--config", str(cfg), "--threads", "1"]) == EXIT_OK
    assert out.exists()


def _soundness_doc(**changes):
    doc = {
        "version": 1, "kind": "soundness", "seed": 3, "trials": 20,
        "params": {"n": 200, "p": 0.1, "q": 0.2, "privacy": "one",
                   "alpha1": 0.05, "beta1": 0.05, "beta2": 0.1},
    }
    doc.update(changes)
    return doc


def _without(block: dict, key: str) -> dict:
    return {k: v for k, v in block.items() if k != key}


_PARAMS = _soundness_doc()["params"]


@pytest.mark.parametrize("doc,message", [
    (_soundness_doc(seed=-1), "seed must be >= 0"),
    (_soundness_doc(params=_without(_PARAMS, "q")), "missing 'q'"),
    (_soundness_doc(params=dict(_PARAMS, p="0.1")), "params.p must be a number"),
    ([_soundness_doc()], "must be a JSON object"),
    (_soundness_doc(params=dict(_without(_PARAMS, "beta1"), achievable=False,
                                commit_bits=1)), "missing 'challenge_bits'"),
    (_soundness_doc(trials=10.5), "config.trials must be an integer"),
], ids=["negative-seed", "missing-q", "string-p", "top-level-array",
        "explicit-without-challenge-bits", "fractional-trials"])
def test_malformed_config_is_a_config_error(tmp_path, capsys, doc, message):
    cfg = tmp_path / "bad.json"
    cfg.write_text(json.dumps(doc))
    assert main(["soundness", "--config", str(cfg), "--threads", "1"]) == EXIT_BAD_CONFIG
    err = capsys.readouterr().err
    assert err.startswith("error: ") and message in err


def test_conflicting_channel_block_is_a_config_error(tmp_path, capsys):
    cfg = tmp_path / "conflict.json"
    cfg.write_text(json.dumps(_soundness_doc(
        channel={"p": 0.3, "coupling": "custom", "r": 0.05})))
    assert main(["soundness", "--config", str(cfg), "--threads", "1"]) == EXIT_BAD_CONFIG
    assert "conflicts with the params" in capsys.readouterr().err


def test_channel_block_may_repeat_the_channels_own_r(tmp_path, capsys):
    # p = 0.1, q = 0.2: the independent channel's r is 0.1 * 0.2, which the
    # params do not write, since they set no r of their own
    assert make_channel(0.1, 0.2).r == 0.020000000000000004
    outputs = []
    for name, changes in (("plain", {}),
                          ("repeated", {"channel": {"coupling": "independent",
                                                    "r": 0.020000000000000004}})):
        cfg = tmp_path / f"{name}.json"
        cfg.write_text(json.dumps(_soundness_doc(**changes)))
        assert main(["soundness", "--config", str(cfg), "--threads", "1"]) == EXIT_OK
        outputs.append(capsys.readouterr().out)
    assert outputs[0] == outputs[1]
    cfg = tmp_path / "other.json"
    cfg.write_text(json.dumps(_soundness_doc(channel={"coupling": "independent", "r": 0.03})))
    assert main(["soundness", "--config", str(cfg), "--threads", "1"]) == EXIT_BAD_CONFIG
    assert ("channel.r = 0.03 conflicts with the params, which give 0.020000000000000004"
            in capsys.readouterr().err)


def test_sweep_point_with_long_challenge_exits_before_any_trial(tmp_path, capsys,
                                                                monkeypatch):
    def no_trials(*args, **kwargs):
        raise AssertionError("map_trials ran before every sweep point was validated")

    monkeypatch.setattr(adversary, "map_trials", no_trials)
    inner = {"version": 1, "kind": "secrecy", "method": "monte-carlo",
             "params": {"n": 12, "p": 0.2, "q": 0.3, "privacy": "one",
                        "alpha1": 0.1, "achievable": False,
                        "challenge_bits": 1, "commit_bits": 1}}
    cfg = tmp_path / "sweep.json"
    cfg.write_text(json.dumps({
        "version": 1, "kind": "sweep", "seed": 3, "trials": 50,
        "sweep": {"variable": "params.challenge_bits", "values": [1, 13],
                  "experiment": inner},
    }))
    assert main(["sweep", "--config", str(cfg), "--threads", "1"]) == EXIT_BAD_CONFIG
    assert "challenge_bits = 13" in capsys.readouterr().err


@pytest.mark.parametrize("kind,fields,variable,values,message", [
    ("binding", {}, "params.n", [12, 21], "limited to n <= 20, got 21"),
    ("secrecy", {"method": "monte-carlo"}, "params.commit_bits", [1, 2],
     "defined for commit_bits == 1"),
], ids=["binding-beyond-enumeration", "monte-carlo-with-two-commit-bits"])
def test_sweep_point_beyond_scale_limit_exits_before_any_trial(
        tmp_path, capsys, monkeypatch, kind, fields, variable, values, message):
    # the first point is valid: only validate() can stop it from running
    def no_trials(*args, **kwargs):
        raise AssertionError("map_trials ran before every sweep point was validated")

    monkeypatch.setattr(adversary, "map_trials", no_trials)
    inner = {"version": 1, "kind": kind, **fields,
             "params": {"n": 12, "p": 0.2, "q": 0.3, "privacy": "one",
                        "alpha1": 0.1, "achievable": False,
                        "challenge_bits": 4, "commit_bits": 1}}
    cfg = tmp_path / "sweep.json"
    cfg.write_text(json.dumps({
        "version": 1, "kind": "sweep", "seed": 3, "trials": 50,
        "sweep": {"variable": variable, "values": values, "experiment": inner},
    }))
    assert main(["sweep", "--config", str(cfg), "--threads", "1"]) == EXIT_BAD_CONFIG
    assert message in capsys.readouterr().err


_SECRECY = {"version": 1, "kind": "secrecy", "method": "monte-carlo", "seed": 3,
            "params": {"n": 12, "p": 0.2, "q": 0.3, "privacy": "one",
                       "alpha1": 0.1, "achievable": False,
                       "challenge_bits": 2, "commit_bits": 1}}
_BINDING = {"version": 1, "kind": "binding", "seed": 3,
            "params": {"n": 12, "p": 0.25, "q": 0.25, "privacy": "one",
                       "alpha1": 0.125, "achievable": False,
                       "challenge_bits": 4, "commit_bits": 1}}


@pytest.mark.parametrize("command,doc", [
    ("soundness", _soundness_doc(trials=TRIAL_LIMIT + 1)),
    ("binding", dict(_BINDING, trials=TRIAL_LIMIT + 1)),
    ("secrecy", dict(_SECRECY, trials=TRIAL_LIMIT // 2 + 1)),  # two seeds per trial
    ("sweep", {"version": 1, "kind": "sweep", "seed": 3, "trials": 20,
               "sweep": {"variable": "trials", "values": [20, TRIAL_LIMIT + 1],
                         "experiment": _soundness_doc()}}),
], ids=["soundness", "binding", "secrecy", "sweep-point"])
def test_trial_count_beyond_the_seed_limit_exits_before_any_trial(
        tmp_path, capsys, monkeypatch, command, doc):
    def no_trials(*args, **kwargs):
        raise AssertionError("map_trials ran past the trial seed limit")

    monkeypatch.setattr(adversary, "map_trials", no_trials)
    cfg = tmp_path / "many.json"
    cfg.write_text(json.dumps(doc))
    assert main([command, "--config", str(cfg), "--threads", "2"]) == EXIT_BAD_CONFIG
    assert "trial seeds" in capsys.readouterr().err


@pytest.mark.parametrize("doc", [
    _soundness_doc(trials=TRIAL_LIMIT),
    dict(_BINDING, trials=TRIAL_LIMIT),
    dict(_SECRECY, trials=TRIAL_LIMIT // 2),
], ids=["soundness", "binding", "secrecy"])
def test_trial_count_at_the_seed_limit_validates(doc):
    ExperimentConfig.from_dict(doc).validate()


@pytest.mark.parametrize("command,doc", [
    ("soundness", _soundness_doc(params=dict(_PARAMS, n=10**12))),
    ("soundness", _soundness_doc(params=dict(_PARAMS, n=WORD_LIMIT // 2 + 1))),
    ("sweep", {"version": 1, "kind": "sweep", "seed": 3, "trials": 20,
               "sweep": {"variable": "params.n", "values": [200, WORD_LIMIT // 2 + 1],
                         "experiment": _soundness_doc()}}),
], ids=["soundness-terabytes", "soundness-one-past", "sweep-point"])
def test_soundness_beyond_the_word_limit_exits_before_any_trial(
        tmp_path, capsys, monkeypatch, command, doc):
    # n = 10^12 once asked numpy for 14.6 TiB of raw words and exited 1
    def no_trials(*args, **kwargs):
        raise AssertionError("map_trials ran past the word limit")

    monkeypatch.setattr(adversary, "map_trials", no_trials)
    cfg = tmp_path / "long.json"
    cfg.write_text(json.dumps(doc))
    assert main([command, "--config", str(cfg), "--threads", "2"]) == EXIT_BAD_CONFIG
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "2n raw words" in err


def test_soundness_at_the_word_limit_validates():
    ExperimentConfig.from_dict(_soundness_doc(params=dict(_PARAMS, n=WORD_LIMIT // 2))).validate()


_CONCEALMENT = {"version": 1, "kind": "concealment", "method": "exact", "seed": 3,
                "trials": 20,
                "params": {"n": 4, "p": 0.25, "q": 0.25, "privacy": "two",
                           "alpha1": 0.2, "achievable": False,
                           "challenge_bits": 1, "commit_bits": 1}}


@pytest.mark.parametrize("method", ["exact", "monte-carlo"])
@pytest.mark.parametrize("views,message", [
    (["bob", "bob"], "more than once"),
    (["eve", "joint", "eve"], "more than once"),
    ([], "at least one"),
    (["bob", "alice"], "unknown view 'alice'"),
], ids=["bob-twice", "eve-twice", "empty", "unknown"])
def test_views_must_name_distinct_known_views(tmp_path, capsys, monkeypatch,
                                              method, views, message):
    # a duplicate view once doubled the exact distance and repeated the
    # Monte Carlo rows; no estimate may start before the check
    def no_work(*args, **kwargs):
        raise AssertionError("an estimate ran before the views were validated")

    monkeypatch.setattr(adversary, "map_trials", no_work)
    monkeypatch.setattr(adversary, "_all_seed_tables", no_work)
    cfg = tmp_path / "views.json"
    cfg.write_text(json.dumps(dict(_CONCEALMENT, method=method, views=views)))
    assert main(["concealment", "--config", str(cfg), "--threads", "1"]) == EXIT_BAD_CONFIG
    err = capsys.readouterr().err
    assert err.startswith("error: ") and message in err


@pytest.mark.parametrize("n,lg,views", [
    (9, 4, ["bob", "eve"]), (10, 1, ["bob"]), (7, 3, ["joint"]), (8, 1, ["bob", "joint"]),
])
def test_exact_work_past_the_limit_exits_before_any_work(tmp_path, capsys, monkeypatch,
                                                         n, lg, views):
    # the first refused points of EXACT_WORK_LIMIT, each one step past an
    # accepted one
    def no_work(*args, **kwargs):
        raise AssertionError("the seed tables were built before the scale check")

    monkeypatch.setattr(adversary, "_all_seed_tables", no_work)
    cfg = tmp_path / "work.json"
    params = dict(_CONCEALMENT["params"], n=n, challenge_bits=lg, privacy="one")
    cfg.write_text(json.dumps(dict(_CONCEALMENT, views=views, params=params)))
    assert main(["concealment", "--config", str(cfg), "--threads", "1"]) == EXIT_BAD_CONFIG
    assert "multiply-adds; at most 2^29 are supported" in capsys.readouterr().err


def test_each_view_reported_once(tmp_path):
    out = tmp_path / "views.csv"
    cfg = tmp_path / "views.json"
    cfg.write_text(json.dumps(dict(_CONCEALMENT, views=["joint", "bob"])))
    assert main(["concealment", "--config", str(cfg), "--out", str(out)]) == EXIT_OK
    metrics = [row[0] for row in ResultTable.from_csv(out.read_text()).rows]
    assert sorted(metrics) == ["concealment_mi_bob", "concealment_mi_joint",
                               "concealment_sd_bob", "concealment_sd_joint"]


@pytest.mark.parametrize("command,doc,message", [
    ("secrecy", dict(_SECRECY, views=["bob", "bob", "nobody"]), "'views' applies only"),
    ("secrecy", dict(_SECRECY, views=["eve"]), "'views' applies only"),
    ("binding", dict(_BINDING, views=["bob"]), "'views' applies only"),
    ("soundness", _soundness_doc(mode="alone"), "'mode' applies only"),
    ("secrecy", dict(_SECRECY, mode="with_eve"), "'mode' applies only"),
    ("concealment", dict(_CONCEALMENT, mode="alone"), "'mode' applies only"),
    ("soundness", _soundness_doc(method="exact"), "'method' applies only"),
    ("binding", dict(_BINDING, method="monte-carlo"), "'method' applies only"),
    ("binding", dict(_BINDING, mode="bogus"), "unknown binding mode 'bogus'"),
], ids=["secrecy-views", "secrecy-eve-view", "binding-views", "soundness-mode",
        "secrecy-mode", "concealment-mode", "soundness-method", "binding-method",
        "binding-bogus-mode"])
def test_field_a_kind_does_not_read_is_a_config_error(tmp_path, capsys, monkeypatch,
                                                      command, doc, message):
    def no_work(*args, **kwargs):
        raise AssertionError("work started before the config was rejected")

    monkeypatch.setattr(adversary, "map_trials", no_work)
    monkeypatch.setattr(harness, "commit_phase", no_work)
    cfg = tmp_path / "unread.json"
    cfg.write_text(json.dumps(doc))
    assert main([command, "--config", str(cfg), "--threads", "1"]) == EXIT_BAD_CONFIG
    err = capsys.readouterr().err
    assert err.startswith("error: ") and message in err


def test_sweep_point_with_a_field_its_kind_does_not_read_is_a_config_error(tmp_path,
                                                                           capsys):
    cfg = tmp_path / "sweep.json"
    cfg.write_text(json.dumps({
        "version": 1, "kind": "sweep", "seed": 3, "trials": 20,
        "sweep": {"variable": "params.n", "values": [250, 500],
                  "experiment": _soundness_doc(views=["eve"])}}))
    assert main(["sweep", "--config", str(cfg), "--threads", "1"]) == EXIT_BAD_CONFIG
    assert "'views' applies only" in capsys.readouterr().err


def test_sweep_points_of_different_kinds_fail_before_any_point_runs(tmp_path, capsys,
                                                                    monkeypatch):
    # one table holds one kind's rows, so no point may run before that is checked
    def no_work(*args, **kwargs):
        raise AssertionError("a sweep point ran before the kinds were checked")

    monkeypatch.setattr(adversary, "map_trials", no_work)
    monkeypatch.setattr(harness, "run_capacity_grid", no_work)
    cfg = tmp_path / "sweep.json"
    cfg.write_text(json.dumps({
        "version": 1, "kind": "sweep", "seed": 3, "trials": 20,
        "sweep": {"variable": "kind", "values": ["soundness", "binding"],
                  "experiment": _soundness_doc()}}))
    assert main(["sweep", "--config", str(cfg), "--threads", "1"]) == EXIT_BAD_CONFIG
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "share one experiment kind" in err
    assert "'binding', 'soundness'" in err


_NAN = float("nan")


@pytest.mark.parametrize("command,doc,message", [
    ("soundness", _soundness_doc(params=dict(_PARAMS, alpha1=_NAN)),
     "params.alpha1 must be a finite number, got nan"),
    ("soundness", _soundness_doc(params=dict(_PARAMS, beta1=_NAN)),
     "params.beta1 must be a finite number, got nan"),
    ("soundness", _soundness_doc(params=dict(_PARAMS, beta2=_NAN)),
     "params.beta2 must be a finite number, got nan"),
    ("capacity", {**_grid_doc(4), "grid": dict(_grid_doc(4)["grid"], p_max=10 ** 400)},
     "grid.p_max must be a finite number"),
    ("binding", dict(_BINDING, params=dict(_BINDING["params"], n=0)),
     "n must be >= 1, got 0"),
    ("capacity", {**_grid_doc(4), "grid": dict(_grid_doc(4)["grid"], foo=1)},
     "unknown grid fields: ['foo']"),
    ("sweep", {"version": 1, "kind": "sweep", "seed": 3, "trials": 20,
               "sweep": {"variable": "params.p", "values": [0.1, 0.2],
                         "experiment": {"version": 1, "kind": "sweep", "sweep": {
                             "variable": "params.n", "values": [200],
                             "experiment": _soundness_doc()}}}},
     "config field 'params' applies only to kind"),
    ("soundness", _soundness_doc(params=dict(_PARAMS, alpha1=1e308)),
     "alpha1 must be <= 1, got 1e+308"),
    ("concealment", dict(_CONCEALMENT, trials=0), "trials must be >= 1"),
    ("soundness", _soundness_doc(params=dict(_PARAMS, commit_bits=5)),
     "params.commit_bits = 5 conflicts with the params"),
    ("soundness", _soundness_doc(params=dict(_PARAMS, n=10 ** 400)),
     "past the largest float"),
    ("binding", dict(_BINDING, params=dict(_BINDING["params"], challenge_bits=10 ** 400)),
     "must not exceed n = 12"),
    ("secrecy", dict(_SECRECY, params=dict(_SECRECY["params"], commit_bits=10 ** 400)),
     "must not exceed n = 12"),
    ("sweep", {"version": 1, "kind": "sweep", "seed": 3, "trials": 20,
               "sweep": {"variable": "params.n", "values": [200, 10 ** 400],
                         "experiment": _soundness_doc()}},
     "past the largest float"),
], ids=["nan-alpha1", "nan-beta1", "nan-beta2", "grid-bound-past-float",
        "explicit-n-zero", "unknown-grid-field", "nested-sweep-over-params",
        "alpha1-past-one", "exact-concealment-no-trials", "derived-commit-bits-written",
        "derived-n-past-every-float", "explicit-challenge-bits-huge",
        "explicit-commit-bits-huge", "sweep-n-past-every-float"])
def test_config_error_exits_before_any_work(tmp_path, capsys, monkeypatch, command,
                                            doc, message):
    # json.load reads NaN; once alpha1 = NaN ran with exit 0, the NaN betas and
    # n = 0 exited 1, and the grid and the nested sweep ignored the field;
    # alpha1 = 1e308 ran every trial, then exited 1 with an OverflowError, and
    # so did floor(n * R) and l / n on an integer 10**400, before any trial
    def no_work(*args, **kwargs):
        raise AssertionError("work started before the config was rejected")

    monkeypatch.setattr(adversary, "map_trials", no_work)
    monkeypatch.setattr(adversary, "_all_seed_tables", no_work)
    monkeypatch.setattr(harness, "run_capacity_grid", no_work)
    monkeypatch.setattr(harness, "commit_phase", no_work)
    cfg = tmp_path / "bad.json"
    cfg.write_text(json.dumps(doc))
    assert main([command, "--config", str(cfg), "--threads", "1"]) == EXIT_BAD_CONFIG
    err = capsys.readouterr().err
    assert err.startswith("error: ") and message in err


_DEMO_CONFIGS = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                             "demos", "configs")
_MUTANTS = (None, True, -1, 0, 1, 2 ** 70, 1e308, 0.5, "x", [], {})


def _field_paths(node, path=()):
    """The key path of every field of a JSON document, nested fields and
    list items included."""
    for key, value in (node.items() if isinstance(node, dict) else enumerate(node)):
        yield path + (key,)
        if isinstance(value, (dict, list)):
            yield from _field_paths(value, path + (key,))


@pytest.mark.parametrize("name", sorted(os.listdir(_DEMO_CONFIGS)) + ["transcript"])
def test_no_single_field_mutation_of_a_demo_config_is_an_internal_error(
        tmp_path, capsys, monkeypatch, name):
    # every field of each demo config, and of a transcript for replay, set
    # to each mutant in turn exits 0 or 2, never 1; a transcript's params
    # mutant exits 0 only where the params write back the block as written
    if name == "transcript":
        base, command = _transcript(), "replay"
    else:
        with open(os.path.join(_DEMO_CONFIGS, name)) as fh:
            base = json.load(fh)
        if "trials" in base:
            base["trials"] = min(base["trials"], 200)
        command = {v: k for k, v in KIND_BY_COMMAND.items()}[base["kind"]]
    monkeypatch.chdir(tmp_path)  # where an out field would write
    cfg = tmp_path / name
    failures, accepted = [], []
    for path in _field_paths(base):
        for value in _MUTANTS:
            doc = json.loads(json.dumps(base))
            node = doc
            for key in path[:-1]:
                node = node[key]
            node[path[-1]] = value
            cfg.write_text(json.dumps(doc))
            code = main([command, "--config", str(cfg), "--threads", "1"])
            err = capsys.readouterr().err
            if code not in (EXIT_OK, EXIT_BAD_CONFIG):
                failures.append((path, value, code, err))
            if name == "transcript" and path[0] == "params" and code == EXIT_OK:
                accepted.append((path[-1], value))
                block = {k: v for k, v in doc["params"].items() if v is not None}
                written = params_from_config(doc["params"]).to_config()
                assert block.items() <= written.items(), (path, value)
    assert not failures
    if name == "transcript":
        # a wider band, a field left to the params, or the default written
        assert sorted(accepted, key=repr) == sorted(
            [("alpha1", 1), ("alpha1", 0.5), ("rate", None), ("commit_bits", None),
             ("challenge_bits", None), ("achievable", True)], key=repr)


# each integer field a demo config reads, by key path; a path into a block
# the config lacks is skipped
_INTEGER_PATHS = (("seed",), ("trials",), ("threads",), ("params", "n"),
                  ("params", "challenge_bits"), ("params", "commit_bits"), ("grid", "steps"),
                  ("sweep", "values"), ("sweep", "experiment", "params", "n"))


@pytest.mark.parametrize("name", sorted(os.listdir(_DEMO_CONFIGS)))
def test_huge_integers_never_reach_an_internal_error(tmp_path, capsys, monkeypatch, name):
    # 10**400 is past every float and every limit; a sweep's values become
    # [10**400].  floor(n * R) and l / n once raised OverflowError on it
    with open(os.path.join(_DEMO_CONFIGS, name)) as fh:
        base = json.load(fh)
    if "trials" in base:
        base["trials"] = min(base["trials"], 50)
    command = {v: k for k, v in KIND_BY_COMMAND.items()}[base["kind"]]
    monkeypatch.setattr(parallel, "usable_cpus", lambda: 1)  # one worker however many threads
    cfg = tmp_path / name
    cases, failures = 0, []
    for path in _INTEGER_PATHS:
        doc = json.loads(json.dumps(base))
        node = doc
        for key in path[:-1]:
            node = node.get(key, {})
        if len(path) > 1 and path[-1] not in node:
            continue
        node[path[-1]] = [10 ** 400] if path[-1] == "values" else 10 ** 400
        cfg.write_text(json.dumps(doc))
        code = main([command, "--config", str(cfg)])
        err = capsys.readouterr().err
        cases += 1
        if code not in (EXIT_OK, EXIT_BAD_CONFIG) or "internal error" in err:
            failures.append((path, code, err))
    assert cases >= 4 and not failures


@pytest.mark.parametrize("doc", [
    dict(_BINDING, mode="alone"), dict(_BINDING, mode="with_eve"),
    dict(_CONCEALMENT, kind="secrecy"), dict(_CONCEALMENT, views=["eve"], method="exact"),
], ids=["binding-alone", "binding-with-eve", "secrecy-exact", "concealment-views"])
def test_fields_a_kind_reads_still_validate(doc):
    ExperimentConfig.from_dict(doc).validate()


def _no_experiment(config):
    raise AssertionError("the experiment ran before the output path was checked")


@pytest.mark.parametrize("target", ["missing-dir", "directory"])
@pytest.mark.parametrize("via", ["flag", "config"])
def test_bad_output_path_exits_before_any_work(tmp_path, capsys, monkeypatch, via,
                                               target):
    out = tmp_path / "missing" / "x.csv" if target == "missing-dir" else tmp_path
    doc, argv_tail = _soundness_doc(), []
    if via == "flag":
        argv_tail = ["--out", str(out)]
    else:
        doc["out"] = str(out)
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(doc))
    monkeypatch.setattr(cli, "run_experiment", _no_experiment)
    assert main(["soundness", "--config", str(cfg), "--threads", "1",
                 *argv_tail]) == EXIT_BAD_CONFIG
    err = capsys.readouterr().err
    assert err.startswith("error: ") and str(out) in err
    assert ("does not exist" if target == "missing-dir" else "is a directory") in err


def test_replay_to_a_missing_directory_exits_before_the_replay(tmp_path, capsys,
                                                               monkeypatch):
    path = tmp_path / "session.json"
    path.write_text("{}")
    monkeypatch.setattr(cli, "run_replay", _no_experiment)
    assert main(["replay", "--config", str(path),
                 "--out", str(tmp_path / "missing" / "r.csv")]) == EXIT_BAD_CONFIG
    assert "does not exist" in capsys.readouterr().err


def test_output_write_failure_names_the_path(tmp_path, capsys, monkeypatch):
    # the directory goes away while the experiment runs
    out_dir = tmp_path / "gone"
    out_dir.mkdir()
    out = out_dir / "x.csv"
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(_soundness_doc()))

    def run_then_remove(config):
        table = harness.run_experiment(config)
        out_dir.rmdir()
        return table

    monkeypatch.setattr(cli, "run_experiment", run_then_remove)
    assert main(["soundness", "--config", str(cfg), "--threads", "1",
                 "--out", str(out)]) == EXIT_BAD_CONFIG
    err = capsys.readouterr().err
    assert err.startswith("error: cannot write output") and str(out) in err


def _fresh_interpreter(*args):
    src = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    done = subprocess.run([sys.executable, *args], capture_output=True, env=env,
                          timeout=120, text=True)
    assert done.returncode == 0, done.stderr
    return done.stdout


def test_the_cached_parser_carries_nothing_between_calls(tmp_path, capsys):
    cfg = tmp_path / "soundness.json"
    cfg.write_text(json.dumps(_soundness_doc()))
    assert main(["soundness", "--config", str(cfg), "--seed", "5",
                 "--format", "json"]) == EXIT_OK
    capsys.readouterr()
    assert main(["soundness", "--config", str(cfg)]) == EXIT_OK
    assert capsys.readouterr().out == _fresh_interpreter(
        "-m", "wiretap_commit.cli", "soundness", "--config", str(cfg))


def test_a_bad_flag_reads_the_same_on_every_call(capsys):
    cli._parser.cache_clear()
    usage = []
    for _ in range(2):
        with pytest.raises(SystemExit) as exit_info:
            main(["soundness", "--config", "x.json", "--format", "xml"])
        assert exit_info.value.code == EXIT_BAD_CONFIG
        usage.append(capsys.readouterr().err)
    assert usage[0] == usage[1] and "invalid choice: 'xml'" in usage[0]


def test_build_parser_returns_a_new_parser():
    assert cli.build_parser() is not cli.build_parser()


def test_import_builds_no_parser():
    assert _fresh_interpreter(
        "-c", "import wiretap_commit.cli as c; print(c._parser.cache_info().currsize)",
    ) == "0\n"


# sha256 of the stdout of each demo config at --seed 9173 --format csv,
# recorded at 1 worker before the exact-concealment seed pass was
# rewritten; a second pinned seed beside the bench's seed 0
SEED_9173_SHA256 = {
    "binding.json": "d01075b4ea8f209cf1e1aab52b15f82bbfd12f07dbacff17313f7c04ec1fb720",
    "capacity.json": "3888bd350053e9c6aa95cccd03263554646ea84f597f0f0e898af3905f8d6d2d",
    "concealment_exact.json":
        "c198d0749e4a594114dee5373f4ab818f565acb11119c910dcd9230d9d8108bd",
    "secrecy_mc.json": "60764168daf103068c21f9a60d769db08adb424487059ab13d0b94f9b64fc9cc",
    "soundness.json": "eceddbb0b5a1fcfdf511153feb555feecca5c792cc5f13c22fb3847f64d2e2d3",
    "soundness_sweep.json":
        "6af454bcfdf65f0af22a8cd0200c55d75e2d9223ad17747af61cae578b0ca8da",
}


def test_every_demo_config_has_a_seed_9173_digest():
    assert sorted(os.listdir(_DEMO_CONFIGS)) == sorted(SEED_9173_SHA256)


@pytest.mark.parametrize("threads", ["1", "2"])
@pytest.mark.parametrize("name", sorted(SEED_9173_SHA256))
def test_demo_config_output_at_seed_9173_is_unchanged(capsys, name, threads):
    # one digest for both worker counts: results do not depend on them
    path = os.path.join(_DEMO_CONFIGS, name)
    with open(path) as fh:
        command = {v: k for k, v in KIND_BY_COMMAND.items()}[json.load(fh)["kind"]]
    assert main([command, "--config", path, "--seed", "9173", "--format", "csv",
                 "--threads", threads]) == EXIT_OK
    out = capsys.readouterr().out
    assert hashlib.sha256(out.encode()).hexdigest() == SEED_9173_SHA256[name]


@pytest.mark.parametrize("command,name,challenge_bits", [
    ("concealment", "concealment_exact.json", 1),
    ("concealment", "concealment_exact.json", 2),
    ("secrecy", "secrecy_mc.json", None),
    ("sweep", "soundness_sweep.json", None),
], ids=["concealment-lg1", "concealment-lg2", "secrecy", "sweep"])
def test_demo_outputs_do_not_depend_on_the_block_bytes(
        tmp_path, capsys, monkeypatch, command, name, challenge_bits):
    # per-seed sums are added in seed order and scan tiles keep the first
    # of equal keys, so stdout is the same at blocks of 1 KiB, the default
    # and 16 MiB, the forked workers included
    with open(os.path.join(_DEMO_CONFIGS, name)) as fh:
        doc = json.load(fh)
    if challenge_bits is not None:
        doc["params"]["challenge_bits"] = challenge_bits
    cfg = tmp_path / name
    cfg.write_text(json.dumps(doc))
    outputs = []
    for block_bytes in (1 << 10, adversary.BLOCK_BYTES, 1 << 24):
        monkeypatch.setattr(adversary, "BLOCK_BYTES", block_bytes)
        assert main([command, "--config", str(cfg), "--threads", "2"]) == EXIT_OK
        outputs.append(capsys.readouterr().out)
    assert outputs[0] and outputs.count(outputs[0]) == 3
