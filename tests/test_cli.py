"""Command-line behavior: determinism, seed override, error reporting."""

import json
import os

import pytest

from wiretap_commit import adversary, cli, harness
from wiretap_commit.adversary import TRIAL_LIMIT, WORD_LIMIT
from wiretap_commit.bits import BitVector
from wiretap_commit.channel import make_channel
from wiretap_commit.cli import EXIT_BAD_CONFIG, EXIT_OK, main
from wiretap_commit.harness import ExperimentConfig, ResultTable
from wiretap_commit.measures import CrossoverPair
from wiretap_commit.protocol import commit_phase, derive_params, session_to_config
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


def test_capacity_subcommand(tmp_path):
    cfg = tmp_path / "cap.json"
    cfg.write_text(json.dumps({
        "version": 1, "kind": "capacity-grid",
        "grid": {"p_min": 0.1, "p_max": 0.4, "q_min": 0.1, "q_max": 0.4,
                 "steps": 4},
    }))
    out = tmp_path / "cap.csv"
    assert main(["capacity", "--config", str(cfg), "--out", str(out)]) == EXIT_OK
    table = ResultTable.from_csv(out.read_text())
    assert len(table) == 16


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


@pytest.mark.parametrize("edit,message", [
    (lambda doc: doc["G"].pop("l"), "G is missing 'l'"),
    (lambda doc: doc["Ext"].update(seed="zz"), "not a hex string: 'zz'"),
    (lambda doc: doc.update(g_bar="zz"), "not a hex string: 'zz'"),
], ids=["missing-G-l", "non-hex-Ext-seed", "non-hex-g_bar"])
def test_malformed_transcript_is_a_config_error(tmp_path, capsys, edit, message):
    params = derive_params(200, CrossoverPair(0.1, 0.1), "one",
                           alpha1=0.1, beta1=0.05, beta2=0.1)
    rng = make_rng(8)
    c = BitVector.random(rng, params.commit_bits)
    doc = session_to_config(commit_phase(params, c, make_channel(0.1, 0.1), rng), params)
    edit(doc)
    path = tmp_path / "session.json"
    path.write_text(json.dumps(doc))
    assert main(["replay", "--config", str(path)]) == EXIT_BAD_CONFIG
    err = capsys.readouterr().err
    assert err.startswith("error: ") and message in err


@pytest.mark.parametrize("coupling,r,message", [
    ("weird", None, "unknown coupling 'weird'"),
    ("independent", 0.5, "independent coupling takes no r parameter"),
    ("custom", 5.0, "r=5.0 outside Frechet bounds"),
    ("degraded", -1.0, "degraded coupling takes no r parameter"),
], ids=["unknown", "independent-with-r", "custom-r-out-of-bounds", "degraded-with-r"])
def test_transcript_with_invalid_coupling_is_a_config_error(tmp_path, capsys, coupling,
                                                            r, message):
    params = derive_params(200, CrossoverPair(0.1, 0.1), "one",
                           alpha1=0.1, beta1=0.05, beta2=0.1)
    rng = make_rng(8)
    c = BitVector.random(rng, params.commit_bits)
    doc = session_to_config(commit_phase(params, c, make_channel(0.1, 0.1), rng), params)
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
    assert _threads_run(monkeypatch, tmp_path, 0) == (EXIT_BAD_CONFIG, [])
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


@pytest.mark.parametrize("doc", [
    dict(_BINDING, mode="alone"), dict(_BINDING, mode="with_eve"),
    dict(_CONCEALMENT, kind="secrecy"), dict(_CONCEALMENT, views=["eve"], method="exact"),
], ids=["binding-alone", "binding-with-eve", "secrecy-exact", "concealment-views"])
def test_fields_a_kind_reads_still_validate(doc):
    ExperimentConfig.from_dict(doc).validate()
