"""Command-line behavior: determinism, seed override, error reporting."""

import json

import pytest

from wiretap_commit import adversary
from wiretap_commit.bits import BitVector
from wiretap_commit.channel import make_channel
from wiretap_commit.cli import EXIT_BAD_CONFIG, EXIT_OK, main
from wiretap_commit.harness import ResultTable
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


def test_threads_do_not_change_output(soundness_config, tmp_path):
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


@pytest.mark.parametrize("threads", ["0", "-1"])
def test_threads_below_one_rejected(soundness_config, capsys, threads):
    assert main(["soundness", "--config", str(soundness_config),
                 "--threads", threads]) == EXIT_BAD_CONFIG
    assert "--threads must be >= 1" in capsys.readouterr().err


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


@pytest.mark.parametrize("kind,method,variable,values,message", [
    ("binding", "exact", "params.n", [12, 21], "limited to n <= 20, got 21"),
    ("secrecy", "monte-carlo", "params.commit_bits", [1, 2],
     "defined for commit_bits == 1"),
], ids=["binding-beyond-enumeration", "monte-carlo-with-two-commit-bits"])
def test_sweep_point_beyond_scale_limit_exits_before_any_trial(
        tmp_path, capsys, monkeypatch, kind, method, variable, values, message):
    # the first point is valid: only validate() can stop it from running
    def no_trials(*args, **kwargs):
        raise AssertionError("map_trials ran before every sweep point was validated")

    monkeypatch.setattr(adversary, "map_trials", no_trials)
    inner = {"version": 1, "kind": kind, "method": method,
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
