"""Experiment dispatch, result-table round trips, and config validation."""

import importlib
import json
import math
import os
import pkgutil

import numpy as np
import pytest

import csv_reference
import wiretap_commit
from wiretap_commit import adversary, harness
from wiretap_commit.channel import degradation_check, make_channel
from wiretap_commit.cli import EXIT_BAD_CONFIG, main
from wiretap_commit.errors import ConfigError, DimensionError, RateError
from wiretap_commit.hashing import sample_hash
from wiretap_commit.harness import (
    ExperimentConfig,
    ResultTable,
    run_capacity_grid,
    run_experiment,
    run_replay,
)
from wiretap_commit.measures import (
    CrossoverPair,
    binary_entropy,
    capacity_one_private,
    capacity_two_private,
    rate_bound_one_private,
    rate_bound_two_private,
)
from wiretap_commit.protocol import commit_phase, derive_params, session_to_config
from wiretap_commit.rng import make_rng
from wiretap_commit.bits import BitVector

CONFIGS = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                       "demos", "configs")


def soundness_doc(**overrides):
    doc = {
        "version": 1,
        "kind": "soundness",
        "seed": 17,
        "trials": 200,
        "params": {
            "n": 400, "p": 0.1, "q": 0.1, "privacy": "one",
            "alpha1": 0.04, "beta1": 0.05, "beta2": 0.1,
        },
        "channel": {"coupling": "independent"},
    }
    doc.update(overrides)
    return doc


def _secrecy_sweep_doc():
    """A secrecy sweep at n = 12 whose second point asks for l_G = 13."""
    return {
        "version": 1, "kind": "sweep", "seed": 3, "trials": 50,
        "sweep": {
            "variable": "params.challenge_bits", "values": [1, 13],
            "experiment": {
                "version": 1, "kind": "secrecy", "method": "monte-carlo",
                "params": {"n": 12, "p": 0.2, "q": 0.3, "privacy": "one",
                           "alpha1": 0.1, "achievable": False,
                           "challenge_bits": 1, "commit_bits": 1},
            },
        },
    }


class TestCapacityGrid:
    def test_single_point_matches_measures(self):
        table = run_capacity_grid((0.1, 0.1), (0.2, 0.2), 1)
        assert len(table) == 1
        row = dict(zip(table.columns, table.rows[0]))
        pq = CrossoverPair(0.1, 0.2)
        assert row["capacity_1"] == pytest.approx(capacity_one_private(pq), abs=1e-14)
        assert row["capacity_2"] == pytest.approx(capacity_two_private(pq), abs=1e-14)
        rb = rate_bound_two_private(make_channel(0.1, 0.2))
        assert row["rate_bound_2"] == pytest.approx(rb, abs=1e-12)
        assert row["bob_degraded"] is False and row["theta"] is None

    def test_diagonal(self):
        table = run_capacity_grid((0.05, 0.45), (0.05, 0.45), 5)
        cols = table.columns
        for row in table.rows:
            d = dict(zip(cols, row))
            if d["p"] == d["q"]:
                assert d["capacity_1"] == pytest.approx(
                    binary_entropy(d["p"]), abs=1e-12)
                assert d["bob_degraded"] is True and d["theta"] == pytest.approx(0.0)

    def test_grid_shape_and_entropy_monotonicity(self):
        steps = 8
        table = run_capacity_grid((0.05, 0.45), (0.05, 0.45), steps)
        assert len(table) == steps * steps
        cols = table.columns
        # along each p-column (fixed q), H(p) increases with p on (0, 1/2)
        by_q = {}
        for row in table.rows:
            d = dict(zip(cols, row))
            by_q.setdefault(d["q"], []).append((d["p"], binary_entropy(d["p"])))
        for _, entries in by_q.items():
            hs = [h for _, h in sorted(entries)]
            assert all(a < b for a, b in zip(hs, hs[1:]))
        # capacity ordering everywhere
        for row in table.rows:
            d = dict(zip(cols, row))
            assert d["capacity_2"] <= d["capacity_1"] + 1e-12

    def test_range_error(self):
        with pytest.raises(ConfigError):
            run_capacity_grid((0.0, 0.4), (0.1, 0.4), 3)

    @pytest.mark.parametrize("p_range,q_range,steps", [
        ((0.05, 0.45), (0.05, 0.45), 20),  # demos/configs/capacity.json
        ((0.05, 0.45), (0.05, 0.45), 1),
        ((0.05, 0.45), (0.05, 0.45), 2),
        ((0.05, 0.45), (0.1, 0.3), 37),
        ((0.02, 0.48), (0.03, 0.47), 97),
        ((0.2, 0.2), (0.1, 0.4), 7),
        ((0.001, 0.499), (0.001, 0.499), 37),
    ], ids=["demo", "steps-1", "steps-2", "steps-37", "steps-97", "p-min-is-p-max",
            "bounds-0.001-0.499"])
    def test_every_cell_equals_the_scalar_closed_forms(self, p_range, q_range, steps):
        # the array forms must not move a single bit, so == and not approx
        table = run_capacity_grid(p_range, q_range, steps)
        assert len(table) == steps * steps
        for row in table.rows:
            p, q = row[0], row[1]
            pq = CrossoverPair(p, q)
            theta = degradation_check(p, q)
            assert row == [
                p, q, capacity_one_private(pq), capacity_two_private(pq),
                rate_bound_one_private(pq),
                rate_bound_two_private(make_channel(p, q, "independent")),
                theta is not None, theta,
            ]
            assert [type(v) for v in row] == [
                float, float, float, float, float, float, bool, type(theta)]


# a list-valued sweep cell split at its comma: 12 fields under 11 columns
_SPLIT_CELL_CSV = (
    "# wiretap-commit-result inner_kind=concealment kind=sweep seed=0 variable=views\n"
    "views,metric,estimate,ci_lo,ci_hi,reference_bound,n,p,q,coupling,seed\n"
    "['bob'],concealment_sd_bob,0.5206,,,1,4,0.2,0.3,independent,\n"
    "['bob', 'eve'],concealment_sd_bob,0.5206,,,1,4,0.2,0.3,independent,\n"
)


class TestResultTable:
    def make_table(self):
        t = ResultTable(["a", "b", "c", "d"], metadata={"kind": "demo", "seed": 3})
        t.append([1, 0.12345678901234567, "text", None])
        t.append([-2, 3.0, "true-ish", True])
        return t

    def test_csv_fixpoint(self):
        t = self.make_table()
        text = t.to_csv()
        again = ResultTable.from_csv(text)
        assert again.to_csv() == text
        assert again.metadata["seed"] == 3

    def test_csv_formatting(self):
        t = self.make_table()
        lines = t.to_csv().splitlines()
        assert lines[1] == "a,b,c,d"
        assert "0.123456789012" in lines[2]  # 12 significant digits
        assert lines[2].endswith(",")        # None encodes as empty

    def test_json_exact_roundtrip(self):
        t = self.make_table()
        assert ResultTable.from_json(t.to_json()) == t

    @pytest.mark.parametrize("build", [
        lambda: ResultTable(["a", "b"]).append([1, 2, 3]),
        lambda: ResultTable(["a", "b"], [[1, 2], [1]]),
        lambda: ResultTable.from_csv(_SPLIT_CELL_CSV),
    ], ids=["append", "constructor", "from-csv"])
    def test_row_width_checked(self, build):
        with pytest.raises(ConfigError, match="row width"):
            build()


def _typed(v):
    # repr tells -0.0 from 0.0, and nan equals itself
    return type(v), repr(v)


_CELL_TEXTS = [
    "", "true", "false", "0", "-3", "+4", " 7 ", "1_000", "١٢", "²", "1.5", "1.",
    ".5", "-0.0", "1e5", "1E-3", "nan", "inf", "-Infinity", "1_0.5", "a.b",
    "params.n", "independent", "0x10", "1.2.3",
]

_CELL_VALUES = [
    None, True, False, np.bool_(True), np.bool_(False), 0, -3, 2 ** 70,
    np.int64(-5), np.uint8(200), 0.1, 1 / 3, -0.0, math.nan, math.inf, -math.inf,
    1e-300, np.float64(2 / 3), np.float32(0.1), "independent",
]


@pytest.mark.parametrize("text", _CELL_TEXTS)
def test_cell_parser_matches_the_reference(text):
    assert _typed(ResultTable._parse_cell(text)) == _typed(csv_reference.parse_cell(text))


@pytest.mark.parametrize("value", _CELL_VALUES, ids=repr)
def test_cell_formatter_matches_the_reference(value):
    assert ResultTable._format_cell(value) == csv_reference.format_cell(value)


def test_codec_matches_the_reference_on_every_demo_config(tmp_path):
    command = {kind: cmd for cmd, kind in harness.KIND_BY_COMMAND.items()}
    for name in sorted(os.listdir(CONFIGS)):
        with open(os.path.join(CONFIGS, name), encoding="utf-8") as fh:
            kind = json.load(fh)["kind"]
        out = tmp_path / f"{name}.csv"
        assert main([command[kind], "--config", os.path.join(CONFIGS, name),
                     "--threads", "1", "--format", "csv", "--out", str(out)]) == 0
        text = out.read_text(encoding="utf-8")
        table = ResultTable.from_csv(text)
        reference = csv_reference.from_csv(text)
        assert table == reference, name
        assert [[_typed(v) for v in row] for row in table.rows] == \
            [[_typed(v) for v in row] for row in reference.rows], name
        assert table.to_csv() == csv_reference.to_csv(table) == text, name


class TestExperimentConfig:
    def test_version_required(self):
        with pytest.raises(ConfigError):
            ExperimentConfig.from_dict(soundness_doc(version=2))
        with pytest.raises(ConfigError):
            ExperimentConfig.from_dict({k: v for k, v in soundness_doc().items()
                                        if k != "version"})

    def test_unknown_kind(self):
        with pytest.raises(ConfigError):
            ExperimentConfig.from_dict(soundness_doc(kind="entropy-party"))

    def test_unknown_fields_rejected(self):
        with pytest.raises(ConfigError):
            ExperimentConfig.from_dict(soundness_doc(typo_field=1))

    @pytest.mark.parametrize("threads", [0, -1])
    def test_threads_below_one_rejected(self, threads):
        config = ExperimentConfig.from_dict(soundness_doc(threads=threads))
        with pytest.raises(ConfigError):
            config.validate()

    @pytest.mark.parametrize("channel", [
        {"p": 0.3},
        {"q": 0.2},
        {"coupling": "custom", "r": 0.05},
        {"r": 0.01},
        {"theta": 0.1},
    ])
    def test_conflicting_channel_block_rejected(self, channel):
        config = ExperimentConfig.from_dict(soundness_doc(channel=channel))
        with pytest.raises(ConfigError):
            config.validate()

    @pytest.mark.parametrize("channel,coupling", [
        (None, {}),
        ({"coupling": "independent"}, {}),
        ({"p": 0.1, "q": 0.1, "coupling": "independent"}, {}),
        ({"coupling": "custom", "r": 0.05}, {"coupling": "custom", "r": 0.05}),
    ])
    def test_agreeing_channel_block_accepted(self, channel, coupling):
        doc = soundness_doc(channel=channel)
        doc["params"].update(coupling)
        config = ExperimentConfig.from_dict(doc).validate()
        built = config.build_channel(config.build_params())
        assert (built.p, built.q) == (0.1, 0.1)
        assert built.coupling == coupling.get("coupling", "independent")
        assert built.r == pytest.approx(coupling.get("r", 0.01), abs=1e-15)

    def test_sweep_points_validated_before_work(self):
        inner = soundness_doc(channel={"p": 0.1})
        config = ExperimentConfig.from_dict({
            "version": 1, "kind": "sweep", "trials": 10 ** 9,
            "sweep": {"variable": "params.p", "values": [0.1, 0.2],
                      "experiment": inner},
        })
        with pytest.raises(ConfigError, match="conflicts"):
            config.validate()  # the second point conflicts; nothing has run

    def test_sweep_challenge_longer_than_block_rejected(self):
        config = ExperimentConfig.from_dict(_secrecy_sweep_doc())
        with pytest.raises(DimensionError, match="challenge_bits = 13"):
            config.validate()  # point 2 has l_G = 13 > n = 12; nothing has run

    def test_sweep_variable_through_a_value_rejected(self):
        config = ExperimentConfig.from_dict({
            "version": 1, "kind": "sweep",
            "sweep": {"variable": "params.n.bits", "values": [4],
                      "experiment": soundness_doc()},
        })
        with pytest.raises(ConfigError, match="non-object"):
            config.validate()

    @pytest.mark.parametrize("change,message", [
        ({"extra": 1}, "unknown sweep fields: ['extra']"),
        ({"values": "abc"}, "sweep.values must be a non-empty list, got 'abc'"),
        ({"values": {"200": 1}}, "sweep.values must be a non-empty list"),
        ({"values": 200}, "sweep.values must be a non-empty list, got 200"),
        ({"values": []}, "sweep.values must be a non-empty list"),
        # values that would split their CSV cell
        ({"variable": "views", "values": [["bob"], ["bob", "eve"]],
          "experiment": {"version": 1, "kind": "concealment", "method": "exact",
                         "params": {"n": 4, "p": 0.2, "q": 0.3, "privacy": "one",
                                    "alpha1": 0.1, "achievable": False,
                                    "challenge_bits": 1, "commit_bits": 1}}},
         "sweep value ['bob'] does not fit one CSV cell"),
        ({"variable": "params", "values": [soundness_doc()["params"]]},
         "sweep value {'n': 400, "),
        ({"variable": "out", "values": ["a,b.csv"]},
         "sweep value 'a,b.csv' does not fit one CSV cell"),
        ({"variable": "out", "values": ["a\u2028b.csv"]},
         "does not fit one CSV cell"),  # splitlines splits at U+2028
        # strings that from_csv reads back as True, 1000.0, None, 7, nan, inf
        *(({"variable": "out", "values": [v]}, f"sweep value {v!r} does not fit one CSV cell")
          for v in ("true", "1e3", "", "007", "nan", "inf")),
    ], ids=["unknown-field", "string", "object", "number", "empty",
            "list-value", "object-value", "comma-value", "line-break-value",
            "true-text-value", "exponent-text-value", "empty-text-value",
            "leading-zero-text-value", "nan-text-value", "inf-text-value"])
    def test_sweep_block_checked(self, tmp_path, capsys, change, message):
        doc = {"version": 1, "kind": "sweep",
               "sweep": {"variable": "params.n", "values": [200, 400],
                         "experiment": soundness_doc(), **change}}
        with pytest.raises(ConfigError) as raised:
            ExperimentConfig.from_dict(doc).validate()
        assert message in str(raised.value)
        path = tmp_path / "sweep.json"
        path.write_text(json.dumps(doc))
        assert main(["sweep", "--config", str(path), "--threads", "1"]) == EXIT_BAD_CONFIG
        assert message in capsys.readouterr().err

    def test_validation_runs_module_preconditions(self):
        bad = soundness_doc()
        bad["params"]["beta2"] = binary_entropy(0.1)  # rate collapses to 0
        with pytest.raises(RateError):
            ExperimentConfig.from_dict(bad).validate()

    def test_validation_happens_before_work(self, monkeypatch):
        def no_trials(*args, **kwargs):
            raise AssertionError("validate() ran a trial")

        monkeypatch.setattr(adversary, "map_trials", no_trials)
        doc = soundness_doc(trials=adversary.TRIAL_LIMIT)  # absurd, but validate() is cheap
        ExperimentConfig.from_dict(doc).validate()


class TestRunExperiment:
    def test_soundness_row(self):
        table = run_experiment(ExperimentConfig.from_dict(soundness_doc()))
        assert len(table) == 1
        row = dict(zip(table.columns, table.rows[0]))
        assert row["metric"] == "soundness_rejection_rate"
        assert row["reference_bound"] == pytest.approx(
            2 * math.exp(-2 * 400 * 0.04 ** 2), rel=1e-9)
        assert row["seed"] == 17

    def test_deterministic_output(self):
        t1 = run_experiment(ExperimentConfig.from_dict(soundness_doc()))
        t2 = run_experiment(ExperimentConfig.from_dict(soundness_doc()))
        assert t1.to_csv() == t2.to_csv()
        assert t1.to_json() == t2.to_json()

    def test_binding_experiment(self):
        doc = {
            "version": 1, "kind": "binding", "seed": 5, "trials": 50,
            "params": {
                "n": 12, "p": 0.25, "q": 0.25, "privacy": "one",
                "alpha1": 0.25, "achievable": False,
                "challenge_bits": 4, "commit_bits": 2,
            },
        }
        table = run_experiment(ExperimentConfig.from_dict(doc))
        row = dict(zip(table.columns, table.rows[0]))
        assert row["metric"] == "binding_success_alone"
        assert 0.0 <= row["estimate"] <= 1.0

    def test_concealment_exact_experiment(self):
        doc = {
            "version": 1, "kind": "concealment", "seed": 0, "method": "exact",
            "params": {
                "n": 4, "p": 0.25, "q": 0.25, "privacy": "one",
                "alpha1": 0.2, "achievable": False,
                "challenge_bits": 1, "commit_bits": 1,
            },
            "views": ["bob", "eve"],
        }
        table = run_experiment(ExperimentConfig.from_dict(doc))
        metrics = {dict(zip(table.columns, r))["metric"] for r in table.rows}
        assert metrics == {"concealment_sd_bob", "concealment_mi_bob",
                           "concealment_sd_eve", "concealment_mi_eve"}

    def test_secrecy_is_eve_only(self):
        doc = {
            "version": 1, "kind": "secrecy", "seed": 0, "method": "exact",
            "params": {
                "n": 4, "p": 0.2, "q": 0.3, "privacy": "one",
                "alpha1": 0.2, "achievable": False,
                "challenge_bits": 1, "commit_bits": 1,
            },
        }
        table = run_experiment(ExperimentConfig.from_dict(doc))
        metrics = {dict(zip(table.columns, r))["metric"] for r in table.rows}
        assert metrics == {"concealment_sd_eve", "concealment_mi_eve"}

    def test_sweep_one_row_per_value(self):
        doc = {
            "version": 1, "kind": "sweep", "seed": 9, "trials": 100,
            "sweep": {
                "variable": "params.n",
                "values": [200, 400, 800],
                "experiment": soundness_doc(),
            },
        }
        table = run_experiment(ExperimentConfig.from_dict(doc))
        assert len(table) == 3
        assert table.columns[0] == "params.n"
        swept = [row[0] for row in table.rows]
        assert swept == [200, 400, 800]
        ns = [dict(zip(table.columns[1:], row[1:]))["n"] for row in table.rows]
        assert ns == [200, 400, 800]


class TestReplay:
    def make_doc(self):
        params = derive_params(200, CrossoverPair(0.1, 0.1), "one",
                               alpha1=0.08, beta1=0.05, beta2=0.1)
        channel = make_channel(0.1, 0.1)
        rng = make_rng(3)
        c = BitVector.random(rng, params.commit_bits)
        session = commit_phase(params, c, channel, rng)
        return session_to_config(session, params)

    def test_honest_replay(self):
        doc = json.loads(json.dumps(self.make_doc()))
        table = run_replay(doc)
        row = dict(zip(table.columns, table.rows[0]))
        # honest claims fail only the band condition, if anything
        assert row["accepted"] or row["failed_condition"] == 1

    def test_tampered_pad_detected(self):
        doc = self.make_doc()
        pad = bytearray.fromhex(doc["Q"])
        pad[0] ^= 0x80
        doc["Q"] = pad.hex()
        table = run_replay(doc)
        row = dict(zip(table.columns, table.rows[0]))
        assert not row["accepted"] and row["failed_condition"] == 3

    def test_missing_y_rejected(self):
        doc = self.make_doc()
        del doc["y"]
        with pytest.raises(ConfigError):
            run_replay(doc)

    @pytest.mark.parametrize("field", ["params.beta1", "G.n", "G.l", "Ext.n", "Ext.l"])
    def test_hash_dimensions_checked_against_params(self, field, tmp_path):
        # the honest session has n=200, challenge_bits=10 and a commit_bits
        # of its own; each edit breaks exactly one of the three equalities
        doc = self.make_doc()
        rng = make_rng(4)
        l_ext = doc["Ext"]["l"]
        if field == "params.beta1":
            doc["params"]["beta1"] = 0.02  # challenge_bits 10 -> 4, G.l stays 10
        else:
            name, dim = field.split(".")
            n, l = (200, 10) if name == "G" else (200, l_ext)
            n, l = (n - 1, l) if dim == "n" else (n, l - 1)
            doc[name] = sample_hash(rng, n, l).to_config()
        with pytest.raises(ConfigError):
            run_replay(doc)
        path = tmp_path / "session.json"
        path.write_text(json.dumps(doc))
        assert main(["replay", "--config", str(path)]) == EXIT_BAD_CONFIG


def _point_by_point(doc) -> str:
    """A sweep's CSV as a loop of one run_experiment call per point."""
    sweep = doc["sweep"]
    *path, last = sweep["variable"].split(".")
    table = None
    for value in sweep["values"]:
        inner = json.loads(json.dumps(sweep["experiment"]))
        for key in ("seed", "trials", "threads"):
            inner.setdefault(key, doc[key])
        node = inner
        for key in path:
            node = node[key]
        node[last] = value
        point = run_experiment(ExperimentConfig.from_dict(inner))
        if table is None:
            table = ResultTable([sweep["variable"]] + point.columns,
                                metadata={"kind": "sweep", "seed": doc["seed"],
                                          "variable": sweep["variable"],
                                          "inner_kind": inner["kind"]})
        for row in point.rows:
            table.append([value] + row)
    return table.to_csv()


def _counting_map_trials(monkeypatch) -> list:
    calls = []
    original = adversary.map_trials

    def counted(*args, **kwargs):
        calls.append(len(args[2]))
        return original(*args, **kwargs)

    monkeypatch.setattr(adversary, "map_trials", counted)
    return calls


_SWEEP_INNER = {key: value for key, value in soundness_doc().items()
                if key not in ("seed", "trials")}
_SWEEP_INNER["params"] = dict(_SWEEP_INNER["params"], n=300)


@pytest.mark.parametrize("threads", [1, 2])
@pytest.mark.parametrize("variable,values", [
    ("params.n", [250, 60, 1000, 250, 20]),
    ("params.p", [0.05, 0.3, 0.1, 0.45]),
    ("params.alpha1", [0.01, 0.08, 0.04]),
    ("trials", [120, 1, 300, 17]),
    ("seed", [0, 9173, 2**64 - 1, 0]),
])
def test_soundness_sweep_equals_its_points_run_one_by_one(tmp_path, capsys, monkeypatch,
                                                          fork_small_calls, variable, values,
                                                          threads):
    doc = {"version": 1, "kind": "sweep", "seed": 5, "trials": 150, "threads": threads,
           "sweep": {"variable": variable, "values": values, "experiment": _SWEEP_INNER}}
    expected = _point_by_point(doc)
    path = tmp_path / "sweep.json"
    path.write_text(json.dumps(doc))
    calls = _counting_map_trials(monkeypatch)
    assert main(["sweep", "--config", str(path), "--threads", str(threads)]) == 0
    assert capsys.readouterr().out == expected
    # one draw per seed, as long as the longest point at that seed
    seeds = values if variable == "seed" else [doc["seed"]]
    assert len(calls) == len(set(seeds))
    assert calls == [max(values) if variable == "trials" else doc["trials"]] * len(calls)


def test_soundness_sweep_demo_draws_once(capsys, monkeypatch):
    config = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                          "demos", "configs", "soundness_sweep.json")
    calls = _counting_map_trials(monkeypatch)
    assert main(["sweep", "--config", config, "--threads", "1"]) == 0
    assert calls == [4000]  # four points, one call of 4000 trials
    assert len(capsys.readouterr().out.splitlines()) == 6


def _inner_sweep(variable, values, experiment):
    return {"version": 1, "kind": "sweep",
            "sweep": {"variable": variable, "values": values, "experiment": experiment}}


_GRID = {"version": 1, "kind": "capacity-grid",
         "grid": {"p_min": 0.05, "p_max": 0.45, "q_min": 0.1, "q_max": 0.3, "steps": 4}}
_SECRECY_MC = {"version": 1, "kind": "secrecy", "method": "monte-carlo",
               "params": {"n": 8, "p": 0.2, "q": 0.3, "privacy": "one", "alpha1": 0.1,
                          "achievable": False, "challenge_bits": 1, "commit_bits": 1}}


@pytest.mark.parametrize("variable,values,experiment", [
    ("grid.steps", [1, 3, 2], _GRID),
    ("grid.p_max", [0.05, 0.2], _GRID),
    ("trials", [40, 1, 90], _inner_sweep("params.n", [250, 60], _SWEEP_INNER)),
    ("trials", [30, 60], _inner_sweep("params.challenge_bits", [2, 1], _SECRECY_MC)),
], ids=["grid-steps", "grid-bound", "nested-soundness", "nested-secrecy"])
def test_sweep_equals_its_points_run_one_by_one(tmp_path, capsys, variable, values,
                                                experiment):
    doc = {"version": 1, "kind": "sweep", "seed": 5, "trials": 150, "threads": 1,
           "sweep": {"variable": variable, "values": values, "experiment": experiment}}
    expected = _point_by_point(doc)
    path = tmp_path / "sweep.json"
    path.write_text(json.dumps(doc))
    assert main(["sweep", "--config", str(path), "--threads", "1"]) == 0
    assert capsys.readouterr().out == expected


def _counting_params(monkeypatch) -> list:
    calls = []
    original = harness.params_from_config

    def counted(block):
        calls.append(block["n"])
        return original(block)

    monkeypatch.setattr(harness, "params_from_config", counted)
    return calls


def _demo(name):
    with open(os.path.join(CONFIGS, name), encoding="utf-8") as fh:
        return json.load(fh)


@pytest.mark.parametrize("doc,ns", [
    (_demo("soundness_sweep.json"), [250, 500, 1000, 2000]),
    (_inner_sweep("params.challenge_bits", [1, 2], _demo("concealment_exact.json")), [6, 6]),
], ids=["soundness-demo", "exact-concealment"])
def test_each_sweep_point_is_built_once(tmp_path, monkeypatch, doc, ns):
    calls = _counting_params(monkeypatch)
    path = tmp_path / "sweep.json"
    path.write_text(json.dumps(doc))
    assert main(["sweep", "--config", str(path), "--threads", "1"]) == 0
    assert calls == ns


def test_a_planned_estimate_builds_its_channel_once(monkeypatch):
    # the params build their channel and build_channel returns it; the
    # harness once built a second one of its own
    calls = []
    original = make_channel

    def counted(*args, **kwargs):
        calls.append(args)
        return original(*args, **kwargs)

    modules = [wiretap_commit] + [importlib.import_module(f"wiretap_commit.{info.name}")
                                  for info in pkgutil.iter_modules(wiretap_commit.__path__)]
    for module in modules:
        if hasattr(module, "make_channel"):
            monkeypatch.setattr(module, "make_channel", counted)
    ExperimentConfig.from_dict(_demo("soundness.json")).validate()
    assert calls == [(0.1, 0.2, "independent", None)]
