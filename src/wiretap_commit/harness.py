"""Experiment configuration, batch execution and result emission.

Configs are versioned JSON documents; every run is reproducible from
its config plus one integer seed, and the effective seed is recorded in
the output metadata.  Tables emit as CSV ('.' decimal, 12 significant
digits, no thousands separators) or JSON (full double precision);
parsing an emitted file reproduces the table.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .adversary import (
    GRID_LIMIT,
    SecurityReport,
    _check_binding_mode,
    _check_enum_scale,
    _check_trials,
    _check_views,
    _check_words,
    _exact_scale_check,
    _monte_carlo_scale_check,
    binding_attack,
    concealment_exact,
    concealment_monte_carlo,
    estimate_soundness,
    soundness_reports,
)
from .bits import BitVector
from .channel import make_channel
from .errors import ConfigError, ScaleError
from .measures import capacity_grid
from .protocol import (
    bob_test,
    commit_phase,
    config_field,
    params_from_config,
    session_from_config,
)
from .rng import make_rng

CONFIG_VERSION = 1
EXPERIMENT_KINDS = (
    "capacity-grid", "soundness", "binding", "concealment", "secrecy", "sweep",
)

# config fields that only some experiment kinds read
KIND_FIELDS = {
    "views": ("concealment",),
    "mode": ("binding",),
    "method": ("concealment", "secrecy"),
}

REPORT_COLUMNS = (
    "metric", "estimate", "ci_lo", "ci_hi", "reference_bound",
    "n", "p", "q", "coupling", "seed",
)


class ResultTable:
    """Fixed-schema rows plus run metadata."""

    def __init__(self, columns, rows=None, metadata=None):
        self.columns = list(columns)
        self.rows = [list(r) for r in (rows or [])]
        self.metadata = dict(metadata or {})

    def append(self, row):
        if isinstance(row, dict):
            row = [row.get(c) for c in self.columns]
        if len(row) != len(self.columns):
            raise ConfigError(
                f"row width {len(row)} != schema width {len(self.columns)}"
            )
        self.rows.append(list(row))

    def __eq__(self, other):
        return (
            isinstance(other, ResultTable)
            and self.columns == other.columns
            and self.rows == other.rows
            and self.metadata == other.metadata
        )

    def __len__(self):
        return len(self.rows)

    # -- serialization ------------------------------------------------

    @staticmethod
    def _format_cell(v) -> str:
        if type(v) is float:  # most cells, so tested first
            return f"{v:.12g}"
        if v is None:
            return ""
        if isinstance(v, bool):
            return "true" if v else "false"
        if isinstance(v, (int, np.integer)):
            return str(int(v))
        if isinstance(v, (float, np.floating)):
            return f"{float(v):.12g}"
        return str(v)

    @staticmethod
    def _parse_cell(s: str):
        if s == "":
            return None
        if s == "true":
            return True
        if s == "false":
            return False
        if "." in s:  # int() takes no ".", so only float() can parse it
            try:
                return float(s)
            except ValueError:
                return s
        try:
            return int(s)
        except ValueError:
            pass
        try:
            return float(s)
        except ValueError:
            return s

    def to_csv(self) -> str:
        cell = self._format_cell
        meta = " ".join(f"{k}={cell(v)}" for k, v in sorted(self.metadata.items()))
        lines = [f"# wiretap-commit-result {meta}", ",".join(self.columns)]
        lines += [",".join([cell(v) for v in row]) for row in self.rows]
        return "\n".join(lines) + "\n"

    @classmethod
    def from_csv(cls, text: str) -> "ResultTable":
        lines = [ln for ln in text.splitlines() if ln.strip()]
        metadata = {}
        if lines and lines[0].startswith("#"):
            header = lines.pop(0).lstrip("#").strip()
            if header.startswith("wiretap-commit-result"):
                for tok in header.split()[1:]:
                    k, _, v = tok.partition("=")
                    metadata[k] = cls._parse_cell(v)
        if not lines:
            raise ConfigError("empty CSV result")
        columns = lines[0].split(",")
        rows = [[cls._parse_cell(c) for c in ln.split(",")] for ln in lines[1:]]
        return cls(columns, rows, metadata)

    def to_json(self) -> str:
        def clean(v):
            if isinstance(v, (np.integer,)):
                return int(v)
            if isinstance(v, (np.floating,)):
                return float(v)
            return v

        doc = {
            "version": CONFIG_VERSION,
            "metadata": {k: clean(v) for k, v in self.metadata.items()},
            "columns": self.columns,
            "rows": [[clean(v) for v in row] for row in self.rows],
        }
        return json.dumps(doc, indent=2, sort_keys=True) + "\n"

    @classmethod
    def from_json(cls, text: str) -> "ResultTable":
        doc = json.loads(text)
        return cls(doc["columns"], doc["rows"], doc.get("metadata", {}))

    def render(self, fmt: str) -> str:
        if fmt == "csv":
            return self.to_csv()
        if fmt == "json":
            return self.to_json()
        raise ConfigError(f"unknown format {fmt!r}; expected csv or json")


@dataclass
class ExperimentConfig:
    """Validated experiment description.

    The constructor only stores fields; validate() builds the params
    and channel objects, which run every module-level precondition, so
    invalid configs fail before any simulation work starts.
    """

    kind: str
    seed: int = 0
    trials: int = 1000
    threads: int = 1
    fmt: str = "csv"
    out: Optional[str] = None
    params: Optional[dict] = None
    channel: Optional[dict] = None
    grid: Optional[dict] = None
    mode: str = "alone"
    method: str = "exact"
    views: tuple = ("bob", "eve", "joint")
    sweep: Optional[dict] = None

    @classmethod
    def from_dict(cls, doc: dict) -> "ExperimentConfig":
        if not isinstance(doc, dict):
            raise ConfigError("config must be a JSON object")
        version = doc.get("version")
        if version != CONFIG_VERSION:
            raise ConfigError(f"unsupported config version {version!r}")
        kind = doc.get("kind")
        if kind not in EXPERIMENT_KINDS:
            raise ConfigError(f"unknown experiment kind {kind!r}")
        known = {
            "version", "kind", "seed", "trials", "threads", "format", "out",
            "params", "channel", "grid", "mode", "method", "views", "sweep",
        }
        unknown = set(doc) - known
        if unknown:
            raise ConfigError(f"unknown config fields: {sorted(unknown)}")
        for key, kinds in KIND_FIELDS.items():
            if key in doc and kind not in kinds:
                raise ConfigError(f"config field {key!r} applies only to kind "
                                  f"{' or '.join(map(repr, kinds))}, not {kind!r}")

        def field(key, kind, default):
            return config_field(doc, key, kind, "config", default)

        return cls(
            kind=kind,
            seed=field("seed", int, 0),
            trials=field("trials", int, 1000),
            threads=field("threads", int, 1),
            fmt=field("format", str, "csv"),
            out=field("out", str, None),
            params=field("params", dict, None),
            channel=field("channel", dict, None),
            grid=field("grid", dict, None),
            mode=field("mode", str, "alone"),
            method=field("method", str, "exact"),
            views=tuple(field("views", list, ["bob", "eve", "joint"])),
            sweep=field("sweep", dict, None),
        )

    def build_params(self):
        if self.params is None:
            raise ConfigError(f"experiment kind {self.kind!r} requires a params block")
        return params_from_config(self.params)

    def build_channel(self, params):
        """The channel the params describe.

        The params carry the whole channel (p, q, coupling, r).  A
        channel block may repeat any of those fields, but a field that
        differs from the params, or any other field, raises ConfigError.
        """
        own = {"p": params.pq.p, "q": params.pq.q,
               "coupling": params.coupling, "r": params.coupling_r}
        for key, value in (self.channel or {}).items():
            if key not in own:
                raise ConfigError(f"unknown channel field {key!r}; expected one of "
                                  f"{sorted(own)}")
            if value != own[key]:
                raise ConfigError(f"channel.{key} = {value!r} conflicts with the "
                                  f"params, which give {own[key]!r}")
        return make_channel(params.pq.p, params.pq.q, params.coupling,
                            r=params.coupling_r)

    def validate(self):
        """Run all parameter preconditions without simulating."""
        if self.fmt not in ("csv", "json"):
            raise ConfigError(f"unknown format {self.fmt!r}")
        if self.threads < 1:
            raise ConfigError(f"threads must be >= 1, got {self.threads}")
        if self.seed < 0:
            raise ConfigError(f"seed must be >= 0, got {self.seed}")
        if self.kind == "capacity-grid":
            _grid_axes(self.grid)
        elif self.kind == "sweep":
            if not self.sweep or "experiment" not in self.sweep:
                raise ConfigError("sweep requires a sweep block with an inner experiment")
            points = _sweep_points(self)[1]
            kinds = sorted({sub.kind for _, sub in points})
            if len(kinds) > 1:
                raise ConfigError(f"sweep points must share one experiment kind, "
                                  f"got {kinds}")
            for _, sub in points:
                sub.validate()
        else:
            if self.trials < 1:
                raise ConfigError("trials must be >= 1")
            params = self.build_params()
            self.build_channel(params)
            if self.kind in ("soundness", "binding"):
                _check_trials(self.trials)
            if self.kind == "soundness":
                _check_words(params.n)
            if self.kind == "binding":
                _check_enum_scale(params.n)
                _check_binding_mode(self.mode)
            if self.kind == "concealment":
                _check_views(self.views)
            if self.kind in ("concealment", "secrecy"):
                views = ("eve",) if self.kind == "secrecy" else tuple(self.views)
                if self.method == "exact":
                    _exact_scale_check(params, views)
                elif self.method == "monte-carlo":
                    _monte_carlo_scale_check(params, self.trials)
                else:
                    raise ConfigError(f"unknown method {self.method!r}")
        return self


def _grid_axes(grid):
    if not grid:
        raise ConfigError("capacity-grid requires a grid block")
    p_lo, p_hi, q_lo, q_hi = (config_field(grid, key, float, "grid")
                              for key in ("p_min", "p_max", "q_min", "q_max"))
    steps = config_field(grid, "steps", int, "grid")
    for v in (p_lo, p_hi, q_lo, q_hi):
        if not 0.0 < v < 0.5:
            raise ConfigError(f"grid bounds must lie inside (0, 1/2), got {v}")
    if steps < 1:
        raise ConfigError("grid steps must be >= 1")
    if steps > GRID_LIMIT:
        raise ScaleError(f"grid steps limited to {GRID_LIMIT} per axis, got {steps}")
    if p_hi < p_lo or q_hi < q_lo:
        raise ConfigError("grid bounds out of order")
    ps = np.linspace(p_lo, p_hi, steps)
    qs = np.linspace(q_lo, q_hi, steps)
    return ps, qs


SWEEP_FIELDS = ("variable", "values", "experiment")


def _sweep_spec(sweep):
    unknown = sorted(set(sweep) - set(SWEEP_FIELDS))
    if unknown:
        raise ConfigError(f"unknown sweep fields: {unknown}; expected {list(SWEEP_FIELDS)}")
    variable = sweep.get("variable")
    values = sweep.get("values")
    inner = sweep.get("experiment")
    if not variable or not isinstance(variable, str):
        raise ConfigError("sweep.variable must be a dotted field path")
    if not isinstance(values, list) or not values:
        raise ConfigError(f"sweep.values must be a non-empty list, got {values!r}")
    if not isinstance(inner, dict):
        raise ConfigError("sweep.experiment must be a config object")
    return variable, values, inner


def run_capacity_grid(p_range, q_range, steps: int) -> ResultTable:
    """Capacity formulas and converse bounds on a (p, q) grid.

    rate_bound_2 is evaluated on the independent coupling; theta is the
    crossover of Eve's degrading channel when Bob's channel is degraded
    with respect to Eve's (p >= q), empty otherwise.  The cells come
    from measures.capacity_grid as arrays, which equal the scalar closed
    forms cell by cell and bit for bit.  They take every logarithm with
    math.log2, one value at a time: np.log2 differs from it in the last
    bit on about 0.2 % of inputs, and the table would then no longer
    equal the per-point formulas.
    """
    ps, qs = _grid_axes({
        "p_min": p_range[0], "p_max": p_range[1],
        "q_min": q_range[0], "q_max": q_range[1], "steps": steps,
    })
    cells = {name: values.ravel().tolist() for name, values in capacity_grid(ps, qs).items()}
    cells["theta"] = [theta if degraded else None
                      for theta, degraded in zip(cells["theta"], cells["bob_degraded"])]
    return ResultTable(list(cells), rows=zip(*cells.values()),
                       metadata={"kind": "capacity-grid"})


def _report_rows(table: ResultTable, reports):
    if isinstance(reports, SecurityReport):
        reports = [reports]
    elif isinstance(reports, dict):
        reports = [reports[k] for k in sorted(reports)]
    for rep in reports:
        table.append(rep.to_record())


def run_experiment(config: ExperimentConfig) -> ResultTable:
    """Dispatch one validated experiment and return its table."""
    config.validate()
    kind = config.kind
    meta = {"kind": kind, "seed": config.seed, "trials": config.trials}

    if kind == "capacity-grid":
        g = config.grid
        table = run_capacity_grid((g["p_min"], g["p_max"]),
                                  (g["q_min"], g["q_max"]), int(g["steps"]))
        table.metadata = {"kind": kind}
        return table

    if kind == "sweep":
        return _run_sweep(config)

    params = config.build_params()
    channel = config.build_channel(params)

    if kind == "soundness":
        table = ResultTable(REPORT_COLUMNS, metadata=meta)
        _report_rows(table, estimate_soundness(
            params, channel, config.trials, config.seed, threads=config.threads))
        return table

    if kind == "binding":
        # the commit session gets its own seed root so its stream never
        # collides with the per-trial redraw streams spawned from seed
        commit_rng = make_rng(np.random.SeedSequence([config.seed, 0x5E5510]))
        c = BitVector.random(commit_rng, params.commit_bits)
        session = commit_phase(params, c, channel, commit_rng)
        report = binding_attack(session, params, channel, mode=config.mode,
                                trials=config.trials, seed=config.seed,
                                threads=config.threads)
        table = ResultTable(REPORT_COLUMNS, metadata={**meta, "mode": config.mode})
        _report_rows(table, report)
        return table

    if kind in ("concealment", "secrecy"):
        views = ("eve",) if kind == "secrecy" else tuple(config.views)
        table = ResultTable(REPORT_COLUMNS, metadata={**meta, "method": config.method})
        if config.method == "exact":
            _report_rows(table, concealment_exact(params, channel, views=views))
        elif config.method == "monte-carlo":
            reports = [
                concealment_monte_carlo(params, channel, config.trials,
                                        config.seed, view=v,
                                        threads=config.threads)
                for v in views
            ]
            _report_rows(table, reports)
        return table

    raise ConfigError(f"unhandled experiment kind {kind!r}")


def _set_dotted(doc: dict, path: str, value):
    keys = path.split(".")
    node = doc
    for k in keys[:-1]:
        node = node.setdefault(k, {})
        if not isinstance(node, dict):
            raise ConfigError(f"sweep.variable {path!r} runs through a non-object field")
    node[keys[-1]] = value


def _sweep_points(config: ExperimentConfig):
    """The sweep variable and one (value, inner config) pair per point."""
    variable, values, inner = _sweep_spec(config.sweep)
    points = []
    for v in values:
        doc = json.loads(json.dumps(inner))  # deep copy
        doc.setdefault("version", CONFIG_VERSION)
        doc.setdefault("seed", config.seed)
        doc.setdefault("trials", config.trials)
        doc.setdefault("threads", config.threads)
        _set_dotted(doc, variable, v)
        points.append((v, ExperimentConfig.from_dict(doc)))
    return variable, points


def _run_sweep(config: ExperimentConfig) -> ResultTable:
    """One row block per point, in point order.

    Soundness points that share a seed run as one soundness_reports
    call, which draws each trial's channel words once for all of them;
    every other point runs on its own.
    """
    variable, points = _sweep_points(config)
    groups = {}
    for i, (_, sub) in enumerate(points):
        if sub.kind == "soundness":
            groups.setdefault(sub.seed, []).append((i, sub))
    tables = {}
    for seed, members in groups.items():
        specs = []
        for _, sub in members:
            params = sub.build_params()
            specs.append((params, sub.build_channel(params), sub.trials))
        threads = max(sub.threads for _, sub in members)
        for (i, _), report in zip(members, soundness_reports(specs, seed, threads)):
            tables[i] = ResultTable(REPORT_COLUMNS)
            _report_rows(tables[i], report)
    table = None
    for i, (v, sub) in enumerate(points):
        sub_table = tables[i] if i in tables else run_experiment(sub)
        if table is None:
            table = ResultTable(
                [variable] + sub_table.columns,
                metadata={"kind": "sweep", "seed": config.seed,
                          "variable": variable,
                          "inner_kind": sub.kind},
            )
        for row in sub_table.rows:
            table.append([v] + row)
    return table


def run_replay(session_doc: dict) -> ResultTable:
    """Re-execute a serialized transcript through Bob's reveal test."""
    loaded = session_from_config(session_doc)
    if "bob_view" not in loaded:
        raise ConfigError("replay needs the y field in the session document")
    if "claim" not in loaded:
        raise ConfigError("replay needs the x and c fields in the session document")
    params = loaded["params"]
    result = bob_test(loaded["bob_view"], loaded["transcript"],
                      loaded["claim"], params)
    table = ResultTable(
        ["metric", "accepted", "failed_condition", "n", "p", "q"],
        metadata={"kind": "replay"},
    )
    table.append(["replay_bob_test", result.accepted, result.failed_condition,
                  params.n, params.pq.p, params.pq.q])
    return table
