"""Experiment configuration, batch execution and result emission.

Configs are versioned JSON documents; every run is reproducible from
its config plus one integer seed, and the effective seed is recorded in
the output metadata.  Tables emit as CSV ('.' decimal, 12 significant
digits, no thousands separators) or JSON (full double precision).
Parsing JSON reproduces the table exactly; CSV's 12 digits make only
its text a fixpoint (parsed and emitted again, it reads the same).
"""

from __future__ import annotations

import json
from types import SimpleNamespace

import numpy as np

from .adversary import (
    GRID_LIMIT,
    REPORT_COLUMNS,
    SecurityReport,
    _binding_check,
    _concealment_check,
    _soundness_check,
    binding_attack,
    concealment_exact,
    concealment_monte_carlo,
    estimate_soundness,
    soundness_reports,
)
from .bits import BitVector
from .config import REQUIRED, agree, read_block
from .errors import ConfigError, ScaleError
from .measures import capacity_grid
from .protocol import bob_test, commit_phase, params_from_config, session_from_config
from .rng import make_rng

CONFIG_VERSION = 1
# each experiment kind, keyed by the CLI subcommand that runs it
KIND_BY_COMMAND = {
    "capacity": "capacity-grid", "soundness": "soundness", "binding": "binding",
    "concealment": "concealment", "secrecy": "secrecy", "sweep": "sweep",
}
_ESTIMATES = ("soundness", "binding", "concealment", "secrecy")

# the config schema, one row per field: JSON key (the ExperimentConfig
# attribute), JSON type, default, and the kinds that read it (None: every
# kind); a field that the config's kind never reads is refused
CONFIG_FIELDS = (
    ("version", int, REQUIRED, None),
    ("kind", str, REQUIRED, None),
    ("seed", int, 0, None),
    ("trials", int, 1000, None),
    ("threads", int, 1, None),
    ("format", str, "csv", None),
    ("out", str, None, None),
    ("params", dict, None, _ESTIMATES),
    ("channel", dict, None, _ESTIMATES),
    ("grid", dict, None, ("capacity-grid",)),
    ("views", list, ("bob", "eve", "joint"), ("concealment",)),
    ("mode", str, "alone", ("binding",)),
    ("method", str, "exact", ("concealment", "secrecy")),
    ("sweep", dict, None, ("sweep",)),
)
# a channel block repeats fields of the params, which describe the channel
CHANNEL_FIELDS = (("p", float, None), ("q", float, None), ("coupling", str, None),
                  ("r", float, None))
GRID_FIELDS = (("p_min", float, REQUIRED), ("p_max", float, REQUIRED),
               ("q_min", float, REQUIRED), ("q_max", float, REQUIRED),
               ("steps", int, REQUIRED))
SWEEP_FIELDS = (("variable", str, REQUIRED), ("values", list, REQUIRED),
                ("experiment", dict, REQUIRED))


class ResultTable:
    """Fixed-schema rows plus run metadata."""

    def __init__(self, columns, rows=None, metadata=None):
        self.columns = list(columns)
        self.rows = []
        self.metadata = dict(metadata or {})
        for row in rows or ():
            self.append(row)

    def append(self, row):
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


class ExperimentConfig(SimpleNamespace):
    """A config document read against CONFIG_FIELDS: one attribute per
    field of the table (config.kind, config.trials, ...).

    from_dict only reads the fields (config.read_block) and checks the
    version, the kind and the kinds that read each field; validate()
    checks every precondition of the run, building the params (and with
    them params.channel), which run every module-level check, so invalid
    configs fail before any simulation work starts.
    """

    @classmethod
    def from_dict(cls, doc: dict) -> "ExperimentConfig":
        config = cls(**read_block(doc, "config", CONFIG_FIELDS))
        if config.version != CONFIG_VERSION:
            raise ConfigError(f"unsupported config version {config.version!r}")
        if config.kind not in KIND_BY_COMMAND.values():
            raise ConfigError(f"unknown experiment kind {config.kind!r}")
        for key, _, _, kinds in CONFIG_FIELDS:
            if kinds is not None and key in doc and config.kind not in kinds:
                raise ConfigError(f"config field {key!r} applies only to kind "
                                  f"{' or '.join(map(repr, kinds))}, not {config.kind!r}")
        return config

    def build_params(self):
        return params_from_config(self.params)

    def build_channel(self, params):
        """The channel the params describe, params.channel.

        The params carry the whole channel (p, q, coupling, r).  A
        channel block (CHANNEL_FIELDS) may repeat any of that channel's
        fields, r = p q of an independent channel included, but a field
        that differs from it raises ConfigError (config.agree).
        """
        channel = params.channel
        agree(read_block(self.channel or {}, "channel", CHANNEL_FIELDS), "channel",
              {key: getattr(channel, key) for key, *_ in CHANNEL_FIELDS})
        return channel

    def validate(self):
        """Run all parameter preconditions without simulating."""
        self._plan()
        return self

    def _plan(self):
        """Check every precondition and build what the run needs, once.

        An estimate's plan is its params, a capacity grid's the checked
        run_capacity_grid arguments, and a sweep's its variable and one
        (value, config, plan) triple per point.  A sweep builds every
        point's config, checks that all share one kind, and only then
        plans each point.
        """
        if self.format not in ("csv", "json"):
            raise ConfigError(f"unknown format {self.format!r}")
        if self.threads < 1:
            raise ConfigError(f"threads must be >= 1, got {self.threads}")
        if self.seed < 0:
            raise ConfigError(f"seed must be >= 0, got {self.seed}")
        if self.kind == "capacity-grid":
            return _grid_spec(self.grid)
        if self.kind == "sweep":
            variable, values, inner = _sweep_spec(self.sweep)
            points = [(v, ExperimentConfig.from_dict(self._point_doc(inner, variable, v)))
                      for v in values]
            kinds = sorted({sub.kind for _, sub in points})
            if len(kinds) > 1:
                raise ConfigError(f"sweep points must share one experiment kind, "
                                  f"got {kinds}")
            return variable, [(v, sub, sub._plan()) for v, sub in points]
        params = self.build_params()
        self.build_channel(params)  # the channel block against params.channel
        # the estimator's own checks, which it runs again on entry
        if self.kind == "soundness":
            _soundness_check(params, self.trials)
        elif self.kind == "binding":
            _binding_check(params, self.mode, self.trials)
        else:
            _concealment_check(params, self._views(), self.method, self.trials)
        return params

    def _views(self):
        return ("eve",) if self.kind == "secrecy" else tuple(self.views)

    def _point_doc(self, inner, variable, value):
        """The config document of the sweep point where variable = value."""
        doc = json.loads(json.dumps(inner))  # deep copy
        doc.setdefault("version", CONFIG_VERSION)
        doc.setdefault("seed", self.seed)
        doc.setdefault("trials", self.trials)
        doc.setdefault("threads", self.threads)
        keys = variable.split(".")
        node = doc
        for k in keys[:-1]:
            node = node.setdefault(k, {})
            if not isinstance(node, dict):
                raise ConfigError(f"sweep.variable {variable!r} runs through a "
                                  f"non-object field")
        node[keys[-1]] = value
        return doc


def _grid_spec(grid):
    """The checked (p_range, q_range, steps) of a grid block (GRID_FIELDS)."""
    p_lo, p_hi, q_lo, q_hi, steps = read_block(grid, "grid", GRID_FIELDS).values()
    for v in (p_lo, p_hi, q_lo, q_hi):
        if not 0.0 < v < 0.5:
            raise ConfigError(f"grid bounds must lie inside (0, 1/2), got {v}")
    if steps < 1:
        raise ConfigError("grid steps must be >= 1")
    if steps > GRID_LIMIT:
        raise ScaleError(f"grid steps limited to {GRID_LIMIT} per axis, got {steps}")
    if p_hi < p_lo or q_hi < q_lo:
        raise ConfigError("grid bounds out of order")
    return (p_lo, p_hi), (q_lo, q_hi), steps


def _sweep_spec(sweep):
    """The (variable, values, inner config) of a sweep block (SWEEP_FIELDS).

    Each value fills one CSV cell of the sweep's table, so a list, an
    object, or a string holding a comma or a line break is refused, and
    so is a string that its cell reads back as another value."""
    variable, values, inner = read_block(sweep, "sweep", SWEEP_FIELDS).values()
    if not values:
        raise ConfigError(f"sweep.values must be a non-empty list, got {values!r}")
    for v in values:
        # splitlines drops every line break that from_csv splits at
        if isinstance(v, (list, dict)) or (isinstance(v, str) and (
                "," in v or "".join(v.splitlines()) != v
                or ResultTable._parse_cell(v) != v)):
            raise ConfigError(f"sweep value {v!r} does not fit one CSV cell: a sweep "
                              f"value is a number, true, false, null or a string that "
                              f"reads back from CSV as itself (no comma or line break)")
    return variable, values, inner


def run_capacity_grid(p_range, q_range, steps: int) -> ResultTable:
    """Capacity formulas and converse bounds on a (p, q) grid.

    rate_bound_2 is evaluated on the independent coupling; theta is the
    crossover of Eve's degrading channel when Bob's channel is degraded
    with respect to Eve's (p >= q), empty otherwise.  The cells come
    from measures.capacity_grid as arrays, which equal the scalar closed
    forms cell by cell and bit for bit.
    """
    (p_lo, p_hi), (q_lo, q_hi), steps = _grid_spec({
        "p_min": p_range[0], "p_max": p_range[1],
        "q_min": q_range[0], "q_max": q_range[1], "steps": steps,
    })
    ps, qs = np.linspace(p_lo, p_hi, steps), np.linspace(q_lo, q_hi, steps)
    cells = {name: values.ravel().tolist() for name, values in capacity_grid(ps, qs).items()}
    cells["theta"] = [theta if degraded else None
                      for theta, degraded in zip(cells["theta"], cells["bob_degraded"])]
    return ResultTable(list(cells), rows=zip(*cells.values()),
                       metadata={"kind": "capacity-grid"})


def _report_table(reports, metadata=None) -> ResultTable:
    """One REPORT_COLUMNS row per report; a dict of reports in key order."""
    if isinstance(reports, SecurityReport):
        reports = [reports]
    elif isinstance(reports, dict):
        reports = [reports[k] for k in sorted(reports)]
    return ResultTable(REPORT_COLUMNS, [list(rep.to_record().values()) for rep in reports],
                       metadata)


def run_experiment(config: ExperimentConfig) -> ResultTable:
    """Check and build the experiment once, then run it and return its table."""
    return _run(config, config._plan())


def _run(config: ExperimentConfig, plan) -> ResultTable:
    """The table of one experiment from its plan (ExperimentConfig._plan)."""
    kind = config.kind
    if kind == "capacity-grid":
        return run_capacity_grid(*plan)
    if kind == "sweep":
        return _run_sweep(config, *plan)

    params = plan
    meta = {"kind": kind, "seed": config.seed, "trials": config.trials}
    if kind == "soundness":
        reports = estimate_soundness(params, config.trials, config.seed,
                                     threads=config.threads)
    elif kind == "binding":
        # the commit session gets its own seed root so its stream never
        # collides with the per-trial redraw streams spawned from seed
        commit_rng = make_rng(np.random.SeedSequence([config.seed, 0x5E5510]))
        c = BitVector.random(commit_rng, params.commit_bits)
        session = commit_phase(params, c, params.channel, commit_rng)
        reports = binding_attack(session, params, mode=config.mode,
                                 trials=config.trials, seed=config.seed,
                                 threads=config.threads)
        meta["mode"] = config.mode
    else:
        meta["method"] = config.method
        if config.method == "exact":
            reports = concealment_exact(params, views=config._views())
        else:
            reports = [concealment_monte_carlo(params, config.trials, config.seed,
                                               view=v, threads=config.threads)
                       for v in config._views()]
    return _report_table(reports, meta)


def _run_sweep(config: ExperimentConfig, variable, points) -> ResultTable:
    """One row block per planned point, in point order.

    Soundness points that share a seed run as one soundness_reports
    call, which draws each trial's channel words once for all of them;
    every other point runs on its own.
    """
    groups = {}
    for i, (_, sub, plan) in enumerate(points):
        if sub.kind == "soundness":
            groups.setdefault(sub.seed, []).append((i, sub, plan))
    tables = {}
    for seed, members in groups.items():
        specs = [(plan, sub.trials) for _, sub, plan in members]
        threads = max(sub.threads for _, sub, _ in members)
        for (i, _, _), report in zip(members, soundness_reports(specs, seed, threads)):
            tables[i] = _report_table(report)
    tables = [tables[i] if i in tables else _run(sub, plan)
              for i, (_, sub, plan) in enumerate(points)]
    rows = [[v] + row for (v, _, _), table in zip(points, tables) for row in table.rows]
    return ResultTable([variable] + tables[0].columns, rows,
                       metadata={"kind": "sweep", "seed": config.seed,
                                 "variable": variable, "inner_kind": points[0][1].kind})


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
