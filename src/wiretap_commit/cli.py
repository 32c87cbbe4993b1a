"""Command-line front end.

Every subcommand reads a versioned JSON config (--config), runs the
experiment deterministically, and writes one CSV or JSON table.  A
--seed flag overrides the config seed; the effective seed is recorded
in the output metadata.  A --threads flag overrides the config's
threads, which default to the CPUs this process may use.  There are
deliberately no environment-variable overrides: a run is fully
described by its config file and flags.
"""

from __future__ import annotations

import argparse
import json
import sys

from .errors import ConfigError, WiretapCommitError
from .harness import CONFIG_VERSION, ExperimentConfig, run_experiment, run_replay
from .parallel import usable_cpus

EXIT_OK = 0
EXIT_FAILURE = 1
EXIT_BAD_CONFIG = 2

SUBCOMMANDS = (
    "capacity", "soundness", "binding", "concealment", "secrecy", "sweep", "replay",
)

_KIND_BY_COMMAND = {
    "capacity": "capacity-grid",
    "soundness": "soundness",
    "binding": "binding",
    "concealment": "concealment",
    "secrecy": "secrecy",
    "sweep": "sweep",
}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="wiretap-commit",
        description="Commitment over binary symmetric broadcast wiretap "
                    "channels: capacity tables and protocol security estimates.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name in SUBCOMMANDS:
        sp = sub.add_parser(name, help=f"run the {name} experiment")
        sp.add_argument("--config", required=True, metavar="PATH",
                        help="JSON experiment config (session document for replay)")
        sp.add_argument("--seed", type=int, default=None, metavar="U64",
                        help="override the config seed")
        sp.add_argument("--threads", type=int, default=None, metavar="INT",
                        help="worker processes, forked per estimate; small "
                             "estimates run in this process (default: the "
                             "config, then the usable CPUs)")
        sp.add_argument("--out", default=None, metavar="PATH",
                        help="output file (stdout when omitted)")
        sp.add_argument("--format", dest="fmt", choices=("csv", "json"),
                        default=None, help="output format (default: config, then csv)")
    return parser


def _load_json(path: str) -> dict:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            doc = json.load(fh)
    except OSError as e:
        raise WiretapCommitError(f"cannot read config {path}: {e}") from e
    except json.JSONDecodeError as e:
        raise WiretapCommitError(
            f"config parse error in {path} at line {e.lineno} column {e.colno}: {e.msg}"
        ) from e
    if not isinstance(doc, dict):
        raise ConfigError(f"config {path} must be a JSON object, "
                          f"not {type(doc).__name__}")
    return doc


def _emit(table, fmt: str, out_path):
    text = table.render(fmt)
    if out_path:
        with open(out_path, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    out_path = args.out
    try:
        if args.threads is not None and args.threads < 1:
            raise ConfigError(f"--threads must be >= 1, got {args.threads}")
        doc = _load_json(args.config)
        if args.command == "replay":
            table = run_replay(doc)
            fmt = args.fmt or "csv"
        else:
            expected = _KIND_BY_COMMAND[args.command]
            kind = doc.get("kind")
            if kind is None:
                doc["kind"] = expected
            elif kind != expected:
                raise WiretapCommitError(
                    f"config kind {kind!r} does not match subcommand {args.command!r}"
                )
            doc.setdefault("version", CONFIG_VERSION)
            if args.seed is not None:
                doc["seed"] = args.seed
            if args.threads is not None:
                doc["threads"] = args.threads
            else:
                doc.setdefault("threads", usable_cpus())
            config = ExperimentConfig.from_dict(doc)
            config.validate()
            table = run_experiment(config)
            table.metadata.setdefault("seed", config.seed)
            fmt = args.fmt or config.fmt or "csv"
            out_path = args.out or config.out
        _emit(table, fmt, out_path)
        return EXIT_OK
    except WiretapCommitError as e:
        print(f"error: {e}", file=sys.stderr)
        return EXIT_BAD_CONFIG
    except Exception as e:  # unexpected failure: report, nonzero exit
        print(f"internal error: {type(e).__name__}: {e}", file=sys.stderr)
        return EXIT_FAILURE


if __name__ == "__main__":
    raise SystemExit(main())
