"""Command-line entry point: one subcommand per experiment."""
from __future__ import annotations

import argparse
import json
import sys

from . import __version__
from .config import EXPERIMENTS, ConfigError, parse_config
from .params import weak_coupling_warnings
from .runner import run_experiment

_SUBCOMMANDS = {e.replace("_", "-"): e for e in EXPERIMENTS}


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="nhbath",
        description="Simulations of emitters coupled to a lossy cavity-array "
                    "bath with direction-dependent photon-mediated couplings.")
    parser.add_argument("--version", action="version",
                        version=f"nhbath {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)
    for name, experiment in _SUBCOMMANDS.items():
        p = sub.add_parser(name, help=f"run the {experiment} experiment")
        p.add_argument("--config", required=True,
                       help="path to a JSON experiment configuration")
        p.add_argument("--set", action="append", default=[], metavar="KEY=VALUE",
                       help="override one config key (repeatable); the value "
                            "is parsed as JSON, or taken as a string")
        p.add_argument("--output-dir", default=None,
                       help="override the config's output_dir")
        p.set_defaults(experiment=experiment)
    return parser


def _apply_overrides(raw: dict, pairs: list) -> dict:
    for pair in pairs:
        if "=" not in pair:
            raise ConfigError([f"--set expects KEY=VALUE, got {pair!r}"])
        key, _, value = pair.partition("=")
        try:
            raw[key] = json.loads(value)
        except json.JSONDecodeError:
            raw[key] = value
    return raw


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        with open(args.config, "r", encoding="utf-8") as fh:
            text = fh.read()
    except OSError as exc:
        print(f"error: cannot read config: {exc}", file=sys.stderr)
        return 2
    try:
        raw = json.loads(text)
        if not isinstance(raw, dict):
            raise ConfigError(["top-level JSON value must be an object"])
        raw["experiment"] = args.experiment
        raw = _apply_overrides(raw, args.set)
        if raw["experiment"] != args.experiment:
            raise ConfigError([f"experiment: --set experiment="
                               f"{raw['experiment']!r} disagrees with the "
                               f"subcommand {args.command}"])
        if args.output_dir is not None:
            raw["output_dir"] = args.output_dir
        cfg = parse_config(json.dumps(raw))
    except (json.JSONDecodeError, ConfigError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    if cfg.emitters is not None:
        for msg in weak_coupling_warnings(cfg.lattice, cfg.emitters):
            print(f"warning: {msg}", file=sys.stderr)
    try:
        written = run_experiment(cfg)
    except Exception as exc:  # surface the failing operation, no traceback spam
        print(f"error: {cfg.experiment} failed: {exc}", file=sys.stderr)
        return 1
    for path in written:
        print(path)
    return 0


if __name__ == "__main__":
    sys.exit(main())
