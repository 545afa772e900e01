"""Command-line entry point: one subcommand per experiment."""
from __future__ import annotations

import argparse
import json
import sys
from dataclasses import replace

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


def _overrides(args) -> dict:
    """The config keys the command line sets: the subcommand's experiment,
    then the --set pairs in order, then --output-dir."""
    overrides = {"experiment": args.experiment}
    for pair in args.set:
        if "=" not in pair:
            raise ConfigError([f"--set expects KEY=VALUE, got {pair!r}"])
        key, _, value = pair.partition("=")
        try:
            overrides[key] = json.loads(value)
        except json.JSONDecodeError:
            overrides[key] = value
    if overrides["experiment"] != args.experiment:
        raise ConfigError([f"experiment: --set experiment="
                           f"{overrides['experiment']!r} disagrees with the "
                           f"subcommand {args.command}"])
    if args.output_dir is not None:
        overrides["output_dir"] = args.output_dir
    return overrides


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        with open(args.config, "r", encoding="utf-8") as fh:
            text = fh.read()
    except (OSError, UnicodeDecodeError) as exc:
        print(f"error: cannot read config: {exc}", file=sys.stderr)
        return 2
    try:
        cfg = parse_config(text, _overrides(args))
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    if cfg.emitters is not None:
        lattice = cfg.lattice
        # the sweep steps gamma_values alone, and g >= gamma/sqrt(N) bites
        # first at the smallest loss rate
        if cfg.experiment == "sweep_gamma":
            lattice = replace(lattice, gamma=min(
                [gamma for gamma in cfg.gamma_values if gamma > 0] or [cfg.gamma]))
        for msg in weak_coupling_warnings(lattice, cfg.emitters):
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
