"""Command-line interface: one subcommand per experiment kind.

Flag precedence: command-line --set overrides > config file > schema defaults.
Exit codes: 0 success, 2 validation error, 3 runtime failure.
"""
from __future__ import annotations

import argparse
import sys

import yaml

from .harness import (
    EXIT_OK,
    EXIT_RUNTIME,
    EXIT_VALIDATION,
    KINDS,
    ConfigError,
    SchemaError,
    read_config,
    report,
    run_experiment,
    validate_config,
)


def _apply_override(data: dict, assignment: str):
    if "=" not in assignment:
        raise ConfigError(f"--set expects key=value, got {assignment!r}")
    key, raw = assignment.split("=", 1)
    try:
        value = yaml.safe_load(raw)
    except yaml.YAMLError as e:
        raise ConfigError(f"--set {key}: {e}")
    node = data
    parts = key.split(".")
    for part in parts[:-1]:
        node = node.setdefault(part, {})
        if not isinstance(node, dict):
            raise ConfigError(f"--set {key}: {part} is not a mapping")
    node[parts[-1]] = value


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="sfflab",
                                     description="SFF laboratory for coupled cat maps")
    sub = parser.add_subparsers(dest="command", required=True)
    for kind in KINDS:
        p = sub.add_parser(kind, help=f"run a {kind} experiment")
        p.add_argument("--config", help="YAML config file")
        p.add_argument("--outdir", help="output directory (overrides config)")
        p.add_argument("--seed", type=int, help="master seed (overrides config)")
        p.add_argument("--workers", type=int, help="worker count (overrides config)")
        p.add_argument("--set", action="append", default=[], metavar="KEY=VALUE",
                       help="override any config key, e.g. --set predict.chi=0.9")
    rp = sub.add_parser("report", help="summarize compare reports")
    rp.add_argument("files", nargs="+")
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        if args.command == "report":
            text, combined = report(args.files)
            print(text, end="")
            return EXIT_OK if combined["all_passed"] else EXIT_RUNTIME

        data = read_config(args.config) if args.config else {}
        data["kind"] = args.command
        if args.outdir is not None:
            data["outdir"] = args.outdir
        if args.seed is not None:
            data["seed"] = args.seed
        if args.workers is not None:
            data["workers"] = args.workers
        for assignment in args.set:
            _apply_override(data, assignment)
        if data["kind"] != args.command:
            raise ConfigError(f"--set kind: the kind is the subcommand {args.command!r}, "
                              f"got {data['kind']!r}")
        cfg = validate_config(data)
        manifest = run_experiment(cfg)
        print(f"wrote {cfg.outdir} ({len(manifest.digests)} artifacts, "
              f"{manifest.wall_time_s:.1f} s)")
        return EXIT_OK
    except (ConfigError, SchemaError) as e:
        print(f"error: {e}", file=sys.stderr)
        return EXIT_VALIDATION
    except Exception as e:
        print(f"error: {e}", file=sys.stderr)
        return EXIT_RUNTIME


if __name__ == "__main__":
    raise SystemExit(main())
