"""Command-line interface.

Each subcommand runs one experiment and writes ``<out>.csv`` and
``<out>.json``.  It takes ``--config FILE`` and a flag for each key its
experiment reads (``config.EXPERIMENT_KEYS``); flags replace the file's
values.
Exit codes: 0 on pass (or informational runs), 2 when a quantitative gate
fails, 1 on usage, configuration or runtime errors.
"""

from __future__ import annotations

import argparse
import sys

from .config import (
    EXPERIMENT_KEYS,
    EXPERIMENTS,
    ConfigError,
    ExperimentConfig,
    flag_values,
    load_config,
)
from .experiments import run_experiment, emit_outputs


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        # A usage error is an input error (exit 1); exit 2 means a failed gate.
        raise ConfigError(message)


def _build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="stableem",
        description="Euler-Maruyama schemes with decreasing steps for stable-driven SDEs",
    )
    sub = parser.add_subparsers(dest="experiment", required=True)
    for name in EXPERIMENTS:
        p = sub.add_parser(name, help=f"run the {name} experiment")
        p.add_argument("--config", help="key = value config file")
        for key in EXPERIMENT_KEYS[name]:
            p.add_argument(f"--{key}")
    return parser


def _load(args) -> ExperimentConfig:
    flags = flag_values(
        {key: value for key in EXPERIMENT_KEYS[args.experiment]
         if (value := getattr(args, key)) is not None}
    )
    if not args.config:
        return ExperimentConfig(args.experiment, **flags)
    return load_config(args.config, flags, args.experiment)


def main(argv=None) -> int:
    try:
        cfg = _load(_build_parser().parse_args(argv))
        report = run_experiment(cfg)
        emit_outputs(report, cfg.out or cfg.experiment)
    except (ConfigError, ValueError, OSError, RuntimeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    if report.verdict is None:
        print(f"{report.experiment}: done (informational)")
        return 0
    print(f"{report.experiment}: {'PASS' if report.verdict else 'FAIL'}")
    return 0 if report.verdict else 2


if __name__ == "__main__":
    sys.exit(main())
