"""Command-line entry point for the identification pipeline.

One subcommand per stage; every command reads the same flat key=value
configuration file (``--config``, then the GASLIFT_TWIN_CONFIG environment
variable, then built-in defaults) and exits 0 on success. Failures print a
single machine-readable JSON object to stderr and exit 1.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

from .config import RunConfig, default_config, describe_keys, parse_config
from .errors import UsageError
from .pipeline import run_stage

CONFIG_ENV_VAR = "GASLIFT_TWIN_CONFIG"

_STAGE_HELP = {
    "gen-data": "sample the experiment design and simulate the training series",
    "rank-inputs": "rank exogenous inputs per output channel",
    "select-structure": "select NARX embedding orders from Lipschitz indices",
    "tune": "Hyperband search over architectures and learning rates",
    "fit": "train the tuned network on every output channel",
    "mcmc": "sample weight posteriors with random-walk Metropolis",
    "reduce": "shrink each posterior ensemble to its safety-factored size",
    "sil": "replay disturbance scenarios against the cognitive twin",
    "report": "emit plot-ready CSVs and metric summaries per scenario",
}


class _Parser(argparse.ArgumentParser):
    """Raises UsageError where argparse would print usage and exit 2."""

    def error(self, message):
        raise UsageError(message)


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="gaslift-twin",
        description="Offline identification and online cognitive-twin "
                    "pipeline for the simulated gas-lift process.",
        epilog=f"Configuration keys (also via ${CONFIG_ENV_VAR}):\n"
               + describe_keys(),
        formatter_class=argparse.RawDescriptionHelpFormatter,
    )
    parser.add_argument(
        "--config", metavar="FILE", default=None,
        help="key=value configuration file "
             f"(default: ${CONFIG_ENV_VAR}, else built-in defaults)",
    )
    sub = parser.add_subparsers(dest="command", required=True, metavar="STAGE")
    for name, text in _STAGE_HELP.items():
        cmd = sub.add_parser(name, help=text, description=text)
        if name in ("sil", "report"):
            cmd.add_argument(
                "--scenario", type=int, choices=(1, 2, 3), default=None,
                help="restrict to one scenario (default: sil.scenarios)",
            )
    return parser


def _load_config(path: str | None) -> RunConfig:
    if path is None:
        path = os.environ.get(CONFIG_ENV_VAR)
    if path is None:
        return default_config()
    return parse_config(path)


def main(argv: list[str] | None = None) -> int:
    try:
        args = build_parser().parse_args(argv)
        cfg = _load_config(args.config)
        result = run_stage(
            cfg, args.command, scenario=getattr(args, "scenario", None)
        )
    except Exception as e:
        print(
            json.dumps({"error": type(e).__name__, "message": str(e)}),
            file=sys.stderr,
        )
        return 1
    print(json.dumps(result, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())
