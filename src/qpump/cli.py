"""Command-line front end.

Exit codes: 0 success, 1 configuration/usage error (the message on
standard error names the offending field), 2 numerical failure (a
certified defect beyond its hard limit, or a verified bound violation),
3 I/O failure.
"""

from __future__ import annotations

import argparse
import math
import sys

import numpy as np

from .bathtub import (
    analytic_minimum,
    greedy_minimize,
    linear_dispersion,
    quadratic_dispersion,
    verify_bound,
)
from .errors import (
    ConfigError,
    EnergyOutOfWindow,
    NumericalFailure,
    PhaseStepTooLarge,
    PumpError,
)
from .models import REGISTRY, ModelConfig
from .report import analyze, dumps, instant_document

__all__ = ["main"]

#: Largest ``--nk``: each dispersion array and oracle row holds nk floats.
MAX_NK = 2**20


class _Parser(argparse.ArgumentParser):
    """argparse that reports usage problems with exit code 1."""

    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(1, f"{self.prog}: error: {message}\n")


def _build_parser() -> _Parser:
    parser = _Parser(
        prog="pump",
        description="Analyze adiabatic quantum pumps given by a frozen "
        "scattering matrix (natural units: hbar = e = 1).",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("analyze", help="full-cycle analysis to a JSON report")
    p.add_argument("--config", required=True, help="JSON configuration file")
    p.add_argument("--out", required=True, help="output path for the JSON report")
    p.add_argument("--csv", default=None, help="optional CSV time series output")
    p.set_defaults(func=_cmd_analyze)

    p = sub.add_parser("instant", help="observables at a single cycle time")
    p.add_argument("--config", required=True)
    p.add_argument("--t", required=True, type=float, help="time in [0, period)")
    p.set_defaults(func=_cmd_instant)

    p = sub.add_parser("bathtub", help="randomized check of the dissipation bound")
    p.add_argument("--dispersion", required=True, choices=("linear", "quadratic"))
    p.add_argument("--kmax", required=True, type=float)
    p.add_argument("--nk", required=True, type=int)
    p.add_argument("--mu", required=True, type=float)
    p.add_argument("--trials", required=True, type=int)
    p.add_argument("--seed", required=True, type=int)
    p.set_defaults(func=_cmd_bathtub)

    p = sub.add_parser("models", help="list built-in models as JSON")
    p.set_defaults(func=_cmd_models)

    return parser


def _cmd_analyze(args) -> int:
    config = ModelConfig.from_file(args.config)
    result = analyze(config)
    # Format everything before opening a file, so a failure leaves none behind.
    text = dumps(result.document)
    csv_text = None if args.csv is None else result.csv_text
    with open(args.out, "w", encoding="utf-8", newline="\n") as handle:
        handle.write(text)
    if csv_text is not None:
        with open(args.csv, "w", encoding="utf-8", newline="\n") as handle:
            handle.write(csv_text)
    return 0


def _cmd_instant(args) -> int:
    config = ModelConfig.from_file(args.config)
    sys.stdout.write(dumps(instant_document(config, args.t)))
    return 0


def _cmd_bathtub(args) -> int:
    if not 64 <= args.nk <= MAX_NK:
        raise ConfigError("nk", f"must lie in [64, {MAX_NK}], got {args.nk}")
    if not (math.isfinite(args.kmax) and args.kmax > 0):
        raise ConfigError("kmax", "must be a positive finite real")
    if args.trials < 1:
        raise ConfigError("trials", "must be >= 1")
    if args.seed < 0:
        raise ConfigError("seed", "must be >= 0")
    if args.seed > 2**64 - args.trials:
        raise ConfigError("seed", f"must be <= 2**64 - trials, got {args.seed}")
    make = linear_dispersion if args.dispersion == "linear" else quadratic_dispersion
    grid = make(args.kmax, args.nk)
    if not 0 < args.mu <= float(grid.eps[-1]):
        raise ConfigError(
            "mu", f"must lie in (0, eps(k_max)] = (0, {float(grid.eps[-1]):g}]"
        )
    greedy = greedy_minimize(grid, args.mu / (2.0 * np.pi))
    _, edot_min = analytic_minimum(args.mu)
    check = verify_bound(grid, args.trials, args.seed, mu=args.mu)
    sys.stdout.write(dumps({
        "greedy_Edot": greedy.edot,
        "analytic_Edot": edot_min,
        "violations": check.violations,
        "max_violation": check.max_violation,
    }))
    return 0 if check.violations == 0 else 2


def _cmd_models(args) -> int:
    doc = [
        {
            "name": info.name,
            "description": info.description,
            "n_channels": info.n_channels,
            "params": [
                {"name": p.name, "default": p.default, "required": p.default is None,
                 "note": p.note}
                for p in info.params
            ],
        }
        for info in REGISTRY.values()
    ]
    sys.stdout.write(dumps(doc))
    return 0


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        # Overflow and NaN surface as exit code 2 through the certification
        # and serialization checks, not as numpy warnings on stderr.
        with np.errstate(all="ignore"):
            return args.func(args)
    except (ConfigError, EnergyOutOfWindow) as exc:
        print(f"pump: config error: {exc}", file=sys.stderr)
        return 1
    except (NumericalFailure, PhaseStepTooLarge) as exc:
        print(f"pump: numerical failure: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"pump: i/o failure: {exc}", file=sys.stderr)
        return 3
    except PumpError as exc:
        print(f"pump: error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
