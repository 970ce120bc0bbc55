"""Command-line entry point.

Subcommands:

* ``run``       full pipeline from a JSON config (prep, phase estimation,
                oracle comparison, sampling, CSV + JSON artifacts).
* ``prepstudy`` acceptance probability and fidelity over an angle grid for
                the four synthetic eigenvalue laws.
* ``oracle``    reference spectrum only, from the same config format.
* ``plan``      register size and coupling time for a bandwidth/linewidth pair.

Exit codes: 0 success, 1 configuration error (among them an observable that
annihilates the ensemble's base state), 2 resource cap exceeded, 3 circuit
preparation exhausted its attempt budget, 4 any other error the package
detects while running.  Every failure prints one line to stderr.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from pathlib import Path

import numpy as np

from .errors import ConfigError, PrepExhaustedError, QspecError, ResourceCapError, ZeroNormError
from .experiment import plan_payload, run_experiment, validate_config, with_overrides, write_csv, write_json
from .models import (
    DISTRIBUTION_KINDS,
    EigenvalueDistribution,
    build_operator,
    synthetic_diagonal_observable,
)
from .oracle import spectral_function, transition_weights
from .qpe import plan_resolution
from .stateprep import acceptance_probability, preparation_fidelity

EXIT_OK = 0
EXIT_CONFIG = 1
EXIT_CAP = 2
EXIT_PREP = 3
EXIT_ERROR = 4

_SYNTH_KEY = 3


def _load_config(args: argparse.Namespace):
    path = Path(args.config)
    try:
        raw = path.read_text()
    except OSError as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from exc
    config = validate_config(raw)
    if args.seed is not None and not 0 <= args.seed < 1 << 64:
        raise ConfigError("--seed must fit in 64 unsigned bits")
    return with_overrides(config, seed=args.seed, output_dir=args.out)


def _cmd_run(args: argparse.Namespace) -> int:
    config = _load_config(args)
    report = run_experiment(config)
    out = Path(config.output_dir).resolve()
    tv = report.distances["exact_vs_oracle"]["total_variation"]
    print(f"run complete: artifacts in {out} (TV circuit vs oracle {tv:.3e})")
    return EXIT_OK


def _cmd_oracle(args: argparse.Namespace) -> int:
    config = _load_config(args)
    hamiltonian = build_operator(config.model)
    observable = build_operator(config.observable)
    vals = hamiltonian.eig.eigenvalues
    span = float(vals[-1] - vals[0])
    reach = 1.2 * span if span > 0 else 1.0
    gamma, step = config.qpe.linewidth, 2.4 * span / 2000
    if step > gamma:
        path = "qpe.gamma" if config.qpe.auto_plan else "qpe.delta"
        raise ConfigError(f"{path}: linewidth {gamma:.6g} is below the oracle grid step {step:.6g}")
    grid = np.linspace(-reach, reach, 2001)
    table = spectral_function(transition_weights(hamiltonian, observable, config.ensemble), grid, gamma)
    out = Path(config.output_dir)
    out.mkdir(parents=True, exist_ok=True)
    write_csv(out / "spectrum.csv", ("omega", "sigma"), zip(table.frequencies, table.values))
    ensemble = {"kind": table.ensemble.kind, "beta": table.ensemble.beta}
    write_json(out / "spectrum.json", {"gamma": table.gamma, "ensemble": ensemble,
                                       "omega": table.frequencies.tolist(), "sigma": table.values.tolist()})
    print(f"oracle spectrum written to {out.resolve()}")
    return EXIT_OK


def _cmd_prepstudy(args: argparse.Namespace) -> int:
    if args.phi_points < 1 or not 0 < args.phi_max < math.inf:
        raise ConfigError("prepstudy needs a positive, finite angle grid")
    if args.num_sites < 1:
        raise ConfigError(f"prepstudy needs --num-sites >= 1, got {args.num_sites}")
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    phis = np.linspace(args.phi_max / args.phi_points, args.phi_max, args.phi_points)
    rows = []
    for index, kind in enumerate(DISTRIBUTION_KINDS):
        dist = EigenvalueDistribution(kind, 1.0)
        observable = synthetic_diagonal_observable(
            dist, args.num_sites, np.random.SeedSequence(args.seed, spawn_key=(_SYNTH_KEY, index))
        )
        for phi in phis:
            p1 = acceptance_probability(observable, float(phi))
            fid = preparation_fidelity(observable, float(phi))
            rows.append((phi, p1, fid, kind, args.num_sites, args.seed))
    write_csv(out / "prepstudy.csv", ("phi", "P1", "fidelity", "distribution", "N", "seed"), rows)
    print(f"prep study written to {(out / 'prepstudy.csv').resolve()}")
    return EXIT_OK


def _cmd_plan(args: argparse.Namespace) -> int:
    try:
        plan = plan_resolution(args.omega_max, args.gamma)
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc
    print(json.dumps(plan_payload(plan)))
    return EXIT_OK


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="qspec",
        description="Sample many-body spectral functions with a phase-estimation simulator.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    for name, handler in (("run", _cmd_run), ("oracle", _cmd_oracle)):
        p = sub.add_parser(name)
        p.add_argument("--config", required=True, help="path to the JSON experiment document")
        p.add_argument("--seed", type=int, default=None, help="override the config seed")
        p.add_argument("--out", default=None, help="override the config output directory")
        p.set_defaults(handler=handler)

    p = sub.add_parser("prepstudy")
    p.add_argument("--out", required=True, help="output directory for prepstudy.csv")
    p.add_argument("--num-sites", type=int, default=10)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--phi-max", type=float, default=3.0)
    p.add_argument("--phi-points", type=int, default=60)
    p.set_defaults(handler=_cmd_prepstudy)

    p = sub.add_parser("plan")
    p.add_argument("--omega-max", type=float, required=True)
    p.add_argument("--gamma", type=float, required=True)
    p.set_defaults(handler=_cmd_plan)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        return args.handler(args)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except ZeroNormError as exc:
        print(f"config error: observable: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except ResourceCapError as exc:
        print(f"resource cap: {exc}", file=sys.stderr)
        return EXIT_CAP
    except PrepExhaustedError as exc:
        print(f"preparation exhausted: {exc}", file=sys.stderr)
        return EXIT_PREP
    except QspecError as exc:
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return EXIT_ERROR


if __name__ == "__main__":
    sys.exit(main())
