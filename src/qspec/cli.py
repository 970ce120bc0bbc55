"""Command-line entry point.

Subcommands:

* ``run``       full pipeline from a JSON config (prep, phase estimation,
                oracle comparison, sampling, CSV + JSON artifacts).
* ``prepstudy`` acceptance probability and fidelity over an angle grid for
                the four unit-scale eigenvalue laws, on their sampled spectra.
* ``oracle``    reference spectrum only, from the same config format:
                ``spectrum.csv`` and ``spectrum.json`` (gamma, ensemble and
                the CSV's sha256).
* ``plan``      register size and coupling time for a two-sided bandwidth
                and a linewidth.

Exit codes: 0 success, 1 configuration error (among them a usage error on
the command line, an observable that annihilates the ensemble's base state,
and an output path that cannot be used), 2 resource cap exceeded (for
``run``, checked before any operator is built, and again once a register is
planned; for ``prepstudy``, checked before the grid is allocated: more than
``MAX_SITES`` sites, or more than ``2**QUBIT_CAP`` angles), 3 circuit
preparation exhausted its attempt budget, 4 any other error the package
detects while running.  Every failure prints one line to stderr.

Python names are imported from their modules, e.g. ``qspec.experiment.run_experiment``;
the package root holds only ``__version__``.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from dataclasses import asdict, replace
from pathlib import Path

import numpy as np

from .errors import ConfigError, PrepExhaustedError, QspecError, ResourceCapError, ZeroNormError
from .experiment import check_output_dir, plan_payload, run_experiment, validate_config, write_csv, write_json
from .models import EIGENVALUE_LAWS, build_operator, check_sites, synthetic_eigenvalues
from .oracle import spectral_function, transition_weights
from .qpe import plan_resolution
from .simcore import QUBIT_CAP
from .stateprep import acceptance_probability, preparation_fidelity

EXIT_OK = 0
EXIT_CONFIG = 1
EXIT_CAP = 2
EXIT_PREP = 3
EXIT_ERROR = 4

_SYNTH_KEY = 3


def _check_seed(seed: int | None) -> None:
    if seed is not None and not 0 <= seed < 1 << 64:
        raise ConfigError("--seed must fit in 64 unsigned bits")


def _load_config(args: argparse.Namespace):
    path = Path(args.config)
    try:
        raw = path.read_text()
    except OSError as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from exc
    config = validate_config(raw)
    _check_seed(args.seed)
    if args.out is not None:
        check_output_dir(args.out, "--out")
    overrides = {"seed": args.seed, "output_dir": args.out}
    return replace(config, **{key: value for key, value in overrides.items() if value is not None})


def _cmd_run(args: argparse.Namespace) -> int:
    config = _load_config(args)
    report = run_experiment(config)
    out = Path(config.output_dir).resolve()
    tv = report.distances["exact_vs_oracle"]["total_variation"]
    print(f"run complete: artifacts in {out} (TV circuit vs oracle {tv:.3e})")
    return EXIT_OK


def _cmd_oracle(args: argparse.Namespace) -> int:
    config = _load_config(args)
    eig_h = build_operator(config.model).eig  # H's matrix is freed once decomposed
    observable = build_operator(config.observable)
    reach = 1.2 * eig_h.span if eig_h.span > 0 else 1.0
    gamma, step = config.qpe.linewidth, 2 * reach / 2000
    if step > gamma:
        path = "qpe.gamma" if config.qpe.gamma is not None else "qpe.delta"
        raise ConfigError(f"{path}: linewidth {gamma:.6g} is below the oracle grid step {step:.6g}")
    grid = step * np.arange(-1000, 1001)  # exactly symmetric: the oracle folds each line with its mirror
    table = spectral_function(transition_weights(eig_h, observable, config.ensemble), grid, gamma)
    out = Path(config.output_dir)
    digest = write_csv(out / "spectrum.csv", {"omega": table.frequencies, "sigma": table.values})
    write_json(out / "spectrum.json", {"gamma": table.gamma, "ensemble": asdict(config.ensemble),
                                       "artifacts": {"spectrum.csv": digest}})
    print(f"oracle spectrum written to {out.resolve()}")
    return EXIT_OK


def _cmd_prepstudy(args: argparse.Namespace) -> int:
    _check_seed(args.seed)
    if args.phi_points < 1 or not 0 < args.phi_max < math.inf:
        raise ConfigError("prepstudy needs a positive, finite angle grid")
    if args.num_sites < 1:
        raise ConfigError(f"prepstudy needs --num-sites >= 1, got {args.num_sites}")
    out = Path(check_output_dir(args.out, "--out"))
    check_sites(args.num_sites)
    if args.phi_points > 1 << QUBIT_CAP:
        raise ResourceCapError(f"prepstudy grid of {args.phi_points} angles exceeds the cap of 2**{QUBIT_CAP}")
    dim = 1 << args.num_sites
    phis = np.linspace(args.phi_max / args.phi_points, args.phi_max, args.phi_points)
    q = np.full(dim, 1.0 / dim)
    p1, fidelity = [], []
    kinds = list(EIGENVALUE_LAWS)
    for index, kind in enumerate(kinds):
        seed = np.random.SeedSequence(args.seed, spawn_key=(_SYNTH_KEY, index))
        vals = synthetic_eigenvalues(kind, args.num_sites, seed)
        p1 += [acceptance_probability(vals, q, float(phi)) for phi in phis]
        fidelity += [preparation_fidelity(vals, q, float(phi)) for phi in phis]
    rows = len(p1)
    write_csv(out / "prepstudy.csv", {
        "phi": np.tile(phis, len(kinds)), "P1": p1, "fidelity": fidelity,
        "distribution": np.repeat(kinds, phis.size), "N": [args.num_sites] * rows,
        "seed": [args.seed] * rows,
    })
    print(f"prep study written to {(out / 'prepstudy.csv').resolve()}")
    return EXIT_OK


def _cmd_plan(args: argparse.Namespace) -> int:
    try:
        plan = plan_resolution(args.omega_max, args.gamma)
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc
    print(json.dumps(plan_payload(plan)))
    return EXIT_OK


class _Parser(argparse.ArgumentParser):
    """A parser whose usage errors are config errors (exit 1, one line); its subparsers are of this class too."""

    def error(self, message: str):
        raise ConfigError(f"{self.prog}: {message}")


def _build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
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
    p.add_argument("--omega-max", type=float, required=True,
                   help="two-sided band: the register reaches about +-omega_max/2")
    p.add_argument("--gamma", type=float, required=True)
    p.set_defaults(handler=_cmd_plan)

    return parser


def main(argv: list[str] | None = None) -> int:
    try:
        args = _build_parser().parse_args(argv)
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
