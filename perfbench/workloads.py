"""The benchmark's workloads: which CLI invocations a pass repeats, and why.

Every workload uses the ``tilted_ising`` preset at its defaults (g=1.05,
h=0.5) with the ``total_sz`` observable.  A workload turns the benchmark's
workload seed into a batch of runs; a pass repeats the batch in whole
cycles, so every input is run more than once and repeats can be checked for
byte-identical artifacts.

``delta`` is fixed at 0.05, which keeps every model here inside the
alias-free band (2*pi/delta exceeds twice the Pauli-norm bound of the
spectral span up to N=10).
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Callable

DELTA = 0.05
ORACLE_GRID_POINTS = 2001  # fixed by ``qspec oracle``


@dataclass(frozen=True)
class Run:
    """One ``qspec`` invocation: the subcommand, its config and how to check it."""

    key: str
    command: str  # "run" or "oracle"
    config: dict
    gate: str  # "exact", "circuit" or "oracle"


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    batch: Callable[[int], list[Run]]


def _config(num_sites: int, ensemble: dict, prep: str, num_bits: int, shots: int, seed: int) -> dict:
    return {
        "model": {"preset": "tilted_ising", "N": num_sites},
        "observable": "total_sz",
        "ensemble": ensemble,
        "prep": {"mode": prep},
        "qpe": {"l": num_bits, "delta": DELTA},
        "shots": shots,
        "seed": seed,
    }


_INFINITE = {"kind": "infinite_temperature"}
_GIBBS = {"kind": "gibbs", "beta": 1.0}


def _config_seeds(seed: int, count: int) -> list[int]:
    rng = random.Random(seed)
    return [rng.getrandbits(63) for _ in range(count)]


def _qpe_wide(seed: int) -> list[Run]:
    return [
        Run(f"qpe_wide/{s}", "run", _config(6, _INFINITE, "exact", 9, 20000, s), "exact")
        for s in _config_seeds(seed, 2)
    ]


PREP_BATCH = 4


def _prep_circuit(seed: int) -> list[Run]:
    # The batch is the first PREP_BATCH config seeds, taken whatever their
    # outcome: the attempt count per config seed ranges from tens to the
    # whole budget, so a batch drawn afresh from each workload seed would
    # make s_per_solution differ by a factor of several between workload
    # seeds.  The workload seed sets the order the batch runs in.
    seeds = list(range(PREP_BATCH))
    random.Random(seed).shuffle(seeds)
    return [
        Run(f"prep_circuit/{s}", "run", _config(6, _GIBBS, "circuit", 5, 0, s), "circuit")
        for s in seeds
    ]


def _eigh_dense(seed: int) -> list[Run]:
    (s,) = _config_seeds(seed, 1)
    return [Run(f"eigh_dense/{s}", "run", _config(10, _GIBBS, "exact", 1, 0, s), "exact")]


def _oracle_grid(seed: int) -> list[Run]:
    (s,) = _config_seeds(seed, 1)
    return [Run(f"oracle_grid/{s}", "oracle", _config(9, _GIBBS, "exact", 1, 0, s), "oracle")]


def _smoke(seed: int) -> list[Run]:
    s = _config_seeds(seed, 1)[0]
    return [
        Run(f"smoke/run/{s}", "run", _config(2, _INFINITE, "exact", 3, 100, s), "exact"),
        Run(f"smoke/circuit/{s}", "run", _config(2, _GIBBS, "circuit", 3, 0, s), "circuit"),
        Run(f"smoke/oracle/{s}", "oracle", _config(2, _GIBBS, "exact", 3, 0, s), "oracle"),
    ]


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "qpe_wide",
            "N=6, l=9 (21 qubits), exact prep, 20000 shots: controlled steps, inverse QFT and marginal dominate",
            _qpe_wide,
        ),
        Workload(
            "prep_circuit",
            "N=6, l=5, Gibbs, circuit prep with the default budget: the stateprep attempt loop dominates and half the batch exhausts",
            _prep_circuit,
        ),
        Workload(
            "eigh_dense",
            "N=10, l=1 (22 qubits), Gibbs, exact prep: 1024x1024 eigh calls and the Pauli compile dominate; memory high-water",
            _eigh_dense,
        ),
        Workload(
            "oracle_grid",
            "qspec oracle at N=9, Gibbs: the 2001-point Lorentzian grid loop dominates; the only oracle-CLI path",
            _oracle_grid,
        ),
    )
}

# A seconds-long N=2 workload covering all three gates, for the harness's own tests.
SMOKE = Workload("smoke", "N=2 exact run, circuit run and oracle, for the harness tests", _smoke)


def get(name: str) -> Workload:
    if name == SMOKE.name:
        return SMOKE
    return WORKLOADS[name]
