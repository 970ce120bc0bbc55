"""Configuration-driven experiment runner.

One JSON document describes model, observable, ensemble, preparation, phase
estimation and sampling, and one 64-bit master seed makes the whole run
reproducible: component generators derive from it through fixed spawn keys,
``(1, attempt)`` for preparation attempts and ``(2,)`` for shot sampling, so
no amount of internal parallelism can reorder draws.  ``stateprep`` draws the
attempts in vectorized blocks, and attempt k's draw is still, bit for bit, the
first double of numpy's generator at spawn key ``(1, k)``.

A run writes ``report.json`` plus two CSV files (``distribution.csv`` with
columns f, omega, p_exact, p_oracle and optionally p_empirical;
``spectrum.csv`` with columns omega, sigma).  Every artifact of the package,
these and the ``oracle`` and ``prepstudy`` outputs of the command line, goes
through the one CSV writer ``write_csv`` and the one JSON writer
``write_json`` here.  Floats are printed with 17 significant digits, which
round-trips IEEE doubles exactly.

Determinism contract: re-running a config with the same BLAS thread count
gives byte-identical CSV files.  Across BLAS thread counts the multithreaded
BLAS/LAPACK calls can round differently, so each column is byte-identical
only up to a size (measured with OpenBLAS at 1 and 2 threads): ``f`` and the
``omega`` of both ``run`` CSVs at every N, since they come from the register
alone; ``p_oracle`` up to N=5, as from N=6 the product of the table's
weights with the leakage kernel can move by an ulp; ``p_exact`` and
``p_empirical``, which is drawn from it, up to N=6; ``sigma``, and the
``omega`` grid of the ``oracle`` command, up to N=7.  The oracle's own
worker threads, one per usable CPU, never move a byte: the CSVs are the same
at any CPU count or affinity mask for a given BLAS thread count.
"""

from __future__ import annotations

import json
import math
import os
import platform
import sys
import time
from dataclasses import asdict, dataclass
from pathlib import Path
from typing import Iterable, Sequence

import numpy as np

from . import __version__
from .errors import ConfigError, PrepExhaustedError, ResourceCapError
from .models import (
    MAX_SITES,
    ModelSpec,
    OBSERVABLE_PRESETS,
    PauliTerm,
    build_operator,
    heisenberg,
    observable_spec,
    tilted_ising,
)
from .oracle import (
    SpectrumTable,
    distribution_distance,
    exact_outcome_distribution,
    spectral_function,
    transition_weights,
)
from .purify import EnsembleSpec, ground_state_degeneracy, thermal_operator_state
from .qpe import (
    PhaseDistribution,
    ResolutionPlan,
    plan_resolution,
    run_qpe,
    sample_outcomes,
)
from .simcore import QUBIT_CAP
from .stateprep import run_prep_circuit

SCHEMA_VERSION = 1

_SHOT_KEY = 2

_MODEL_PRESETS = ("tilted_ising", "heisenberg")

#: |log2| of the linewidth stays below this, so the oracle's gamma**2 is a normal double.
_LINEWIDTH_LOG2 = 511
#: Largest phase winding delta * 2**l * gap / 2pi, as log2 of turns.  Circuit
#: and oracle round each phase apart by about 2e-16 per turn (in total
#: variation), so 2**18 turns keep them within the 1e-10 acceptance tolerance.
_TURNS_LOG2 = 18
#: log2 of the largest coefficient magnitude sum: spectral spans reach twice
#: it and the oracle's frequency grid 4.8 times it, which stays a finite double.
_NORM_LOG2 = 1021


@dataclass(frozen=True)
class PrepSettings:
    mode: str
    epsilon: float
    max_attempts: int


@dataclass(frozen=True)
class QpeSettings:
    """An explicit register (``num_bits``, ``delta``), or a ``gamma`` to plan one from."""

    num_bits: int | None = None
    delta: float | None = None
    gamma: float | None = None

    @property
    def linewidth(self) -> float:
        """Lorentzian half-width of the spectrum: the planned gamma, or 2*pi/(delta*2**l)."""
        if self.gamma is not None:
            return self.gamma
        return 2.0 * math.pi / math.ldexp(self.delta, self.num_bits)


@dataclass(frozen=True)
class ExperimentConfig:
    model: ModelSpec
    observable: ModelSpec
    ensemble: EnsembleSpec
    prep: PrepSettings
    qpe: QpeSettings
    shots: int
    seed: int
    output_dir: str

    def to_dict(self) -> dict:
        if self.qpe.gamma is not None:
            qpe = {"gamma": self.qpe.gamma, "auto_plan": True}
        else:
            qpe = {"l": self.qpe.num_bits, "delta": self.qpe.delta}
        return {
            "model": self.model.to_dict(),
            "observable": self.observable.to_dict(),
            "ensemble": asdict(self.ensemble),
            "prep": asdict(self.prep),
            "qpe": qpe,
            "shots": self.shots,
            "seed": self.seed,
            "output_dir": self.output_dir,
        }


def _reject_unknown(obj: dict, allowed: tuple[str, ...], path: str) -> None:
    for key in obj:
        if key not in allowed:
            raise ConfigError(f"{path}.{key}: unknown field" if path else f"{key}: unknown field")


def _require(obj: dict, key: str, path: str):
    if key not in obj:
        raise ConfigError(f"{path}.{key}: required field missing" if path else f"{key}: required field missing")
    return obj[key]


def _as_int(value, path: str, minimum: int | None = None) -> int:
    if isinstance(value, bool) or not isinstance(value, int):
        raise ConfigError(f"{path}: expected an integer, got {value!r}")
    if minimum is not None and value < minimum:
        raise ConfigError(f"{path}: must be >= {minimum}, got {value}")
    return value


def _as_number(value, path: str) -> float:
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ConfigError(f"{path}: expected a number, got {value!r}")
    # Also false for NaN, and for a JSON integer past the double range, whose float() overflows.
    if not abs(value) <= sys.float_info.max:
        raise ConfigError(f"{path}: must be finite")
    return float(value)


def _as_str(value, path: str) -> str:
    if not isinstance(value, str):
        raise ConfigError(f"{path}: expected a string, got {value!r}")
    return value


def _parse_terms(obj: dict, path: str) -> ModelSpec:
    _reject_unknown(obj, ("N", "terms", "name"), path)
    num_sites = _as_int(_require(obj, "N", path), f"{path}.N", minimum=1)
    raw_terms = _require(obj, "terms", path)
    if not isinstance(raw_terms, list) or not raw_terms:
        raise ConfigError(f"{path}.terms: expected a non-empty list")
    terms = []
    for index, term in enumerate(raw_terms):
        term_path = f"{path}.terms[{index}]"
        if not isinstance(term, dict):
            raise ConfigError(f"{term_path}: expected an object")
        _reject_unknown(term, ("coefficient", "factors"), term_path)
        coefficient = _as_number(_require(term, "coefficient", term_path), f"{term_path}.coefficient")
        factors = _as_str(_require(term, "factors", term_path), f"{term_path}.factors")
        terms.append((coefficient, factors))
    name = _as_str(obj.get("name", ""), f"{path}.name")
    try:
        return ModelSpec(num_sites, tuple(PauliTerm(c, f) for c, f in terms), name)
    except ValueError as exc:
        raise ConfigError(f"{path}.terms: {exc}") from exc


def _given_numbers(obj: dict, keys: tuple[str, ...], path: str) -> dict:
    """The preset parameters the document gives; the builder's own defaults fill the rest."""
    return {key: _as_number(obj[key], f"{path}.{key}") for key in keys if key in obj}


def _parse_model(obj, path: str) -> ModelSpec:
    if not isinstance(obj, dict):
        raise ConfigError(f"{path}: expected an object")
    if "preset" in obj:
        preset = obj["preset"]
        if preset == "tilted_ising":
            _reject_unknown(obj, ("preset", "N", "g", "h"), path)
            num_sites = _as_int(_require(obj, "N", path), f"{path}.N", minimum=1)
            return tilted_ising(num_sites, **_given_numbers(obj, ("g", "h"), path))
        if preset == "heisenberg":
            _reject_unknown(obj, ("preset", "N", "coupling"), path)
            num_sites = _as_int(_require(obj, "N", path), f"{path}.N", minimum=2)
            return heisenberg(num_sites, **_given_numbers(obj, ("coupling",), path))
        raise ConfigError(f"{path}.preset: unknown preset {preset!r}; choose from {_MODEL_PRESETS}")
    return _parse_terms(obj, path)


def _parse_observable(obj, num_sites: int, path: str) -> ModelSpec:
    if isinstance(obj, str):
        if obj not in OBSERVABLE_PRESETS:
            raise ConfigError(f"{path}: unknown preset {obj!r}; choose from {OBSERVABLE_PRESETS}")
        return observable_spec(obj, num_sites)
    if not isinstance(obj, dict):
        raise ConfigError(f"{path}: expected a preset name or an object")
    if "preset" in obj:
        _reject_unknown(obj, ("preset", "site"), path)
        name = obj["preset"]
        if name not in OBSERVABLE_PRESETS:
            raise ConfigError(f"{path}.preset: unknown preset {name!r}; choose from {OBSERVABLE_PRESETS}")
        given = {"site": _as_int(obj["site"], f"{path}.site", minimum=0)} if "site" in obj else {}
        try:
            return observable_spec(name, num_sites, **given)
        except ValueError as exc:
            raise ConfigError(f"{path}.site: {exc}") from exc
    spec = _parse_terms(obj, path)
    if spec.num_sites != num_sites:
        raise ConfigError(f"{path}.N: observable covers {spec.num_sites} sites, model has {num_sites}")
    return spec


def _parse_ensemble(obj, path: str) -> EnsembleSpec:
    if not isinstance(obj, dict):
        raise ConfigError(f"{path}: expected an object")
    _reject_unknown(obj, ("kind", "beta"), path)
    kind = _require(obj, "kind", path)
    try:
        if kind == "gibbs":
            return EnsembleSpec("gibbs", _as_number(_require(obj, "beta", path), f"{path}.beta"))
        if "beta" in obj:
            raise ConfigError(f"{path}.beta: only the gibbs ensemble takes beta")
        return EnsembleSpec(kind)
    except ValueError as exc:
        raise ConfigError(f"{path}.kind: {exc}") from exc


def _parse_prep(obj, path: str) -> PrepSettings:
    if not isinstance(obj, dict):
        raise ConfigError(f"{path}: expected an object")
    _reject_unknown(obj, ("mode", "epsilon", "max_attempts"), path)
    mode = obj.get("mode", "exact")
    if mode not in ("exact", "circuit"):
        raise ConfigError(f"{path}.mode: must be exact or circuit, got {mode!r}")
    epsilon = _as_number(obj.get("epsilon", 0.01), f"{path}.epsilon")
    if not 0.0 < epsilon < 1.0:
        raise ConfigError(f"{path}.epsilon: must lie strictly between 0 and 1")
    max_attempts = _as_int(obj.get("max_attempts", 1000), f"{path}.max_attempts", minimum=1)
    if max_attempts >= 1 << 63:
        raise ConfigError(f"{path}.max_attempts: must fit in 63 bits")
    return PrepSettings(mode, epsilon, max_attempts)


def _parse_qpe(obj, path: str) -> QpeSettings:
    if not isinstance(obj, dict):
        raise ConfigError(f"{path}: expected an object")
    _reject_unknown(obj, ("l", "delta", "gamma", "auto_plan"), path)
    explicit = "l" in obj or "delta" in obj
    auto = "gamma" in obj or "auto_plan" in obj
    if explicit and auto:
        raise ConfigError(f"{path}: (l, delta) conflicts with (gamma, auto_plan); provide exactly one form")
    if explicit:
        num_bits = _as_int(_require(obj, "l", path), f"{path}.l", minimum=1)
        delta = _as_number(_require(obj, "delta", path), f"{path}.delta")
        if delta <= 0:
            raise ConfigError(f"{path}.delta: must be positive")
        _check_linewidth(math.log2(2.0 * math.pi / delta) - num_bits, f"{path}.delta")
        return QpeSettings(num_bits=num_bits, delta=delta)
    if auto:
        if obj.get("auto_plan") is not True:
            raise ConfigError(f"{path}.auto_plan: must be true when planning from gamma")
        gamma = _as_number(_require(obj, "gamma", path), f"{path}.gamma")
        if gamma <= 0:
            raise ConfigError(f"{path}.gamma: must be positive")
        _check_linewidth(math.log2(gamma), f"{path}.gamma")
        return QpeSettings(gamma=gamma)
    raise ConfigError(f"{path}: provide either (l, delta) or (gamma, auto_plan)")


def _check_linewidth(log2_gamma: float, path: str) -> None:
    if abs(log2_gamma) > _LINEWIDTH_LOG2:
        raise ConfigError(f"{path}: linewidth 2**{log2_gamma:.1f} squares outside the double range")


def _norm_bound(spec: ModelSpec, path: str) -> float:
    """Sum of |coefficient|, which bounds every compiled entry and eigenvalue."""
    bound = sum(abs(term.coefficient) for term in spec.terms)
    if not bound <= 2.0**_NORM_LOG2:
        raise ConfigError(f"{path}: coefficient magnitudes sum past 2**{_NORM_LOG2}, where spectra overflow")
    return bound


def check_output_dir(value, path: str) -> str:
    """An output directory the file system can name: a non-empty string, encodable and without NUL."""
    if not isinstance(value, str) or not value:
        raise ConfigError(f"{path}: expected a non-empty string")
    if "\0" in value:
        raise ConfigError(f"{path}: contains a NUL character")
    try:
        os.fsencode(value)
    except UnicodeEncodeError as exc:
        raise ConfigError(f"{path}: not a file name: {exc.reason}") from exc
    return value


def validate_config(raw: str | dict) -> ExperimentConfig:
    """Parse and validate a JSON experiment document, applying defaults."""
    if isinstance(raw, str):
        try:
            document = json.loads(raw)
        except json.JSONDecodeError as exc:
            raise ConfigError(f"invalid JSON: {exc}") from exc
    else:
        document = raw
    if not isinstance(document, dict):
        raise ConfigError("top level: expected a JSON object")
    _reject_unknown(
        document,
        ("model", "observable", "ensemble", "prep", "qpe", "shots", "seed", "output_dir"),
        "",
    )
    model = _parse_model(_require(document, "model", ""), "model")
    if model.num_sites > MAX_SITES:
        raise ConfigError(f"model.N: {model.num_sites} sites exceed the cap of {MAX_SITES}")
    observable = _parse_observable(_require(document, "observable", ""), model.num_sites, "observable")
    h_bound = _norm_bound(model, "model.terms" if "terms" in document["model"] else "model")
    o_bound = _norm_bound(observable, "observable.terms")
    # Purification and the transition weights square O's entries over 2**N states.
    # Below the normal range those squares lose digits: norms drift, moments vanish.
    squared = o_bound * o_bound
    dim = 1 << model.num_sites
    if not math.isfinite(squared * dim):
        raise ConfigError("observable.terms: squared coefficient magnitudes sum past the double range")
    if squared / dim < sys.float_info.min:
        raise ConfigError("observable.terms: squared coefficient magnitudes fall below the normal double range")
    ensemble = _parse_ensemble(document.get("ensemble", {"kind": "infinite_temperature"}), "ensemble")
    prep = _parse_prep(document.get("prep", {}), "prep")
    # Circuit preparation takes O's fourth moment, bounded by o_bound**4.
    if prep.mode == "circuit" and not math.isfinite(squared * squared):
        raise ConfigError("observable.terms: fourth powers of the coefficient magnitudes pass the double range")
    if prep.mode == "circuit" and squared * squared / dim < sys.float_info.min:
        raise ConfigError(
            "observable.terms: fourth powers of the coefficient magnitudes fall below the normal double range"
        )
    qpe_settings = _parse_qpe(_require(document, "qpe", ""), "qpe")
    # The spectrum peaks below <O^2> / gamma <= o_bound**2 / gamma.
    if not math.isfinite(o_bound * (o_bound / qpe_settings.linewidth)):
        raise ConfigError("observable.terms: squared magnitudes over the linewidth pass the double range")
    if qpe_settings.gamma is None and h_bound > 0:
        # Energy gaps are at most 2 * h_bound.
        log2_bound = math.log2(h_bound) - math.log2(math.pi)
        turns = math.log2(qpe_settings.delta) + qpe_settings.num_bits + log2_bound
        if turns > _TURNS_LOG2:
            raise ConfigError(
                f"qpe.delta: phases wind up to 2**{turns:.1f} turns, past the 2**{_TURNS_LOG2} "
                "that circuit and oracle resolve alike"
            )
    shots = _as_int(document.get("shots", 0), "shots", minimum=0)
    if shots >= 1 << 63:
        raise ConfigError("shots: must fit in 63 bits")
    seed = _as_int(document.get("seed", 0), "seed", minimum=0)
    if seed >= 1 << 64:
        raise ConfigError("seed: must fit in 64 bits")
    output_dir = check_output_dir(document.get("output_dir", "runs"), "output_dir")
    return ExperimentConfig(model, observable, ensemble, prep, qpe_settings, shots, seed, output_dir)


@dataclass(frozen=True)
class ExperimentReport:
    """Everything one run produced, serializable to JSON plus two CSV files."""

    config: ExperimentConfig
    plan: ResolutionPlan | None
    prep_stats: dict
    exact_distribution: PhaseDistribution
    oracle_distribution: PhaseDistribution
    empirical_distribution: PhaseDistribution | None
    spectrum: SpectrumTable
    distances: dict
    metadata: dict

    def to_dict(self) -> dict:
        dist = self.exact_distribution
        return {
            "schema_version": SCHEMA_VERSION,
            "config": self.config.to_dict(),
            "plan": None if self.plan is None else plan_payload(self.plan),
            "prep": self.prep_stats,
            "distribution": {
                "f": list(range(1 << dist.num_bits)),
                "omega": dist.frequencies().tolist(),
                "p_exact": dist.probabilities.tolist(),
                "p_oracle": self.oracle_distribution.probabilities.tolist(),
                "p_empirical": (
                    None
                    if self.empirical_distribution is None
                    else self.empirical_distribution.probabilities.tolist()
                ),
            },
            "spectrum": {
                "gamma": self.spectrum.gamma,
                "omega": self.spectrum.frequencies.tolist(),
                "sigma": self.spectrum.values.tolist(),
            },
            "distances": self.distances,
            "metadata": self.metadata,
        }

    def write(self, output_dir: str | Path) -> Path:
        out = Path(output_dir)
        payload = self.to_dict()
        write_json(out / "report.json", payload)
        # The CSV files hold the same tables as the report, column for column.
        columns = {name: values for name, values in payload["distribution"].items() if values is not None}
        write_csv(out / "distribution.csv", list(columns), zip(*columns.values()))
        spectrum = payload["spectrum"]
        write_csv(out / "spectrum.csv", ("omega", "sigma"), zip(spectrum["omega"], spectrum["sigma"]))
        return out


def plan_payload(plan: ResolutionPlan) -> dict:
    """A register plan as ``report.json`` and ``qspec plan`` print it."""
    return {"l": plan.num_bits, "delta": plan.delta, "omega_max": plan.omega_max, "gamma": plan.gamma}


def write_csv(path: str | Path, header: Sequence[str], rows: Iterable[Sequence]) -> None:
    """Write one CSV artifact: floats with 17 significant digits, everything else as written."""
    lines = [",".join(header)]
    lines += [",".join(f"{v:.17g}" if isinstance(v, float) else str(v) for v in row) for row in rows]
    _write_text(Path(path), "\n".join(lines) + "\n")


def write_json(path: str | Path, payload: dict) -> None:
    """Write one JSON artifact, indented by two spaces, with a final newline."""
    _write_text(Path(path), json.dumps(payload, indent=2) + "\n")


def _write_text(path: Path, text: str) -> None:
    """Create the artifact's directory and write it; the file system's refusal is a ``ConfigError``."""
    try:
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(text)
    except OSError as exc:
        raise ConfigError(f"cannot write {path}: {exc}") from exc


def _auto_plan(config: ExperimentConfig, hamiltonian) -> ResolutionPlan:
    vals = hamiltonian.eig.eigenvalues
    span = float(vals[-1] - vals[0])
    # Two-sided ensembles populate both signs of frequency, so the full
    # band to alias-protect is twice the spectral span.
    omega_max = span if config.ensemble.kind == "ground_state" else 2.0 * span
    if omega_max <= 0:
        raise ConfigError("qpe.auto_plan: model spectrum has zero bandwidth; give l and delta explicitly")
    if config.qpe.gamma >= omega_max:
        raise ConfigError(
            f"qpe.gamma: {config.qpe.gamma} does not resolve anything below the bandwidth {omega_max:.6g}"
        )
    return plan_resolution(omega_max, config.qpe.gamma)


def _distances(p: PhaseDistribution, q: PhaseDistribution) -> dict:
    return {metric: distribution_distance(p, q, metric) for metric in ("total_variation", "max_abs")}


def run_experiment(config: ExperimentConfig) -> ExperimentReport:
    """Run the full pipeline and write all artifacts to ``config.output_dir``."""
    timings: dict[str, float] = {}
    t_total = time.perf_counter()

    t0 = time.perf_counter()
    hamiltonian = build_operator(config.model)
    observable = build_operator(config.observable)
    timings["build_s"] = time.perf_counter() - t0

    plan = None
    if config.qpe.gamma is not None:
        plan = _auto_plan(config, hamiltonian)
        num_bits, delta = plan.num_bits, plan.delta
    else:
        num_bits, delta = config.qpe.num_bits, config.qpe.delta
    total_qubits = 2 * config.model.num_sites + num_bits + 1
    if total_qubits > QUBIT_CAP:
        raise ResourceCapError(
            f"run needs {total_qubits} qubits (2N + l + 1), cap is {QUBIT_CAP}"
        )

    t0 = time.perf_counter()
    prep_stats: dict = {"mode": config.prep.mode}
    if config.prep.mode == "exact":
        prepared = thermal_operator_state(observable, hamiltonian, config.ensemble)
    else:
        outcome = run_prep_circuit(observable, config.prep.epsilon, config.ensemble, hamiltonian,
                                   seed=config.seed, max_attempts=config.prep.max_attempts)
        if not outcome.accepted:
            raise PrepExhaustedError(
                f"no acceptance in {config.prep.max_attempts} attempts; exact acceptance "
                f"probability is {outcome.stats['acceptance_probability']:.6g}"
            )
        prepared = outcome.post_state
        prep_stats.update(outcome.stats)
    timings["prep_s"] = time.perf_counter() - t0

    t0 = time.perf_counter()
    exact = run_qpe(prepared, hamiltonian, num_bits, delta)
    timings["qpe_s"] = time.perf_counter() - t0

    t0 = time.perf_counter()
    # Built only after run_qpe returns: the QPE working array sets the memory peak at large N.
    table = transition_weights(hamiltonian, observable, config.ensemble)
    reference = exact_outcome_distribution(table, num_bits, delta)
    spectrum = spectral_function(table, np.sort(exact.frequencies()), config.qpe.linewidth)
    timings["oracle_s"] = time.perf_counter() - t0

    empirical = None
    if config.shots > 0:
        empirical = sample_outcomes(
            exact, config.shots, np.random.SeedSequence(config.seed, spawn_key=(_SHOT_KEY,))
        )

    distances = {"exact_vs_oracle": _distances(exact, reference)}
    if empirical is not None:
        distances["empirical_vs_exact"] = _distances(empirical, exact)

    metadata = {
        "package_version": __version__,
        "numpy_version": np.__version__,
        "python_version": platform.python_version(),
        "seed": config.seed,
        "qpe": {"l": num_bits, "delta": delta},
        "oracle": {"transitions": table.total, "kept": table.kept, "gaps": int(table.gaps.size)},
        "timings": timings,
    }
    if config.ensemble.kind == "ground_state":
        metadata["ground_state_degeneracy"] = ground_state_degeneracy(hamiltonian)
    timings["total_s"] = time.perf_counter() - t_total

    report = ExperimentReport(
        config=config,
        plan=plan,
        prep_stats=prep_stats,
        exact_distribution=exact,
        oracle_distribution=reference,
        empirical_distribution=empirical,
        spectrum=spectrum,
        distances=distances,
        metadata=metadata,
    )
    report.write(config.output_dir)
    return report

