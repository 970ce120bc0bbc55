"""Configuration-driven experiment runner.

One JSON document describes model, observable, ensemble, preparation, phase
estimation and sampling, and one 64-bit master seed makes the whole run
reproducible: component generators derive from it through fixed spawn keys,
``(1,)`` for the preparation's accepting attempt and ``(2,)`` for shot
sampling, so no amount of internal parallelism can reorder draws.
``stateprep`` takes the accepting attempt in closed form from the first
double at ``(1,)``, so a seed accepts at the same attempt whatever the budget.

A run writes two CSV files (``distribution.csv`` with columns f, omega,
p_exact, p_oracle and optionally p_empirical; ``spectrum.csv`` with columns
omega, sigma), then ``report.json``, which holds scalars and records only and
names each CSV with the sha256 of its bytes.  Every artifact of the package,
these and the ``oracle`` and ``prepstudy`` outputs of the command line, goes
through the one CSV writer ``write_csv`` and the one JSON writer
``write_json`` here.  Floats are printed with 17 significant digits, which
round-trips IEEE doubles exactly.

Determinism contract: re-running a config with the same BLAS thread count
gives byte-identical CSV files.  Across BLAS thread counts the multithreaded
BLAS/LAPACK calls can round differently, so each column is byte-identical
only up to a size (measured with OpenBLAS at 1 and 2 threads): ``f`` and the
``omega`` of both ``run`` CSVs at every N, since they come from the register
alone; ``p_exact`` and ``p_empirical``, which is drawn from it, up to N=6;
``p_oracle`` and ``sigma``, which ``oracle._transition_sum`` sums in the
same tiles, and the ``omega`` grid of the ``oracle`` command, up to N=7.  The oracle's own
worker threads, one per usable CPU, never move a byte: the CSVs are the same
at any CPU count or affinity mask for a given BLAS thread count.
"""

from __future__ import annotations

import hashlib
import json
import math
import os
import platform
import resource
import sys
import time
from dataclasses import asdict, dataclass, field
from pathlib import Path
from typing import Iterable, Mapping

import numpy as np

from . import __version__
from .errors import ConfigError, PrepExhaustedError, ResourceCapError
from .models import (
    MAX_SITES,
    MODEL_PRESETS,
    OBSERVABLE_PRESETS,
    ModelSpec,
    PauliTerm,
    build_operator,
    observable_spec,
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
from .simcore import QUBIT_CAP, EigenDecomposition
from .stateprep import run_prep_circuit

SCHEMA_VERSION = 2

#: Rows that ``write_csv`` formats, hashes and writes at a time: the write
#: holds one block of formatted text, never the whole table.
CSV_BLOCK_ROWS = 1 << 14

_SHOT_KEY = 2

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


def _parse_model(obj, path: str) -> ModelSpec:
    if not isinstance(obj, dict):
        raise ConfigError(f"{path}: expected an object")
    if "preset" in obj:
        preset = obj["preset"]
        if not isinstance(preset, str) or preset not in MODEL_PRESETS:
            raise ConfigError(f"{path}.preset: unknown preset {preset!r}; choose from {tuple(MODEL_PRESETS)}")
        builder, parameters, min_sites = MODEL_PRESETS[preset]
        _reject_unknown(obj, ("preset", "N", *parameters), path)
        num_sites = _as_int(_require(obj, "N", path), f"{path}.N", minimum=min_sites)
        # The parameters the document gives; the builder's own defaults fill the rest.
        given = {key: _as_number(obj[key], f"{path}.{key}") for key in parameters if key in obj}
        return builder(num_sites, **given)
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
    if kind == "gibbs":
        beta = _as_number(_require(obj, "beta", path), f"{path}.beta")
        try:
            return EnsembleSpec("gibbs", beta)
        except ValueError as exc:
            raise ConfigError(f"{path}.beta: {exc}") from exc
    if "beta" in obj:
        raise ConfigError(f"{path}.beta: only the gibbs ensemble takes beta")
    try:
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


def _check_winding(h_bound: float, gamma: float, path: str) -> None:
    """Reject phases past ``_TURNS_LOG2`` turns: gaps reach 2 * h_bound, and delta * 2**l is 2 * pi / gamma."""
    if h_bound > 0:
        turns = math.log2(2.0 * h_bound) - math.log2(gamma)
        if turns > _TURNS_LOG2:
            raise ConfigError(
                f"{path}: phases wind up to 2**{turns:.1f} turns, past the 2**{_TURNS_LOG2} "
                "that circuit and oracle resolve alike"
            )


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
    """Parse and validate a JSON experiment document with defaults; ``run_experiment`` adds the circuit's rules."""
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
    _norm_bound(model, "model.terms" if "terms" in document["model"] else "model")
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
    qpe_settings = _parse_qpe(_require(document, "qpe", ""), "qpe")
    # The spectrum peaks below <O^2> / gamma <= o_bound**2 / gamma.
    if not math.isfinite(o_bound * (o_bound / qpe_settings.linewidth)):
        raise ConfigError("observable.terms: squared magnitudes over the linewidth pass the double range")
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
    """One run's results: two CSV tables, and ``report.json`` naming them by sha256 in ``artifacts``."""

    config: ExperimentConfig
    plan: ResolutionPlan | None
    prep_stats: dict
    exact_distribution: PhaseDistribution
    oracle_distribution: PhaseDistribution
    empirical_distribution: PhaseDistribution | None
    spectrum: SpectrumTable
    distances: dict
    metadata: dict
    artifacts: dict = field(default_factory=dict)

    def to_dict(self) -> dict:
        return {
            "schema_version": SCHEMA_VERSION,
            "config": self.config.to_dict(),
            "plan": None if self.plan is None else plan_payload(self.plan),
            "prep": self.prep_stats,
            "spectrum": {"gamma": self.spectrum.gamma},
            "distances": self.distances,
            "artifacts": self.artifacts,
            "metadata": self.metadata,
        }

    def write(self, started: float) -> Path:
        """Write the two CSV files to ``config.output_dir``, then ``report.json`` with their digests.

        ``started`` is the run's ``time.perf_counter()`` start: ``write_s`` times the CSV write and
        ``total_s`` is taken after it, so the report's own write is the one step it leaves out.
        ``peak_rss_mb`` is the process's peak resident set at the same point, in MiB.
        """
        out = Path(self.config.output_dir)
        t0 = time.perf_counter()
        dist = self.exact_distribution
        columns = {"f": np.arange(1 << dist.num_bits), "omega": dist.frequencies,
                   "p_exact": dist.probabilities, "p_oracle": self.oracle_distribution.probabilities}
        if self.empirical_distribution is not None:
            columns["p_empirical"] = self.empirical_distribution.probabilities
        self.artifacts["distribution.csv"] = write_csv(out / "distribution.csv", columns)
        columns = {"omega": self.spectrum.frequencies, "sigma": self.spectrum.values}
        self.artifacts["spectrum.csv"] = write_csv(out / "spectrum.csv", columns)
        timings = self.metadata["timings"]
        timings["write_s"] = time.perf_counter() - t0
        timings["total_s"] = time.perf_counter() - started
        # ru_maxrss is in KiB on Linux and in bytes on macOS.
        peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        self.metadata["peak_rss_mb"] = peak / (2**20 if sys.platform == "darwin" else 1024)
        write_json(out / "report.json", self.to_dict())
        return out


def plan_payload(plan: ResolutionPlan) -> dict:
    """A register plan as ``report.json`` and ``qspec plan`` print it."""
    return {"l": plan.num_bits, "delta": plan.delta, "omega_max": plan.omega_max, "gamma": plan.gamma}


def write_csv(path: str | Path, columns: Mapping[str, Iterable]) -> str:
    """Write one CSV artifact from named, equally long columns; return the sha256 of its bytes.

    One row format serves the whole table: a float column prints with 17
    significant digits, any other column as ``str``.  Rows are formatted,
    hashed and written ``CSV_BLOCK_ROWS`` at a time, each block from Python
    scalars (``tolist``), which format faster than numpy's to the same bytes.
    """
    arrays = [np.asarray(column) for column in columns.values()]
    row = ",".join("{:.17g}" if array.dtype.kind == "f" else "{}" for array in arrays) + "\n"

    def blocks():
        yield (",".join(columns) + "\n").encode()
        for start in range(0, len(arrays[0]), CSV_BLOCK_ROWS):
            block = [array[start : start + CSV_BLOCK_ROWS].tolist() for array in arrays]
            yield "".join(map(row.format, *block)).encode()

    return _write_blocks(Path(path), blocks())


def write_json(path: str | Path, payload: dict) -> None:
    """Write one JSON artifact, indented by two spaces, with a final newline."""
    _write_blocks(Path(path), [(json.dumps(payload, indent=2) + "\n").encode()])


def _write_blocks(path: Path, blocks: Iterable[bytes]) -> str:
    """Create the artifact's directory, write the blocks and return their sha256.

    The file system's refusal is a ``ConfigError``.
    """
    digest = hashlib.sha256()
    try:
        path.parent.mkdir(parents=True, exist_ok=True)
        with path.open("wb") as stream:
            for block in blocks:
                digest.update(block)
                stream.write(block)
    except OSError as exc:
        raise ConfigError(f"cannot write {path}: {exc}") from exc
    return digest.hexdigest()


def _auto_plan(config: ExperimentConfig, eig_h: EigenDecomposition) -> ResolutionPlan:
    # outcome_frequency wraps the upper half of every register to negative
    # frequencies whatever the ensemble, so the band is twice H's span.
    omega_max = 2.0 * eig_h.span
    if omega_max <= 0:
        raise ConfigError("qpe.auto_plan: model spectrum has zero bandwidth; give l and delta explicitly")
    if config.qpe.gamma >= omega_max:
        raise ConfigError(
            f"qpe.gamma: {config.qpe.gamma} does not resolve anything below the bandwidth {omega_max:.6g}"
        )
    return plan_resolution(omega_max, config.qpe.gamma)


def _check_qubits(num_sites: int, num_bits: int) -> None:
    total_qubits = 2 * num_sites + num_bits + 1
    if total_qubits > QUBIT_CAP:
        raise ResourceCapError(f"run needs {total_qubits} qubits (2N + l + 1), cap is {QUBIT_CAP}")


def _distances(p: PhaseDistribution, q: PhaseDistribution) -> dict:
    return {metric: distribution_distance(p, q, metric) for metric in ("total_variation", "max_abs")}


def run_experiment(config: ExperimentConfig) -> ExperimentReport:
    """Run the full pipeline and write all artifacts to ``config.output_dir``."""
    # The circuit's own bounds, from the config before any operator is built: O's fourth power, winding, qubits.
    if config.prep.mode == "circuit":
        o_bound = _norm_bound(config.observable, "observable.terms")
        fourth = (o_bound * o_bound) * (o_bound * o_bound)
        if not math.isfinite(fourth):
            raise ConfigError("observable.terms: fourth powers of the coefficient magnitudes pass the double range")
        if fourth / (1 << config.model.num_sites) < sys.float_info.min:
            raise ConfigError(
                "observable.terms: fourth powers of the coefficient magnitudes fall below the normal double range"
            )
    _check_winding(_norm_bound(config.model, "model"), config.qpe.linewidth,
                   "qpe.gamma" if config.qpe.gamma is not None else "qpe.delta")
    _check_qubits(config.model.num_sites, config.qpe.num_bits or 1)  # a planned register has l >= 1
    timings: dict[str, float] = {}
    t_total = time.perf_counter()

    t0 = time.perf_counter()
    # Every stage reads H through its decomposition alone, so H's dense matrix
    # is freed here, before the circuit's working array sets the memory peak.
    eig_h = build_operator(config.model).eig
    observable = build_operator(config.observable)
    timings["build_s"] = time.perf_counter() - t0

    plan = None
    if config.qpe.gamma is not None:
        plan = _auto_plan(config, eig_h)
        num_bits, delta = plan.num_bits, plan.delta
        _check_qubits(config.model.num_sites, num_bits)
    else:
        num_bits, delta = config.qpe.num_bits, config.qpe.delta

    t0 = time.perf_counter()
    prep_stats: dict = {"mode": config.prep.mode}
    if config.prep.mode == "exact":
        prepared = thermal_operator_state(observable, eig_h, config.ensemble)
    else:
        outcome = run_prep_circuit(observable, eig_h, config.ensemble, config.prep.epsilon,
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
    exact = run_qpe(prepared, eig_h, num_bits, delta)
    timings["qpe_s"] = time.perf_counter() - t0

    t0 = time.perf_counter()
    # Built only after run_qpe returns and frees its working array, which with
    # one block of rows (see ``qpe``) sets the memory peak at large N.
    table = transition_weights(eig_h, observable, config.ensemble)
    reference = exact_outcome_distribution(table, num_bits, delta)
    spectrum = spectral_function(table, np.sort(exact.frequencies), config.qpe.linewidth)
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
        metadata["ground_state_degeneracy"] = ground_state_degeneracy(eig_h)

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
    report.write(t_total)
    return report

