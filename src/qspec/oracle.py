"""Exact-diagonalization references for every circuit result.

Correlation functions and Lorentzian spectra are evaluated in closed form
from the spectral decomposition, never by numerical time integration; the
frequency convention puts the absorption peak of a transition n -> m at
``omega = e_m - e_n`` and is locked by a two-level regression test.  The
phase-register leakage kernel and the closed-form outcome distribution give
an independent route to the same statistics the circuit produces, which the
test-suite compares bin by bin.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import numpy as np

from .errors import DimensionMismatchError, ZeroOperatorError
from .purify import INFINITE_TEMPERATURE, EnsembleSpec, ensemble_populations, thermal_operator_state
from .qpe import PhaseDistribution
from .simcore import HermitianOperator


@dataclass(frozen=True)
class SpectrumTable:
    """Spectral function values on a frequency grid."""

    frequencies: np.ndarray
    values: np.ndarray
    gamma: float
    ensemble: EnsembleSpec

    def __post_init__(self) -> None:
        freqs = np.asarray(self.frequencies, dtype=float)
        vals = np.asarray(self.values, dtype=float)
        object.__setattr__(self, "frequencies", freqs)
        object.__setattr__(self, "values", vals)
        if freqs.shape != vals.shape:
            raise DimensionMismatchError("frequency and value grids differ in length")
        if not np.all(np.isfinite(vals)):
            raise ValueError("spectrum contains non-finite values")

    def to_dict(self) -> dict:
        return {
            "gamma": self.gamma,
            "ensemble": {"kind": self.ensemble.kind, "beta": self.ensemble.beta},
            "omega": self.frequencies.tolist(),
            "sigma": self.values.tolist(),
        }

    def to_json(self, path: str | Path) -> None:
        Path(path).write_text(json.dumps(self.to_dict(), indent=2) + "\n")

    def to_csv(self, path: str | Path) -> None:
        lines = ["omega,sigma"]
        lines += [f"{w:.17g},{s:.17g}" for w, s in zip(self.frequencies, self.values)]
        Path(path).write_text("\n".join(lines) + "\n")


@dataclass(frozen=True)
class GoldenRuleWeights:
    """Normalized transition weights |c_nm|^2 between energy eigenstates.

    ``weights`` comes from the purified operator state and is what the
    phase-estimation outcome distribution uses.  For a real eigenbasis it
    equals the squared matrix elements ``|<E_n|O|E_m>|^2 / tr O^2``; when
    the two routes differ (complex eigenvectors without time-reversal
    symmetry) the matrix-element form is reported alongside.
    """

    weights: np.ndarray
    energies: np.ndarray
    matrix_element_weights: np.ndarray | None = None

    def __post_init__(self) -> None:
        w = np.asarray(self.weights, dtype=float)
        object.__setattr__(self, "weights", w)
        if w.min() < -1e-12:
            raise ValueError("negative transition weight")
        if abs(w.sum() - 1.0) > 1e-10:
            raise ValueError(f"weights sum to {w.sum():.12f}")


def _transition_sum(
    hamiltonian: HermitianOperator, operator: HermitianOperator, ensemble: EnsembleSpec,
    points: np.ndarray, dtype: type, kernel: Callable[[np.ndarray, np.ndarray, np.ndarray], None],
) -> np.ndarray:
    """Sum over transitions n -> m of ``pops_n |O_nm|^2 * kernel(point, e_n - e_m)``.

    ``kernel(block, gaps, out)`` fills the (points, transitions) matrix
    ``out`` in place; the points go through it in blocks of about 2**22
    matrix entries, all evaluated into one reused buffer.
    """
    if hamiltonian.dim != operator.dim:
        raise DimensionMismatchError(
            f"Hamiltonian dim {hamiltonian.dim} vs operator dim {operator.dim}"
        )
    eig = hamiltonian.eig
    pops = ensemble_populations(eig, ensemble)
    w = np.abs(eig.eigenvectors.conj().T @ operator.matrix @ eig.eigenvectors) ** 2
    w = (pops[:, None] * w).reshape(-1)
    gaps = (eig.eigenvalues[:, None] - eig.eigenvalues[None, :]).reshape(-1)
    out = np.empty(points.shape, dtype=dtype)
    chunk = max(1, (1 << 22) // max(gaps.size, 1))
    buffer = np.empty((min(chunk, points.size), gaps.size), dtype=dtype)
    for start in range(0, points.size, chunk):
        block = points[start : start + chunk]
        tile = buffer[: block.size]
        kernel(block, gaps, tile)
        out[start : start + chunk] = tile @ w
    return out


def correlation_series(
    hamiltonian: HermitianOperator,
    operator: HermitianOperator,
    times: np.ndarray,
    ensemble: EnsembleSpec = INFINITE_TEMPERATURE,
) -> np.ndarray:
    """<O(t) O(0)> on an array of times, evaluated in the energy eigenbasis."""
    times = np.asarray(times, dtype=float)

    def kernel(block, gaps, out):
        np.multiply.outer(block, gaps, out=out)
        np.multiply(1j, out, out=out)
        np.exp(out, out=out)

    return _transition_sum(hamiltonian, operator, ensemble, times, complex, kernel)


def correlation_function(
    hamiltonian: HermitianOperator,
    operator: HermitianOperator,
    t: float,
    ensemble: EnsembleSpec = INFINITE_TEMPERATURE,
) -> complex:
    """Two-time correlation of the observable at time t in the given ensemble."""
    return complex(correlation_series(hamiltonian, operator, np.array([t]), ensemble)[0])


def spectral_function(
    hamiltonian: HermitianOperator,
    operator: HermitianOperator,
    omega_grid: np.ndarray,
    gamma: float,
    ensemble: EnsembleSpec = INFINITE_TEMPERATURE,
) -> SpectrumTable:
    """Lorentzian-broadened spectrum, summed in closed form over transitions.

    Each transition n -> m contributes weight ``pops_n |O_nm|^2`` under a
    Lorentzian of half-width gamma centred at ``omega = e_m - e_n``; this is
    the half-line Fourier-Laplace transform of the correlation series.
    """
    if gamma <= 0:
        raise ValueError("gamma must be positive")
    omega = np.asarray(omega_grid, dtype=float)

    def kernel(block, gaps, out):
        np.add(block[:, None], gaps[None, :], out=out)
        # A detuning past sqrt(max double) squares to inf, and gamma / inf is
        # the Lorentzian's exact limit 0: the overflow is not an error.
        with np.errstate(over="ignore"):
            np.square(out, out=out)
        np.add(gamma**2, out, out=out)
        np.divide(gamma, out, out=out)

    values = _transition_sum(hamiltonian, operator, ensemble, omega, float, kernel)
    return SpectrumTable(omega, values, gamma, ensemble)


def transition_weights(
    hamiltonian: HermitianOperator,
    operator: HermitianOperator,
    ensemble: EnsembleSpec = INFINITE_TEMPERATURE,
) -> GoldenRuleWeights:
    """|c_nm|^2 of the prepared purified state, resolved in the energy eigenbasis."""
    prepared = thermal_operator_state(operator, hamiltonian, ensemble)
    eig = hamiltonian.eig
    mat = prepared.amplitudes.reshape(hamiltonian.dim, hamiltonian.dim)
    coeffs = eig.eigenvectors.conj().T @ mat @ eig.eigenvectors.conj()
    return GoldenRuleWeights(np.abs(coeffs) ** 2, eig.eigenvalues)


def golden_rule_weights(
    hamiltonian: HermitianOperator,
    operator: HermitianOperator,
) -> GoldenRuleWeights:
    """Infinite-temperature transition weights with the matrix-element cross-check."""
    trace_sq = float(np.sum(np.abs(operator.matrix) ** 2))
    if trace_sq <= 1e-24:
        raise ZeroOperatorError("zero operator has no transition weights")
    operational = transition_weights(hamiltonian, operator, INFINITE_TEMPERATURE)
    eig = hamiltonian.eig
    elements = eig.eigenvectors.conj().T @ operator.matrix @ eig.eigenvectors
    direct = np.abs(elements) ** 2 / trace_sq
    if float(np.max(np.abs(direct - operational.weights))) <= 1e-12:
        return operational
    return GoldenRuleWeights(operational.weights, operational.energies, direct)


def _kernel(offsets: np.ndarray, num_bits: int) -> np.ndarray:
    """Squared leakage amplitude at the given bin offsets (2**l periodic).

    Written through the sinc ratio sin(pi r)/(2**l sin(pi r / 2**l)) squared,
    which evaluates the removable singularity at zero offset exactly.
    """
    dim = 1 << num_bits
    reduced = offsets - dim * np.round(offsets / dim)
    return (np.sinc(reduced) / np.sinc(reduced / dim)) ** 2


def qpe_kernel(delta_energy: float, f: int, num_bits: int, delta: float) -> float:
    """Probability leak of a transition with energy gap delta_energy into bin f.

    Equals 1 when the gap lands exactly on the bin, vanishes on other
    integer offsets, and is bounded below by sinc^2 of the offset.
    """
    if not 0 <= f < (1 << num_bits):
        raise ValueError(f"outcome {f} out of range for {num_bits} bits")
    offset = delta * (1 << num_bits) * delta_energy / (2.0 * math.pi) - f
    return float(_kernel(np.array([offset]), num_bits)[0])


def exact_outcome_distribution(
    hamiltonian: HermitianOperator,
    operator: HermitianOperator,
    num_bits: int,
    delta: float,
    ensemble: EnsembleSpec = INFINITE_TEMPERATURE,
) -> PhaseDistribution:
    """Closed-form phase-register distribution: transition weights times kernel leakage.

    A transition at phase ``p = delta * 2**l * gap / 2pi`` leaks into bin f
    with ``sin^2(pi frac) / (2**l sin(pi r / 2**l))^2``, where
    ``frac = p - round(p)`` and ``r = frac + j`` for the integer
    ``j = round(p) - f`` wrapped into the register.  This is ``_kernel`` with
    its numerator computed once per transition.
    """
    if delta <= 0:
        raise ValueError("delta must be positive")
    tw = transition_weights(hamiltonian, operator, ensemble)
    dim, half = 1 << num_bits, 1 << (num_bits - 1)
    gaps = (tw.energies[:, None] - tw.energies[None, :]).reshape(-1)
    phases = delta * dim * gaps / (2.0 * math.pi)
    del gaps
    nearest = np.round(phases)
    frac = phases - nearest
    hit = (nearest - dim * np.floor(nearest / dim)).astype(np.intp)  # the bin with j = 0
    # Row h of the wrapped offsets ((h - f + half) mod dim) - half is a window of
    # one ramp, so the (transitions, 2**l) buffer is a gather of rows; it is then
    # evaluated in place, since the kernel sets the run's memory peak at large N.
    ramp = (dim - 1 + half - np.arange(2 * dim - 1.0)) % dim - half
    r = np.lib.stride_tricks.sliding_window_view(ramp, dim)[dim - 1 - hit]
    r += frac[:, None]
    r *= np.pi / dim
    np.sin(r, out=r)
    np.square(r, out=r)
    numerator = np.sin(np.pi * frac)
    numerator *= numerator / dim**2
    # Near a zero offset this divides two vanishing squares (0/0 at zero); there
    # the j = 0 entry takes _kernel's sinc ratio, which is 1 to within a few ulp
    # for |frac| below sqrt(eps) and exactly 1 at zero.
    with np.errstate(divide="ignore", invalid="ignore"):
        np.divide(numerator[:, None], r, out=r)
    near = np.flatnonzero(np.abs(frac) < 2.0**-26)
    r[near, hit[near]] = _kernel(frac[near], num_bits)
    probs = tw.weights.reshape(-1) @ r
    return PhaseDistribution(num_bits, delta, probs, kind="exact")


def distribution_distance(p, q, metric: str = "total_variation") -> float:
    """Total-variation or max-abs distance between two outcome distributions."""
    pv = np.asarray(getattr(p, "probabilities", p), dtype=float)
    qv = np.asarray(getattr(q, "probabilities", q), dtype=float)
    if pv.shape != qv.shape:
        raise DimensionMismatchError(f"length mismatch {pv.shape} vs {qv.shape}")
    for name, vec in (("p", pv), ("q", qv)):
        if abs(vec.sum() - 1.0) > 1e-6:
            raise ValueError(f"{name} is not normalized (sums to {vec.sum():.9f})")
    if metric == "total_variation":
        return float(0.5 * np.abs(pv - qv).sum())
    if metric == "max_abs":
        return float(np.max(np.abs(pv - qv)))
    raise ValueError(f"unknown metric {metric!r}; use total_variation or max_abs")
