"""Exact-diagonalization references for every circuit result.

Correlation functions and Lorentzian spectra are evaluated in closed form
from the spectral decomposition, never by numerical time integration; the
frequency convention puts the absorption peak of a transition n -> m at
``omega = e_m - e_n`` and is locked by a two-level regression test.  The
phase-register leakage kernel and the closed-form outcome distribution give
an independent route to the same statistics the circuit produces, which the
test-suite compares bin by bin.

Every consumer reads one ``TransitionTable`` per run, built by
``transition_weights``: the observable in H's eigenbasis ``O_e = V^dagger O V``
and the ensemble populations p, computed once, list each transition n -> m
with its energy difference ``e_m - e_n`` and weight ``p_n |O_e,nm|^2``.  The
oracle shares no purification code with the circuit; it uses only
``purify.ensemble_populations`` and the annihilation rule
``purify.reject_annihilation``.

The table is pruned: of its T = 4**N transitions it drops every one whose
weight is at most ``2**-60 * sum(w) / T``.  The dropped mass is then at most
``2**-60`` of the total, so each oracle probability moves by at most
``2**-60`` and each spectrum value by at most ``2**-60 * sum(w) / gamma``.
In a reflection-symmetric model about half of the transitions carry weight
that symmetry makes exactly zero, and rounding leaves them far below that
threshold.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .errors import DimensionMismatchError
from .purify import INFINITE_TEMPERATURE, EnsembleSpec, ensemble_populations, reject_annihilation
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


#: The pruning share of the module docstring: the bound on the dropped mass.
PRUNE_SHARE = 2.0**-60

#: Shape (points, transitions) of one tile of ``_transition_sum``: 2**16
#: doubles (512 KiB) stay in a core's L2 cache through the kernel's passes,
#: and several points per tile make its product a matrix-vector one.  Fewer
#: transitions than a tile row leave room for more points.
TILE = (8, 1 << 13)


@dataclass(frozen=True)
class TransitionTable:
    """The transitions n -> m of one run that carry weight, in closed form.

    ``energies`` holds ``e_m - e_n`` and ``weights`` holds ``p_n |O_nm|^2``
    (O in H's eigenbasis, p the ensemble populations) for each kept
    transition; ``index`` is its flat position ``n * dim + m``.  The spectrum
    and the correlation series sum ``weights``.  ``phase_weights`` is what
    the phase register sees of the same transition, unnormalized, with
    ``mass`` its sum over all ``total`` transitions before pruning: for a
    real eigenbasis (or the ground state) it is ``weights`` itself, and for
    a complex one it carries the factor ``(V^T V)^*`` of ``transition_weights``.
    """

    energies: np.ndarray
    weights: np.ndarray
    phase_weights: np.ndarray
    mass: float
    index: np.ndarray
    total: int
    ensemble: EnsembleSpec

    @property
    def kept(self) -> int:
        return int(self.index.size)


def _keep(weights: np.ndarray) -> np.ndarray:
    """Mask of the weights above ``PRUNE_SHARE`` of their mean; one pass, no sort."""
    return weights > PRUNE_SHARE * weights.sum() / weights.size


def transition_weights(
    hamiltonian: HermitianOperator,
    operator: HermitianOperator,
    ensemble: EnsembleSpec = INFINITE_TEMPERATURE,
) -> TransitionTable:
    """The run's one transition table: O in H's eigenbasis once, pruned by mass.

    The circuit evolves the purified state's matrix ``M`` (see ``purify``)
    written as ``V c V^T``, and its phase register sees ``|c_nm|^2`` at gap
    ``e_n - e_m``.  At infinite temperature and Gibbs, ``M = O V diag(sqrt(p))
    V^dagger`` gives ``c = O_e diag(sqrt(p)) (V^T V)^*``; for a real eigenbasis
    the last factor is the identity and ``|c_mn|^2 = p_n |O_nm|^2``, the
    spectral weight of n -> m.  The ground state's ``M = O psi_0 psi_0^T``
    gives ``c = O_e diag(sqrt(p))`` for any eigenbasis.  Only a complex
    eigenbasis away from the ground state pays the extra product.

    A transition is dropped only when its weight is at most ``PRUNE_SHARE``
    times the mean weight in each column (spectral and, if separate, phase),
    so the pruned mass is at most ``PRUNE_SHARE`` of each column's total.
    The phase mass is ``<O^2>`` in the base state, and an observable that
    annihilates the base state is rejected (``purify.reject_annihilation``).
    """
    if hamiltonian.dim != operator.dim:
        raise DimensionMismatchError(
            f"Hamiltonian dim {hamiltonian.dim} vs operator dim {operator.dim}"
        )
    eig = hamiltonian.eig
    vecs, levels = eig.eigenvectors, eig.eigenvalues
    pops = ensemble_populations(eig, ensemble)
    elements = vecs.conj().T @ operator.matrix @ vecs
    squares = np.abs(elements) ** 2
    weights = (squares * pops[:, None]).reshape(-1)
    keep = _keep(weights)
    phase = weights
    if np.iscomplexobj(vecs) and ensemble.kind != "ground_state":
        coeffs = (elements * np.sqrt(pops)) @ (vecs.T @ vecs).conj()
        phase = (np.abs(coeffs) ** 2).T.reshape(-1)
        keep |= _keep(phase)
    mass = float(phase.sum())
    reject_annihilation(mass, float(squares.sum()) / eig.dim, ensemble)
    index = np.flatnonzero(keep)
    initial, final = np.divmod(index, eig.dim)
    kept = weights[index]
    return TransitionTable(
        energies=levels[final] - levels[initial],
        weights=kept,
        phase_weights=kept if phase is weights else phase[index],
        mass=mass,
        index=index,
        total=weights.size,
        ensemble=ensemble,
    )


def _transition_sum(
    table: TransitionTable, points: np.ndarray, dtype: type,
    kernel: Callable[[np.ndarray, np.ndarray, np.ndarray], None],
) -> np.ndarray:
    """Sum over kept transitions of ``weight * kernel(point, e_m - e_n)``.

    ``kernel(block, energies, out)`` fills the (points, transitions) tile
    ``out`` in place, one ``TILE`` at a time; each block of transitions
    stays in cache while every block of points passes over it.
    """
    out = np.zeros(points.shape, dtype=dtype)
    cols = min(max(table.kept, 1), TILE[1])
    rows = TILE[0] * TILE[1] // cols
    buffer = np.empty(rows * cols, dtype=dtype)
    for start in range(0, table.kept, cols):
        energies = table.energies[start : start + cols]
        weights = table.weights[start : start + cols]
        for row in range(0, points.size, rows):
            block = points[row : row + rows]
            tile = buffer[: block.size * energies.size].reshape(block.size, energies.size)
            kernel(block, energies, tile)
            out[row : row + rows] += tile @ weights
    return out


def correlation_series(table: TransitionTable, times: np.ndarray) -> np.ndarray:
    """<O(t) O(0)> on an array of times, summed over the table's transitions."""
    times = np.asarray(times, dtype=float)

    def kernel(block, energies, out):
        np.multiply.outer(block, energies, out=out)
        np.multiply(-1j, out, out=out)
        np.exp(out, out=out)

    return _transition_sum(table, times, complex, kernel)


def spectral_function(table: TransitionTable, omega_grid: np.ndarray, gamma: float) -> SpectrumTable:
    """Lorentzian-broadened spectrum, summed in closed form over transitions.

    Each transition n -> m contributes weight ``p_n |O_nm|^2`` under a
    Lorentzian of half-width gamma centred at ``omega = e_m - e_n``; this is
    the half-line Fourier-Laplace transform of the correlation series.  The
    Lorentzian is evaluated as ``(1/gamma) / (1 + (x/gamma)**2)`` for every
    gamma, with ``1/gamma`` computed once and ``x/gamma`` as a product with it:
    a detuning ratio or square past the double range is inf, and the term
    then takes its exact limit 0.
    """
    if gamma <= 0:
        raise ValueError("gamma must be positive")
    omega = np.asarray(omega_grid, dtype=float)
    height = 1.0 / gamma

    def kernel(block, energies, out):
        np.subtract(block[:, None], energies[None, :], out=out)
        np.multiply(out, height, out=out)
        np.square(out, out=out)
        np.add(1.0, out, out=out)
        np.divide(height, out, out=out)

    with np.errstate(over="ignore"):
        values = _transition_sum(table, omega, float, kernel)
    return SpectrumTable(omega, values, gamma, table.ensemble)


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


def exact_outcome_distribution(table: TransitionTable, num_bits: int, delta: float) -> PhaseDistribution:
    """Closed-form phase-register distribution: the table's phase weights times kernel leakage.

    A transition at phase ``p = delta * 2**l * gap / 2pi`` leaks into bin f
    with ``sin^2(pi frac) / (2**l sin(pi r / 2**l))^2``, where
    ``frac = p - round(p)`` and ``r = frac + j`` for the integer
    ``j = round(p) - f`` wrapped into the register.  This is ``_kernel`` with
    its numerator computed once per transition.
    """
    if delta <= 0:
        raise ValueError("delta must be positive")
    dim, half = 1 << num_bits, 1 << (num_bits - 1)
    phases = delta * dim * table.energies / (2.0 * math.pi)
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
    probs = table.phase_weights @ r
    probs /= table.mass
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
