"""Probabilistic preparation of the purified operator state.

The circuit entangles a fresh ancilla with copy a of the doubled register:
Hadamard, controlled ``exp(1j * phi * O)``, Hadamard, then postselection of
the ancilla on ``|1>``.  Postselection succeeds with probability
``P1 = <sin^2(phi*O/2)>`` and the accepted branch has fidelity

    F = |<O (1 - exp(1j*phi*O))>|^2 / (<O^2> <4 sin^2(phi*O/2)>)

with the target operator state, all expectations taken in the ensemble's
base state.  Keeping the identity part in the numerator makes F exactly
``|<target|accepted>|^2`` even when the observable carries a trace or the
ensemble is at finite temperature; it reduces to ``|<O U(phi)>|^2``
whenever ``<O> = 0``.

Both branch norms are always computed exactly; the seeded Bernoulli draw
only decides which branch an end-to-end run keeps.  The circuit is
deterministic apart from that draw, so ``simulate_prep_circuit`` runs it
once and repeated attempts only redraw against the same P1.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

import numpy as np

from .errors import DegenerateAngleError, ResourceCapError, ZeroOperatorError
from .models import EigenvalueDistribution, analytic_moments
from .purify import (
    INFINITE_TEMPERATURE,
    EnsembleSpec,
    base_state,
    ensemble_populations,
    thermal_operator_state,
)
from .simcore import (
    QUBIT_CAP,
    HermitianOperator,
    StateVector,
    apply_controlled_unitary,
    apply_unitary,
    basis_state,
    overlap,
    tensor_product,
)

_HADAMARD = np.array([[1, 1], [1, -1]], dtype=complex) / np.sqrt(2)

TRACE_TOL = 1e-12

#: A second moment at or below this multiple of max|o|^2 is rounding noise:
#: O then leaves the base state a norm sqrt(m2) below 1e-12 * max|o|, the
#: floor at which ``thermal_operator_state`` rejects the state (for |O| ~ 1).
M2_RTOL = 1e-24


class NonTracelessWarning(UserWarning):
    """The observable has a nonzero trace; the cubic moment handles the asymmetry.

    The closed-form ``acceptance_probability`` and ``preparation_fidelity``
    warn; a run records ``traceless`` in its prep statistics instead.
    """


@dataclass(frozen=True)
class MomentSet:
    """Second to fourth moments of the observable in the ensemble's base state."""

    m2: float
    m3: float
    m4: float

    def __post_init__(self) -> None:
        if not self.m2 > 0:
            raise ZeroOperatorError("second moment must be positive")
        if not self.m4 > 0:
            raise ZeroOperatorError("fourth moment underflows to zero")
        if self.m4 < self.m2**2 - 1e-12 * max(1.0, self.m2**2):
            raise ValueError("moments violate m4 >= m2^2")


@dataclass(frozen=True)
class PrepOutcome:
    """Result of one preparation attempt; exact fields are filled regardless of the draw."""

    accepted: bool
    acceptance_probability: float
    fidelity_with_target: float
    post_state: StateVector | None = None

    def __post_init__(self) -> None:
        if not 0.0 <= self.acceptance_probability <= 1.0:
            raise ValueError("acceptance probability outside [0, 1]")
        if not 0.0 <= self.fidelity_with_target <= 1.0 + 1e-12:
            raise ValueError("fidelity outside [0, 1]")


@dataclass(frozen=True)
class SuccessBound:
    """Predicted acceptance at the chosen angle and its spectral lower bounds."""

    predicted_p1: float
    spectral_bound: float
    rank_bound: float
    o_max: float
    o_min: float
    rank: int


def is_traceless(operator: HermitianOperator) -> bool:
    """Whether tr(O)/dim is within ``TRACE_TOL`` of zero."""
    return bool(abs(np.trace(operator.matrix).real) / operator.dim <= TRACE_TOL)


def _warn_if_traced(operator: HermitianOperator) -> None:
    if not is_traceless(operator):
        warnings.warn(
            "observable is not traceless; odd moments enter the fidelity expansion",
            NonTracelessWarning,
            stacklevel=3,
        )


def _eigen_weights(
    operator: HermitianOperator,
    ensemble: EnsembleSpec,
    hamiltonian: HermitianOperator | None,
) -> tuple[np.ndarray, np.ndarray]:
    """Eigenvalues of O and their occupation probabilities in the base state."""
    eig_o = operator.eig
    if ensemble.kind == "infinite_temperature":
        return eig_o.eigenvalues, np.full(operator.dim, 1.0 / operator.dim)
    if hamiltonian is None:
        raise ValueError(f"{ensemble.kind} expectations require the Hamiltonian")
    eig_h = hamiltonian.eig
    pops = ensemble_populations(eig_h, ensemble)
    amp = eig_o.eigenvectors.conj().T @ eig_h.eigenvectors
    q = (np.abs(amp) ** 2) @ pops
    return eig_o.eigenvalues, q


def _second_moment(vals: np.ndarray, q: np.ndarray) -> float:
    """<O^2>; rejected when it is at rounding scale (see ``M2_RTOL``)."""
    m2 = float(q @ vals**2)
    if m2 <= M2_RTOL * float(np.max(vals**2)):
        raise ZeroOperatorError("observable has zero second moment in this ensemble")
    return m2


def moments(
    operator: HermitianOperator,
    ensemble: EnsembleSpec = INFINITE_TEMPERATURE,
    hamiltonian: HermitianOperator | None = None,
) -> MomentSet:
    """<O^2>, <O^3>, <O^4> in the ensemble's base state."""
    vals, q = _eigen_weights(operator, ensemble, hamiltonian)
    return MomentSet(_second_moment(vals, q), float(q @ vals**3), float(q @ vals**4))


def acceptance_probability(
    operator: HermitianOperator,
    phi: float,
    ensemble: EnsembleSpec = INFINITE_TEMPERATURE,
    hamiltonian: HermitianOperator | None = None,
) -> float:
    """Exact postselection probability <sin^2(phi*O/2)> in the base state."""
    _warn_if_traced(operator)
    vals, q = _eigen_weights(operator, ensemble, hamiltonian)
    return float(q @ np.sin(0.5 * phi * vals) ** 2)


def preparation_fidelity(
    operator: HermitianOperator,
    phi: float,
    ensemble: EnsembleSpec = INFINITE_TEMPERATURE,
    hamiltonian: HermitianOperator | None = None,
) -> float:
    """Squared overlap of the accepted branch with the target operator state."""
    if phi == 0.0:
        raise DegenerateAngleError("fidelity is undefined at phi = 0")
    _warn_if_traced(operator)
    vals, q = _eigen_weights(operator, ensemble, hamiltonian)
    numerator = abs(np.sum(q * vals * (1.0 - np.exp(1j * phi * vals)))) ** 2
    m2 = _second_moment(vals, q)
    branch = float(q @ (2.0 - 2.0 * np.cos(phi * vals)))
    if branch <= 1e-24:
        raise DegenerateAngleError("accepted branch has zero norm at this angle")
    return float(numerator / (m2 * branch))


def simulate_prep_circuit(
    operator: HermitianOperator,
    phi: float,
    ensemble: EnsembleSpec = INFINITE_TEMPERATURE,
    hamiltonian: HermitianOperator | None = None,
) -> tuple[float, StateVector, float]:
    """Simulate Hadamard, controlled exp(1j*phi*O), Hadamard on an appended ancilla.

    The ancilla is the least significant qubit.  Returns the exact,
    unclipped acceptance probability P1, the normalized accepted branch and
    its fidelity with the target operator state.
    """
    base = base_state(ensemble, hamiltonian=hamiltonian, num_sites=operator.num_qubits)
    n = base.num_qubits
    if n + 1 > QUBIT_CAP:
        raise ResourceCapError(f"prep circuit needs {n + 1} qubits, cap is {QUBIT_CAP}")

    state = tensor_product(base, basis_state(1, 0))
    ancilla = n
    state = apply_unitary(state, _HADAMARD, (ancilla,))
    rotation = operator.eig.apply_function(lambda v: np.exp(1j * phi * v))
    state = apply_controlled_unitary(
        state, ancilla, rotation, range(operator.num_qubits), validate=False
    )
    state = apply_unitary(state, _HADAMARD, (ancilla,))

    branches = state.amplitudes.reshape(-1, 2)  # ancilla is the last qubit
    p1 = float(np.linalg.norm(branches[:, 1]) ** 2)
    if p1 <= 1e-24:
        raise DegenerateAngleError("rotation angle leaves the accepted branch empty")
    post = StateVector(n, branches[:, 1] / np.sqrt(p1))
    target = thermal_operator_state(operator, hamiltonian, ensemble)
    fidelity = min(abs(overlap(target, post)) ** 2, 1.0)
    return p1, post, fidelity


def run_prep_circuit(
    operator: HermitianOperator,
    phi: float,
    ensemble: EnsembleSpec = INFINITE_TEMPERATURE,
    seed: int | np.random.SeedSequence = 0,
    hamiltonian: HermitianOperator | None = None,
) -> PrepOutcome:
    """One preparation attempt: the simulated circuit plus a seeded ancilla draw.

    Branch norms and the fidelity come from the exact state; only
    ``accepted`` is random.
    """
    p1, post, fidelity = simulate_prep_circuit(operator, phi, ensemble, hamiltonian)
    accepted = bool(np.random.default_rng(seed).random() < p1)
    return PrepOutcome(
        accepted=accepted,
        acceptance_probability=min(p1, 1.0),
        fidelity_with_target=fidelity,
        post_state=post if accepted else None,
    )


def choose_phi(
    operator: HermitianOperator,
    epsilon: float,
    ensemble: EnsembleSpec = INFINITE_TEMPERATURE,
    hamiltonian: HermitianOperator | None = None,
) -> float:
    """Angle sqrt(epsilon * m2 / m4), targeting infidelity of order epsilon."""
    if not 0.0 < epsilon < 1.0:
        raise ValueError("epsilon must lie strictly between 0 and 1")
    ms = moments(operator, ensemble, hamiltonian)
    return math.sqrt(epsilon * ms.m2 / ms.m4)


def success_probability_bound(
    operator: HermitianOperator,
    epsilon: float,
    ensemble: EnsembleSpec = INFINITE_TEMPERATURE,
    hamiltonian: HermitianOperator | None = None,
) -> SuccessBound:
    """Predicted P1 at the chosen angle and the chain of spectral lower bounds.

    predicted_p1 = eps*m2^2/m4 >= eps*m2/o_max^2 >= eps*(rank/dim)*(o_min/o_max)^2.
    """
    if not 0.0 < epsilon < 1.0:
        raise ValueError("epsilon must lie strictly between 0 and 1")
    ms = moments(operator, ensemble, hamiltonian)
    vals = operator.eig.eigenvalues
    magnitudes = np.abs(vals)
    o_max = float(magnitudes.max())  # positive: moments() rejected a zero operator
    nonzero = magnitudes[magnitudes > 1e-12 * o_max]
    o_min = float(nonzero.min())
    rank = int(nonzero.size)
    return SuccessBound(
        predicted_p1=epsilon * ms.m2**2 / ms.m4,
        spectral_bound=epsilon * ms.m2 / o_max**2,
        rank_bound=epsilon * rank / operator.dim * (o_min / o_max) ** 2,
        o_max=o_max,
        o_min=o_min,
        rank=rank,
    )


def moment_ratio_constant(dist: EigenvalueDistribution) -> float:
    """The small-angle ratio P1/(1 - F) = m2^2/m4 from the law's analytic moments."""
    m2, _, m4 = analytic_moments(dist)
    return m2 * m2 / m4


def choose_phi_for_distribution(dist: EigenvalueDistribution, epsilon: float) -> float:
    """Angle sqrt(epsilon * m2 / m4) from the law's analytic moments."""
    if not 0.0 < epsilon < 1.0:
        raise ValueError("epsilon must lie strictly between 0 and 1")
    m2, _, m4 = analytic_moments(dist)
    return math.sqrt(epsilon * m2 / m4)
