"""Purified states on the doubled register.

A state on two copies of an N-site system is stored with copy a on the
high qubits and copy b on the low qubits, so its amplitudes reshape to a
``(2**N, 2**N)`` matrix M with ``M[i, j]`` the amplitude of ``|i>|j>``.
In that picture the maximally entangled pair state is the identity matrix
over sqrt(2**N), applying an operator to copy a is a left matrix product,
and the Gibbs purification at inverse temperature beta is the normalized
matrix ``exp(-beta*H/2)``.

The Gibbs construction therefore carries a conjugation on copy b relative
to the plain eigenvector sum; the two coincide whenever the eigenbasis is
real, which it is for every real H (a real operator is stored and
diagonalized in float64, see ``simcore``), and the matrix form keeps the
beta=0 limit exactly equal to the entangled pair state for every Hermitian
input.  Real H and O therefore give real purified states.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DimensionMismatchError, ResourceCapError, ZeroNormError
from .simcore import (
    QUBIT_CAP,
    EigenDecomposition,
    HermitianOperator,
    StateVector,
)

ENSEMBLE_KINDS = ("infinite_temperature", "ground_state", "gibbs")

#: An observable whose second moment in the base state is at or below this
#: multiple of ``tr(O^2)/dim`` annihilates the base state: ``(O tensor 1)``
#: leaves it a norm below ``1e-12`` of O's root-mean-square eigenvalue,
#: which is rounding noise (an exactly annihilating O leaves about 1e-16 of
#: it).  The rule is scale-free, so ``c*O`` passes or fails with O.
M2_RTOL = 1e-24


@dataclass(frozen=True)
class EnsembleSpec:
    """Which base state the operator is purified against."""

    kind: str
    beta: float | None = None

    def __post_init__(self) -> None:
        if self.kind not in ENSEMBLE_KINDS:
            raise ValueError(f"unknown ensemble {self.kind!r}; choose from {ENSEMBLE_KINDS}")
        if self.kind == "gibbs":
            if self.beta is None or not math.isfinite(self.beta) or self.beta < 0:
                raise ValueError("gibbs ensemble needs a finite beta >= 0")
        elif self.beta is not None:
            raise ValueError(f"{self.kind} ensemble takes no beta")


INFINITE_TEMPERATURE = EnsembleSpec("infinite_temperature")
GROUND_STATE = EnsembleSpec("ground_state")


def gibbs(beta: float) -> EnsembleSpec:
    return EnsembleSpec("gibbs", float(beta))


def _check_cap(num_sites: int) -> None:
    if 2 * num_sites > QUBIT_CAP:
        raise ResourceCapError(
            f"two copies of {num_sites} sites exceed the {QUBIT_CAP}-qubit cap"
        )


def entangled_pair_state(num_sites: int) -> StateVector:
    """Product of Bell pairs between the system and its copy: 2**(-N/2) sum_z |z>|z>."""
    if num_sites < 1:
        raise ValueError("num_sites must be at least 1")
    _check_cap(num_sites)
    dim = 1 << num_sites
    m = np.eye(dim) / np.sqrt(dim)
    return StateVector(2 * num_sites, m.reshape(-1))


def purify_gibbs(hamiltonian: HermitianOperator, beta: float) -> StateVector:
    """Gibbs purification: the normalized matrix exp(-beta*H/2) on the doubled register.

    Eigenvalues are shifted by the ground-state energy before exponentiation,
    so large beta cannot overflow; the normalization absorbs the shift.  A
    weight whose exponent passes the double range is exp(-inf) = 0.
    """
    if not (math.isfinite(beta) and beta >= 0):
        raise ValueError("beta must be finite and non-negative")
    eig = hamiltonian.eig
    _check_cap(hamiltonian.num_qubits)
    with np.errstate(over="ignore"):
        amps = eig.apply_function(lambda lam: np.exp(-0.5 * beta * (lam - lam[0]))).reshape(-1)
    return StateVector(2 * hamiltonian.num_qubits, amps / np.linalg.norm(amps))


def ground_state_degeneracy(hamiltonian: HermitianOperator, tol: float = 1e-9) -> int:
    """Number of eigenvalues within ``tol`` (scaled by the spectral span) of the minimum."""
    vals = hamiltonian.eig.eigenvalues
    span = float(vals[-1] - vals[0])
    return int(np.sum(vals - vals[0] <= tol * max(1.0, span)))


def base_state(
    ensemble: EnsembleSpec,
    hamiltonian: HermitianOperator | None,
    num_sites: int,
) -> StateVector:
    """The doubled-register state the operator is applied to.

    Infinite temperature needs only the site count (the entangled pair
    state); ground state and Gibbs need the Hamiltonian.  A degenerate
    ground level uses the lowest-index eigenvector.
    """
    if ensemble.kind == "infinite_temperature":
        return entangled_pair_state(num_sites)
    if hamiltonian is None:
        raise ValueError(f"{ensemble.kind} base state requires the Hamiltonian")
    if ensemble.kind == "gibbs":
        return purify_gibbs(hamiltonian, ensemble.beta)
    _check_cap(hamiltonian.num_qubits)
    psi0 = hamiltonian.eig.eigenvectors[:, 0]
    # Copy b holds the same ground state as a phase reference, not a conjugate:
    # it must stay an eigenvector of H under the backward evolution.
    return StateVector(2 * hamiltonian.num_qubits, np.kron(psi0, psi0))


def reject_annihilation(second_moment: float, mean_square: float, ensemble: EnsembleSpec) -> None:
    """Raise ``ZeroNormError`` when ``<O^2> <= M2_RTOL * tr(O^2)/dim`` in the base state."""
    if not second_moment > M2_RTOL * mean_square:
        raise ZeroNormError(f"annihilates the {ensemble.kind} base state")


def thermal_operator_state(
    operator: HermitianOperator,
    hamiltonian: HermitianOperator | None,
    ensemble: EnsembleSpec,
) -> StateVector:
    """Normalized (O tensor 1) applied to the ensemble's base state.

    At infinite temperature (``hamiltonian`` may then be None) this is the
    operator state ``sum_ij O_ij |i>|j> / sqrt(tr O^2)``.
    """
    if hamiltonian is not None and hamiltonian.dim != operator.dim:
        raise DimensionMismatchError(
            f"operator dim {operator.dim} vs Hamiltonian dim {hamiltonian.dim}"
        )
    return operator_state(operator, base_state(ensemble, hamiltonian, operator.num_qubits), ensemble)


def operator_state(operator: HermitianOperator, base: StateVector, ensemble: EnsembleSpec) -> StateVector:
    """Normalized (O tensor 1) applied to an already built base state of ``ensemble``."""
    dim = operator.dim
    m = operator.matrix @ base.amplitudes.reshape(dim, dim)
    norm = float(np.linalg.norm(m))
    reject_annihilation(norm * norm, float(np.vdot(operator.matrix, operator.matrix).real) / dim, ensemble)
    return StateVector(base.num_qubits, m.reshape(-1) / norm)


def ensemble_populations(eig: EigenDecomposition, ensemble: EnsembleSpec) -> np.ndarray:
    """Diagonal occupation of each eigenstate in the ensemble's density matrix."""
    dim = eig.dim
    if ensemble.kind == "infinite_temperature":
        return np.full(dim, 1.0 / dim)
    if ensemble.kind == "gibbs":
        with np.errstate(over="ignore"):  # an exponent past the double range gives exp(-inf) = 0
            w = np.exp(-ensemble.beta * (eig.eigenvalues - eig.eigenvalues[0]))
        return w / w.sum()
    pops = np.zeros(dim)
    pops[0] = 1.0
    return pops
