"""Purified states on the doubled register.

A state on two copies of an N-site system is stored with copy a on the
high qubits and copy b on the low qubits, so its amplitudes reshape to a
``(2**N, 2**N)`` matrix M with ``M[i, j]`` the amplitude of ``|i>|j>``.
In that picture applying an operator to copy a is a left matrix product.

Every base state is one formula, the matrix ``rho**(1/2) = V diag(sqrt(p))
V^dagger`` of its ensemble, with the populations p of
``ensemble_populations``: the normalized ``exp(-beta*H/2)`` for Gibbs and,
for the ground state, the projector onto the ground level over the square
root of its degeneracy (``psi_0 psi_0^dagger`` when it is one state), the
beta -> infinity limit of Gibbs.  Uniform p gives the identity over
sqrt(2**N) in any basis, so the infinite-temperature base state (the
entangled pair state) is built as that identity, exactly, from the size of
H alone.  H enters only through its decomposition: the builders take
(operator, H's decomposition, ensemble) in that order, every member
required: ``base_state(eig_h, ensemble)``, and
``thermal_operator_state(operator, eig_h, ensemble)``, the one builder of
the target operator state.  A run decomposes H once and hands the
decomposition on, so H's dense matrix is freed before any state is built.
Copy b holds conjugated eigenvectors; the circuit evolves copy b under -H^T
(see ``qpe``), which keeps them eigenstates.  A real operator is stored and
diagonalized in float64 (see ``simcore``), so real H and O give real
purified states.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DimensionMismatchError, ResourceCapError, ZeroNormError, ZeroOperatorError
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


#: Eigenvalues within this multiple of ``max(1, span)`` of the lowest one form the ground level.
DEGENERACY_RTOL = 1e-9


def ground_state_degeneracy(eig: EigenDecomposition) -> int:
    """Size g of the ground level: the eigenvalues within ``DEGENERACY_RTOL * max(1, span)`` of the lowest."""
    vals = eig.eigenvalues
    return int(np.sum(vals - vals[0] <= DEGENERACY_RTOL * max(1.0, eig.span)))


def ensemble_populations(eig: EigenDecomposition, ensemble: EnsembleSpec) -> np.ndarray:
    """Diagonal occupation of each eigenstate in the ensemble's density matrix.

    The ground state spreads its population evenly over the ground level, as
    Gibbs does when beta grows, so a degenerate level gives the same state in
    any eigenbasis of it.
    """
    dim = eig.dim
    if ensemble.kind == "infinite_temperature":
        return np.full(dim, 1.0 / dim)
    if ensemble.kind == "gibbs":
        with np.errstate(over="ignore"):  # an exponent past the double range gives exp(-inf) = 0
            w = np.exp(-ensemble.beta * (eig.eigenvalues - eig.eigenvalues[0]))
        return w / w.sum()
    pops = np.zeros(dim)
    level = ground_state_degeneracy(eig)
    pops[:level] = 1.0 / level
    return pops


def base_state(eig_h: EigenDecomposition, ensemble: EnsembleSpec) -> StateVector:
    """The doubled-register state ``rho**(1/2) = V diag(sqrt(p)) V^dagger`` the operator is applied to.

    ``eig_h`` is H's decomposition.  Infinite temperature reads only its size:
    uniform p gives the identity over sqrt(2**N), built directly, so neither
    eigenvalues nor V enter.  A degenerate ground level is populated evenly
    (see ``ensemble_populations``).
    """
    num_sites = eig_h.dim.bit_length() - 1
    if 2 * num_sites > QUBIT_CAP:
        raise ResourceCapError(f"two copies of {num_sites} sites exceed the {QUBIT_CAP}-qubit cap")
    if ensemble.kind == "infinite_temperature":
        matrix = np.eye(eig_h.dim) / np.sqrt(eig_h.dim)
    else:
        matrix = eig_h.apply(np.sqrt(ensemble_populations(eig_h, ensemble)))
    return StateVector(2 * num_sites, matrix.reshape(-1))


def reject_size_mismatch(operator: HermitianOperator, eig_h: EigenDecomposition) -> None:
    """Raise ``DimensionMismatchError`` unless O and H (given by its decomposition) act on the same space."""
    if eig_h.dim != operator.dim:
        raise DimensionMismatchError(f"operator dim {operator.dim} vs Hamiltonian dim {eig_h.dim}")


def reject_annihilation(second_moment: float, operator: HermitianOperator, ensemble: EnsembleSpec) -> None:
    """Raise ``ZeroNormError`` when ``<O^2> <= M2_RTOL * tr(O^2)/dim`` in the base state.

    The caller passes the ``<O^2>`` it formed; the scale ``tr(O^2)/dim`` is read from O here.
    A nonzero but subnormal ``tr(O^2)/dim`` is a ``ZeroOperatorError``: no norm of O is accurate.
    A subnormal ``<O^2>`` is a ``ZeroNormError`` too: the base state leaves O's
    norm, and every moment above it, to rounding.
    """
    mean_square = float(np.vdot(operator.matrix, operator.matrix).real) / operator.dim
    if 0.0 < mean_square < np.finfo(float).tiny:
        raise ZeroOperatorError(f"tr(O^2)/dim = {mean_square:.3g} is below the normal float range")
    if not second_moment > M2_RTOL * mean_square:
        raise ZeroNormError(f"annihilates the {ensemble.kind} base state")
    if second_moment < np.finfo(float).tiny:
        raise ZeroNormError(
            f"<O^2> = {second_moment:.3g} in the {ensemble.kind} base state is below the normal float range"
        )


def thermal_operator_state(
    operator: HermitianOperator,
    eig_h: EigenDecomposition,
    ensemble: EnsembleSpec,
) -> StateVector:
    """Normalized (O tensor 1) applied to the ensemble's base state: the target operator state.

    At infinite temperature this is ``sum_ij O_ij |i>|j> / sqrt(tr O^2)``.
    """
    reject_size_mismatch(operator, eig_h)
    dim = operator.dim
    base = base_state(eig_h, ensemble)
    m = operator.matrix @ base.amplitudes.reshape(dim, dim)
    norm = float(np.linalg.norm(m))
    reject_annihilation(norm * norm, operator, ensemble)
    m /= norm  # in place: no third matrix beside the base state and O times it
    return StateVector(base.num_qubits, m.reshape(-1))
