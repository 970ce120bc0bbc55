"""Seeded random instances and compiled observable presets shared across test modules."""

import numpy as np
from hypothesis import strategies as st

from qspec import (
    HermitianOperator,
    ModelSpec,
    PauliTerm,
    StateVector,
    build_operator,
    observable_spec,
    thermal_operator_state,
)


def plus_state(num_qubits: int) -> StateVector:
    """Uniform superposition over all computational states."""
    dim = 1 << num_qubits
    return StateVector(num_qubits, np.full(dim, 1.0 / np.sqrt(dim)))


def random_state(num_qubits: int, seed: int) -> StateVector:
    rng = np.random.default_rng(seed)
    amps = rng.normal(size=1 << num_qubits) + 1j * rng.normal(size=1 << num_qubits)
    return StateVector(num_qubits, amps / np.linalg.norm(amps))


def random_hermitian(num_qubits: int, seed: int) -> HermitianOperator:
    rng = np.random.default_rng(seed)
    dim = 1 << num_qubits
    m = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    m = (m + m.conj().T) / 2
    return HermitianOperator(m - np.trace(m) / dim * np.eye(dim))


def random_real_symmetric(num_qubits: int, seed: int) -> HermitianOperator:
    rng = np.random.default_rng(seed)
    dim = 1 << num_qubits
    m = rng.normal(size=(dim, dim))
    m = (m + m.T) / 2
    return HermitianOperator(m - np.trace(m) / dim * np.eye(dim))


def preset_observable(name: str, num_sites: int, site: int = 0) -> HermitianOperator:
    """An observable preset (total_sz, site_sz, staggered_sz) compiled from its Pauli sum."""
    return build_operator(observable_spec(name, num_sites, site))


def complex_copy(operator: HermitianOperator) -> HermitianOperator:
    """The same operator with its matrix held as complex128, so it takes the complex eigh.

    The constructor stores a real matrix as float64; the copy bypasses that on
    purpose, to compare the real path against the complex one on equal entries.
    """
    twin = HermitianOperator(operator.matrix)
    object.__setattr__(twin, "matrix", operator.matrix.astype(complex))
    return twin


@st.composite
def real_pauli_sums(draw, num_sites: int) -> ModelSpec:
    """Pauli sums with an even number of Y factors per string, so every entry is real."""
    factors = st.text(alphabet="IXYZ", min_size=num_sites, max_size=num_sites).map(
        lambda f: f if f.count("Y") % 2 == 0 else f.replace("Y", "Z", 1)
    )
    coefficient = st.floats(-2.0, 2.0, allow_nan=False)
    terms = draw(st.lists(st.builds(PauliTerm, coefficient, factors), min_size=1, max_size=6))
    return ModelSpec(num_sites, tuple(terms))


def purified_phase_weights(hamiltonian, operator, ensemble) -> np.ndarray:
    """The oracle's reference route: |c_nm|^2 of the purified state, entry (n, m) at gap e_n - e_m.

    ``c = V^dagger M V^*`` writes the doubled-register matrix M of the
    prepared state as ``V c V^T``, the form in which the counter-propagating
    circuit (U on copy a, U^dagger on copy b) multiplies each entry by a phase.
    """
    prepared = thermal_operator_state(operator, hamiltonian, ensemble)
    vecs = hamiltonian.eig.eigenvectors
    matrix = prepared.amplitudes.reshape(hamiltonian.dim, hamiltonian.dim)
    return np.abs(vecs.conj().T @ matrix @ vecs.conj()) ** 2


def dense_phase_weights(table, dim: int) -> np.ndarray:
    """A transition table's normalized phase weights as a (dim, dim) matrix oriented as above.

    Table entry n -> m sits at ``e_m - e_n``, so it lands at (m, n); pruned
    entries read 0.
    """
    dense = np.zeros(dim * dim)
    dense[table.index] = table.phase_weights / table.mass
    return dense.reshape(dim, dim).T
