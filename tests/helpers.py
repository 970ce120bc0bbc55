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
)


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
