"""Seeded random instances and compiled observable presets shared across test modules."""

import numpy as np

from qspec import HermitianOperator, StateVector, build_operator, observable_spec


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
