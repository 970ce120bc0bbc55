"""Entangled pair, operator and Gibbs purifications on the doubled register."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import complex_copy, random_real_symmetric
from qspec import (
    GROUND_STATE,
    INFINITE_TEMPERATURE,
    HermitianOperator,
    entangled_pair_state,
    gibbs,
    overlap,
    purify_gibbs,
    purify_operator,
    register_distribution,
    thermal_operator_state,
)
from qspec.errors import ResourceCapError, ZeroNormError, ZeroOperatorError

PAULI_X = np.array([[0, 1], [1, 0]], dtype=complex)
PAULI_Z = np.diag([1.0, -1.0]).astype(complex)


def test_entangled_pair_single_site_is_bell_pair():
    state = entangled_pair_state(1)
    np.testing.assert_allclose(state.amplitudes, np.array([1, 0, 0, 1]) / np.sqrt(2), atol=1e-15)


def test_entangled_pair_two_sites_diagonal_support():
    state = entangled_pair_state(2)
    expected = np.zeros(16)
    expected[[0, 5, 10, 15]] = 0.5
    np.testing.assert_allclose(state.amplitudes, expected, atol=1e-15)


def test_entangled_pair_copy_marginal_is_uniform():
    state = entangled_pair_state(3)
    np.testing.assert_allclose(
        register_distribution(state, range(3)), np.full(8, 1 / 8), atol=1e-14
    )


def test_entangled_pair_respects_cap():
    with pytest.raises(ResourceCapError):
        entangled_pair_state(12)


def test_purify_pauli_z():
    state = purify_operator(HermitianOperator(PAULI_Z))
    np.testing.assert_allclose(state.amplitudes, np.array([1, 0, 0, -1]) / np.sqrt(2), atol=1e-15)


def test_purify_pauli_x_matches_direct_application():
    # Independent route: apply X to the first copy of the Bell pair by hand.
    bell = np.array([1, 0, 0, 1]) / np.sqrt(2)
    direct = np.kron(PAULI_X, np.eye(2)) @ bell
    state = purify_operator(HermitianOperator(PAULI_X))
    np.testing.assert_allclose(state.amplitudes, direct, atol=1e-15)


def test_purify_matches_eigenbasis_sum():
    op = random_real_symmetric(2, seed=17)
    vals, vecs = np.linalg.eigh(op.matrix)
    target = np.zeros(16, dtype=complex)
    for k in range(4):
        target += vals[k] * np.kron(vecs[:, k], vecs[:, k])
    target /= np.sqrt(np.sum(vals**2))
    state = purify_operator(op)
    assert abs(abs(np.vdot(target, state.amplitudes)) - 1.0) <= 1e-10


def test_purify_rejects_zero_operator():
    with pytest.raises(ZeroOperatorError):
        purify_operator(HermitianOperator(np.zeros((2, 2))))


@settings(max_examples=25, deadline=None)
@given(scale=st.floats(-20.0, 20.0), seed=st.integers(0, 500))
def test_purify_is_scale_invariant(scale, seed):
    if abs(scale) < 1e-6:
        scale = 1.0
    op = random_real_symmetric(2, seed=seed)
    base = purify_operator(op)
    scaled = purify_operator(HermitianOperator(scale * op.matrix))
    sign = 1.0 if scale > 0 else -1.0
    assert np.max(np.abs(scaled.amplitudes - sign * base.amplitudes)) <= 1e-12


def test_purify_schmidt_coefficients_are_normalized_eigenvalues():
    op = random_real_symmetric(2, seed=23)
    vals = np.linalg.eigvalsh(op.matrix)
    state = purify_operator(op)
    schmidt = np.linalg.svd(state.amplitudes.reshape(4, 4), compute_uv=False)
    expected = np.sort(np.abs(vals))[::-1] / np.sqrt(np.sum(vals**2))
    np.testing.assert_allclose(schmidt, expected, atol=1e-10)


# --- Gibbs purification ------------------------------------------------------


def test_gibbs_at_zero_beta_is_entangled_pair():
    ham = random_real_symmetric(2, seed=31)
    state = purify_gibbs(ham, 0.0)
    assert np.max(np.abs(state.amplitudes - entangled_pair_state(2).amplitudes)) <= 1e-12


def test_gibbs_two_level_closed_form():
    state = purify_gibbs(HermitianOperator(PAULI_Z), beta=2.0)
    norm = math.sqrt(2.0 * math.cosh(2.0))
    expected = np.array([math.exp(-1.0), 0.0, 0.0, math.exp(1.0)]) / norm
    np.testing.assert_allclose(state.amplitudes, expected, atol=1e-14)


def test_gibbs_large_beta_reaches_ground_pair():
    ham = HermitianOperator(np.diag([0.0, 1.0, 2.0, 3.0]))
    state = purify_gibbs(ham, beta=50.0)
    ground_pair = np.zeros(16)
    ground_pair[0] = 1.0
    assert abs(np.vdot(ground_pair, state.amplitudes)) ** 2 >= 1.0 - 1e-10


def test_gibbs_fidelity_with_pair_state_decreases_in_beta():
    ham = HermitianOperator(np.diag([0.0, 0.7, 1.9, 3.1]))
    pair = entangled_pair_state(2)
    fidelities = [
        abs(overlap(pair, purify_gibbs(ham, beta))) ** 2 for beta in (0.0, 0.5, 1.0, 2.0, 4.0)
    ]
    assert all(a > b for a, b in zip(fidelities, fidelities[1:]))


def test_gibbs_rejects_bad_beta():
    with pytest.raises(ValueError):
        purify_gibbs(HermitianOperator(PAULI_Z), -1.0)
    with pytest.raises(ValueError):
        purify_gibbs(HermitianOperator(PAULI_Z), float("inf"))


# --- thermal operator states ----------------------------------------------------


def test_thermal_state_infinite_temperature_equals_operator_state():
    op = random_real_symmetric(2, seed=41)
    via_ensemble = thermal_operator_state(op, None, INFINITE_TEMPERATURE)
    direct = purify_operator(op)
    np.testing.assert_allclose(via_ensemble.amplitudes, direct.amplitudes, atol=1e-14)


def test_thermal_state_gibbs_beta_zero_equals_operator_state():
    op = random_real_symmetric(2, seed=42)
    ham = random_real_symmetric(2, seed=43)
    via_gibbs = thermal_operator_state(op, ham, gibbs(0.0))
    direct = purify_operator(op)
    assert np.max(np.abs(via_gibbs.amplitudes - direct.amplitudes)) <= 1e-12


def test_thermal_state_ground_two_level():
    # Ground state of sigma^z is |1>; sigma^x flips it, copy keeps the reference.
    out = thermal_operator_state(
        HermitianOperator(PAULI_X), HermitianOperator(PAULI_Z), GROUND_STATE
    )
    np.testing.assert_allclose(np.abs(out.amplitudes), [0, 1, 0, 0], atol=1e-14)


def test_thermal_state_zero_norm_error():
    # O projects onto |0> but the ground state of sigma^z is |1>.
    projector = HermitianOperator(np.diag([1.0, 0.0]))
    with pytest.raises(ZeroNormError):
        thermal_operator_state(projector, HermitianOperator(PAULI_Z), GROUND_STATE)


def test_all_purified_states_are_normalized():
    op = random_real_symmetric(3, seed=44)
    ham = random_real_symmetric(3, seed=45)
    for state in (
        entangled_pair_state(3),
        purify_operator(op),
        purify_gibbs(ham, 1.3),
        thermal_operator_state(op, ham, gibbs(0.8)),
        thermal_operator_state(op, ham, GROUND_STATE),
    ):
        assert abs(state.norm() - 1.0) <= 1e-10


@pytest.mark.parametrize("ensemble", [INFINITE_TEMPERATURE, gibbs(0.9), GROUND_STATE])
def test_real_operators_give_real_purified_states(ensemble):
    ham = random_real_symmetric(2, seed=31)
    obs = random_real_symmetric(2, seed=32)
    real = thermal_operator_state(obs, ham, ensemble)
    assert real.amplitudes.dtype == np.float64
    for state in (entangled_pair_state(2), purify_operator(obs), purify_gibbs(ham, 0.9)):
        assert state.amplitudes.dtype == np.float64
    # The complex route reaches the same state up to a global phase (its ground vector's).
    twin = thermal_operator_state(complex_copy(obs), complex_copy(ham), ensemble)
    assert twin.amplitudes.dtype == np.complex128
    assert abs(abs(overlap(real, twin)) - 1.0) <= 1e-12
