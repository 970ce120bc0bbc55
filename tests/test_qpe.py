"""Phase-register statistics of the counter-propagating circuit."""

import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import plus_state, preset_observable, random_hermitian, random_real_symmetric
from qspec import (
    GROUND_STATE,
    INFINITE_TEMPERATURE,
    HermitianOperator,
    PhaseDistribution,
    apply_controlled_unitary,
    apply_unitary,
    distribution_distance,
    eig_hermitian,
    exact_outcome_distribution,
    gibbs,
    heisenberg,
    inverse_qft,
    outcome_frequency,
    plan_resolution,
    register_distribution,
    run_qpe,
    sample_outcomes,
    tensor_product,
    thermal_operator_state,
    tilted_ising,
    transition_weights,
    build_operator,
)
from qspec.errors import DimensionMismatchError, ResourceCapError
from qspec.experiment import write_csv, write_json

PAULI_X = HermitianOperator(np.array([[0, 1], [1, 0]], dtype=complex))
PAULI_Z = HermitianOperator(np.diag([1.0, -1.0]))


def test_zero_hamiltonian_concentrates_at_zero():
    prepared = thermal_operator_state(PAULI_X, None, INFINITE_TEMPERATURE)
    dist = run_qpe(prepared, HermitianOperator(np.zeros((2, 2))), 4, 0.3)
    expected = np.zeros(16)
    expected[0] = 1.0
    np.testing.assert_allclose(dist.probabilities, expected, atol=1e-12)


def test_two_level_lines_land_on_exact_bins():
    # Gaps +-2 at delta = pi/4 and l = 3 give integer bin offsets +-2.
    dist = run_qpe(thermal_operator_state(PAULI_X, None, INFINITE_TEMPERATURE), PAULI_Z, 3, np.pi / 4)
    expected = np.zeros(8)
    expected[2] = 0.5
    expected[6] = 0.5
    np.testing.assert_allclose(dist.probabilities, expected, atol=1e-12)


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_circuit_matches_oracle_on_random_instances(seed):
    rng = np.random.default_rng(seed)
    num_sites = int(rng.integers(1, 4))
    num_bits = int(rng.integers(3, 7))
    ham = random_real_symmetric(num_sites, seed=100 + seed)
    obs = preset_observable("total_sz", num_sites)
    delta = float(rng.uniform(0.05, 1.2))
    prepared = thermal_operator_state(obs, None, INFINITE_TEMPERATURE)
    circuit = run_qpe(prepared, ham, num_bits, delta)
    reference = exact_outcome_distribution(transition_weights(ham, obs), num_bits, delta)
    assert distribution_distance(circuit, reference, "max_abs") <= 1e-10


def test_circuit_matches_oracle_with_degenerate_spectrum():
    # The isotropic chain has exactly degenerate levels; outcome statistics
    # must not depend on which orthonormal basis the solver picks.
    ham = build_operator(heisenberg(2))
    obs = preset_observable("staggered_sz", 2)
    circuit = run_qpe(thermal_operator_state(obs, None, INFINITE_TEMPERATURE), ham, 4, 0.43)
    reference = exact_outcome_distribution(transition_weights(ham, obs), 4, 0.43)
    assert distribution_distance(circuit, reference, "max_abs") <= 1e-10


@pytest.mark.parametrize("ensemble", [gibbs(1.2), GROUND_STATE])
def test_circuit_matches_oracle_for_thermal_ensembles(ensemble):
    ham = random_real_symmetric(2, seed=23)
    obs = preset_observable("total_sz", 2)
    prepared = thermal_operator_state(obs, ham, ensemble)
    circuit = run_qpe(prepared, ham, 5, 0.39)
    reference = exact_outcome_distribution(transition_weights(ham, obs, ensemble), 5, 0.39)
    assert distribution_distance(circuit, reference, "max_abs") <= 1e-10


def test_frequency_symmetry_at_infinite_temperature():
    ham = random_real_symmetric(2, seed=7)
    obs = preset_observable("site_sz", 2, 0)
    dist = run_qpe(thermal_operator_state(obs, None, INFINITE_TEMPERATURE), ham, 5, 0.31)
    p = dist.probabilities
    for f in range(1, 32):
        assert abs(p[f] - p[32 - f]) <= 1e-10
    assert abs(p.sum() - 1.0) <= 1e-10


def register_positions(num_sites, num_bits):
    # Copy a on the highest qubits, then copy b, then the phase register.
    copy_a = tuple(range(num_sites))
    copy_b = tuple(range(num_sites, 2 * num_sites))
    return copy_a, copy_b, tuple(range(2 * num_sites, 2 * num_sites + num_bits))


def test_controlled_powers_match_repeated_base_steps():
    # Bit j applied as 2**j repetitions of the base step must reproduce the
    # exactly exponentiated power used by run_qpe.
    num_sites, num_bits, delta = 2, 3, 0.47
    ham = random_real_symmetric(num_sites, seed=11)
    prepared = thermal_operator_state(preset_observable("total_sz", num_sites), None, INFINITE_TEMPERATURE)
    copy_a, copy_b, phase = register_positions(num_sites, num_bits)
    state = tensor_product(prepared, plus_state(num_bits))
    eig = eig_hermitian(ham)
    forward = eig.propagator(delta)
    backward = eig.propagator(-delta)
    for j in range(num_bits):
        control = phase[num_bits - 1 - j]
        for _ in range(1 << j):
            state = apply_controlled_unitary(state, control, forward, copy_a, validate=False)
            state = apply_controlled_unitary(state, control, backward, copy_b, validate=False)
    state = inverse_qft(state, phase)
    stepped = register_distribution(state, phase)
    powered = run_qpe(prepared, ham, num_bits, delta)
    assert np.max(np.abs(stepped - powered.probabilities)) <= 1e-10


def gate_by_gate_qpe(prepared, hamiltonian, num_bits, delta):
    # The register-level circuit run_qpe replaced: one controlled gate per copy
    # and bit, then a dense inverse Fourier matrix and the register marginal.
    copy_a, copy_b, phase = register_positions(prepared.num_qubits // 2, num_bits)
    state = tensor_product(prepared, plus_state(num_bits))
    eig = eig_hermitian(hamiltonian)
    for j in range(num_bits):
        control = phase[num_bits - 1 - j]
        forward = eig.propagator(delta * (1 << j))
        backward = eig.propagator(-delta * (1 << j))
        state = apply_controlled_unitary(state, control, forward, copy_a, validate=False)
        state = apply_controlled_unitary(state, control, backward, copy_b, validate=False)
    dim = 1 << num_bits
    fourier = np.exp(-2j * np.pi * np.outer(np.arange(dim), np.arange(dim)) / dim) / np.sqrt(dim)
    state = apply_unitary(state, fourier, phase, validate=False)
    return register_distribution(state, phase)


@settings(max_examples=40, deadline=None)
@given(
    num_sites=st.integers(1, 3),
    num_bits=st.integers(1, 4),
    seed=st.integers(0, 10_000),
    real=st.booleans(),
    ensemble=st.sampled_from([INFINITE_TEMPERATURE, gibbs(0.8), GROUND_STATE]),
    delta=st.floats(0.05, 1.5),
)
def test_run_qpe_matches_gate_by_gate_circuit(num_sites, num_bits, seed, real, ensemble, delta):
    ham = (random_real_symmetric if real else random_hermitian)(num_sites, seed=seed)
    obs = random_hermitian(num_sites, seed=seed + 1)
    prepared = thermal_operator_state(obs, ham, ensemble)
    reference = gate_by_gate_qpe(prepared, ham, num_bits, delta)
    dist = run_qpe(prepared, ham, num_bits, delta)
    assert np.max(np.abs(dist.probabilities - reference)) <= 1e-12


def test_run_qpe_rejects_bad_inputs():
    prepared = thermal_operator_state(PAULI_X, None, INFINITE_TEMPERATURE)
    with pytest.raises(ValueError):
        run_qpe(prepared, PAULI_Z, 3, 0.0)
    with pytest.raises(DimensionMismatchError):
        run_qpe(prepared, HermitianOperator(np.eye(4)), 3, 0.5)
    with pytest.raises(ResourceCapError):
        run_qpe(prepared, PAULI_Z, 21, 0.5)


def test_run_qpe_is_deterministic():
    ham = random_real_symmetric(2, seed=13)
    prepared = thermal_operator_state(preset_observable("total_sz", 2), None, INFINITE_TEMPERATURE)
    first = run_qpe(prepared, ham, 4, 0.6)
    second = run_qpe(prepared, ham, 4, 0.6)
    np.testing.assert_array_equal(first.probabilities, second.probabilities)


# --- sampling -------------------------------------------------------------------


def test_sampling_point_mass_puts_all_shots_there():
    prepared = thermal_operator_state(PAULI_X, None, INFINITE_TEMPERATURE)
    dist = run_qpe(prepared, HermitianOperator(np.zeros((2, 2))), 3, 0.5)
    empirical = sample_outcomes(dist, shots=1000, seed=4)
    assert empirical.probabilities[0] == 1.0
    assert empirical.kind == "empirical"
    assert empirical.shots == 1000


def test_sampling_is_seed_reproducible():
    prepared = thermal_operator_state(preset_observable("total_sz", 2), None, INFINITE_TEMPERATURE)
    dist = run_qpe(prepared, random_real_symmetric(2, seed=17), 5, 0.4)
    first = sample_outcomes(dist, shots=5000, seed=99)
    second = sample_outcomes(dist, shots=5000, seed=99)
    np.testing.assert_array_equal(first.probabilities, second.probabilities)
    third = sample_outcomes(dist, shots=5000, seed=100)
    assert not np.array_equal(first.probabilities, third.probabilities)


def test_sampling_concentrates_l6_preset():
    ham = build_operator(tilted_ising(2))
    prepared = thermal_operator_state(preset_observable("total_sz", 2), None, INFINITE_TEMPERATURE)
    dist = run_qpe(prepared, ham, 6, np.pi / 16)
    for seed in range(20):
        empirical = sample_outcomes(dist, shots=100_000, seed=seed)
        assert distribution_distance(empirical, dist) <= 0.02


def test_sampling_requires_exact_distribution():
    dist = run_qpe(thermal_operator_state(PAULI_X, None, INFINITE_TEMPERATURE), PAULI_Z, 3, np.pi / 4)
    empirical = sample_outcomes(dist, shots=10, seed=0)
    with pytest.raises(ValueError):
        sample_outcomes(empirical, shots=10, seed=0)
    with pytest.raises(ValueError):
        sample_outcomes(dist, shots=0, seed=0)


# --- outcome frequencies ------------------------------------------------------------


def test_outcome_frequency_zero():
    assert outcome_frequency(0, 3, np.pi / 4) == 0.0


def test_outcome_frequency_positive_and_wrapped():
    assert abs(outcome_frequency(2, 3, np.pi / 4) - 2.0) <= 1e-14
    assert abs(outcome_frequency(6, 3, np.pi / 4) + 2.0) <= 1e-14


def test_outcome_frequency_range_check():
    with pytest.raises(ValueError):
        outcome_frequency(8, 3, np.pi / 4)
    with pytest.raises(ValueError):
        outcome_frequency(-1, 3, np.pi / 4)


# --- resolution planning -------------------------------------------------------------


def test_plan_worked_example():
    plan = plan_resolution(10.0, 0.1)
    assert plan.num_bits == 7
    assert abs(plan.delta - 2 * np.pi / 12.8) <= 1e-12


def test_plan_small_example():
    plan = plan_resolution(1.0, 0.5)
    assert plan.num_bits == 2
    assert abs(plan.delta - np.pi) <= 1e-12


def test_plan_bits_grow_by_at_most_one_when_gamma_halves():
    rng = np.random.default_rng(3)
    for _ in range(50):
        omega = float(rng.uniform(0.5, 50.0))
        gamma = omega * 10 ** float(rng.uniform(-3, -0.5))
        coarse = plan_resolution(omega, gamma)
        fine = plan_resolution(omega, gamma / 2)
        assert fine.num_bits - coarse.num_bits <= 1


def test_plan_satisfies_both_inequalities():
    plan = plan_resolution(7.3, 0.21)
    scale = plan.delta * (1 << plan.num_bits) / (2 * np.pi)
    assert scale >= 1 / plan.gamma - 1e-9
    assert scale <= ((1 << plan.num_bits) - 1) / plan.omega_max + 1e-9


def test_plan_rejects_unresolvable_input():
    with pytest.raises(ValueError):
        plan_resolution(1.0, 1.0)
    with pytest.raises(ValueError):
        plan_resolution(1.0, 2.0)
    with pytest.raises(ValueError):
        plan_resolution(0.0, 0.1)


@pytest.mark.parametrize("omega_max, gamma", [
    (float("inf"), 1.0), (float("nan"), 1.0), (1.0, float("nan")), (float("inf"), float("inf")),
])
def test_plan_rejects_non_finite_input(omega_max, gamma):
    with pytest.raises(ValueError):
        plan_resolution(omega_max, gamma)


@pytest.mark.parametrize("omega_max, gamma", [(1e300, 1e-150), (1.7e308, 0.5), (1.7e308, 1e100)])
def test_plan_rejects_a_register_past_the_double_range(omega_max, gamma):
    # omega_max/gamma, 2**l or gamma * 2**l overflows; the doubling loop never ended on the first.
    with pytest.raises(ResourceCapError):
        plan_resolution(omega_max, gamma)


def test_plan_bits_match_the_doubling_search():
    # The exponent read-off picks the same l as the doubling loop it replaced, on
    # ratios that are exact powers of two, just above one, and in between.
    for k in range(2, 1021):
        for omega_max in (2.0**k - 1.0, np.nextafter(2.0**k - 1.0, np.inf), 0.75 * 2.0**k):
            ratio = 1.0 + omega_max
            expected = 1
            while (1 << expected) < ratio:
                expected += 1
            assert plan_resolution(float(omega_max), 1.0).num_bits == expected


# --- distribution container -----------------------------------------------------------


def test_phase_distribution_validation():
    with pytest.raises(ValueError):
        PhaseDistribution(2, 0.5, np.array([0.5, 0.5, 0.5, 0.5]))
    with pytest.raises(ValueError):
        PhaseDistribution(1, 0.5, np.array([0.5, 0.5]), kind="empirical")


def test_phase_distribution_csv_and_json_round_trip(tmp_path):
    # A distribution goes to disk through the package's one CSV and one JSON writer.
    dist = run_qpe(thermal_operator_state(PAULI_X, None, INFINITE_TEMPERATURE), PAULI_Z, 3, np.pi / 4)
    csv_path = tmp_path / "dist.csv"
    write_csv(csv_path, ("f", "omega", "probability"), zip(range(8), dist.frequencies(), dist.probabilities))
    rows = csv_path.read_text().strip().splitlines()
    assert rows[0] == "f,omega,probability"
    parsed = [row.split(",") for row in rows[1:]]
    assert [row[0] for row in parsed] == [str(f) for f in range(8)]
    np.testing.assert_array_equal(np.array([float(row[1]) for row in parsed]), dist.frequencies())
    np.testing.assert_array_equal(np.array([float(row[2]) for row in parsed]), dist.probabilities)

    json_path = tmp_path / "dist.json"
    write_json(json_path, {"num_bits": dist.num_bits, "probabilities": dist.probabilities.tolist()})
    payload = json.loads(json_path.read_text())
    assert json_path.read_text().endswith("}\n")
    np.testing.assert_array_equal(np.array(payload["probabilities"]), dist.probabilities)
    assert payload["num_bits"] == 3
