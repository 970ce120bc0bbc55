"""Phase-register statistics of the counter-propagating circuit."""

import json
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import (
    GROUND_STATE,
    INFINITE_TEMPERATURE,
    at_infinite_temperature,
    gibbs,
    plus_state,
    preset_observable,
    random_hermitian,
    random_real_symmetric,
    tensor_product,
)
from qspec import qpe, simcore
from qspec.errors import DimensionMismatchError, NormalizationError, ResourceCapError
from qspec.experiment import write_csv, write_json
from qspec.models import build_operator, heisenberg, tilted_ising
from qspec.oracle import distribution_distance, exact_outcome_distribution, transition_weights
from qspec.purify import thermal_operator_state
from qspec.qpe import (
    PhaseDistribution,
    outcome_frequency,
    plan_resolution,
    run_qpe,
    sample_outcomes,
)
from qspec.simcore import (
    HermitianOperator,
    StateVector,
    _fourier,
    apply_controlled_unitary,
    apply_unitary,
    eig_hermitian,
    inverse_qft,
    register_distribution,
)

PAULI_X = HermitianOperator(np.array([[0, 1], [1, 0]], dtype=complex))
PAULI_Z = HermitianOperator(np.diag([1.0, -1.0]))


def test_zero_hamiltonian_concentrates_at_zero():
    prepared = thermal_operator_state(*at_infinite_temperature(PAULI_X))
    dist = run_qpe(prepared, HermitianOperator(np.zeros((2, 2))).eig, 4, 0.3)
    expected = np.zeros(16)
    expected[0] = 1.0
    np.testing.assert_allclose(dist.probabilities, expected, atol=1e-12)


def test_two_level_lines_land_on_exact_bins():
    # Gaps +-2 at delta = pi/4 and l = 3 give integer bin offsets +-2.
    dist = run_qpe(thermal_operator_state(PAULI_X, PAULI_Z.eig, INFINITE_TEMPERATURE), PAULI_Z.eig, 3, np.pi / 4)
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
    prepared = thermal_operator_state(obs, ham.eig, INFINITE_TEMPERATURE)
    circuit = run_qpe(prepared, ham.eig, num_bits, delta)
    reference = exact_outcome_distribution(transition_weights(ham.eig, obs, INFINITE_TEMPERATURE), num_bits, delta)
    assert distribution_distance(circuit, reference, "max_abs") <= 1e-10


def test_circuit_matches_oracle_with_degenerate_spectrum():
    # The isotropic chain has exactly degenerate levels; outcome statistics
    # must not depend on which orthonormal basis the solver picks.
    ham = build_operator(heisenberg(2))
    obs = preset_observable("staggered_sz", 2)
    circuit = run_qpe(thermal_operator_state(obs, ham.eig, INFINITE_TEMPERATURE), ham.eig, 4, 0.43)
    reference = exact_outcome_distribution(transition_weights(ham.eig, obs, INFINITE_TEMPERATURE), 4, 0.43)
    assert distribution_distance(circuit, reference, "max_abs") <= 1e-10


@pytest.mark.parametrize("ensemble", [gibbs(1.2), GROUND_STATE])
def test_circuit_matches_oracle_for_thermal_ensembles(ensemble):
    ham = random_real_symmetric(2, seed=23)
    obs = preset_observable("total_sz", 2)
    prepared = thermal_operator_state(obs, ham.eig, ensemble)
    circuit = run_qpe(prepared, ham.eig, 5, 0.39)
    reference = exact_outcome_distribution(transition_weights(ham.eig, obs, ensemble), 5, 0.39)
    assert distribution_distance(circuit, reference, "max_abs") <= 1e-10


#: ``run_qpe``'s heap peak on the cap diagonal, in working arrays (2**l * 4**N
#: complex doubles): at most 1.13 for N=2-8, measured 1.03-1.125 at 1 and 2 BLAS
#: threads (the working array, the probabilities and one block of the right
#: product, at most 4 MiB of matrix rows).
#: The exceptions: N=1 (1.129), whose rows hold four amplitudes, so the
#: probabilities add an eighth of a working array (the marginal allocates nothing
#: else); N=9 (1.25), whose eight rows of 4 MiB each make a block one row
#: and a propagator an eighth of the array; and N=10 (1.63), which has one
#: register row of the size of a propagator and peaks with the propagator and
#: one block of the product that builds it.
DIAGONAL_HEAP_EXCEPTIONS = {1: 1.135, 9: 1.3, 10: 1.7}


@pytest.mark.parametrize("num_sites", range(1, 11))
def test_circuit_matches_oracle_along_the_cap_diagonal(num_sites):
    # The largest register at every N under the 22-qubit cap (2N + l + 1 = 22 with
    # circuit prep's ancilla), one ensemble per N.  The ground state uses Heisenberg
    # with site_sz: total_sz commutes with that model and would give one line at 0.
    num_bits = 21 - 2 * num_sites
    ensemble = (INFINITE_TEMPERATURE, gibbs(1.0), GROUND_STATE)[num_sites % 3]
    if ensemble is GROUND_STATE:
        ham, obs = build_operator(heisenberg(num_sites)), preset_observable("site_sz", num_sites)
    else:
        ham, obs = build_operator(tilted_ising(num_sites)), preset_observable("total_sz", num_sites)
    prepared = thermal_operator_state(obs, ham.eig, ensemble)
    ham.eig  # the memoised decomposition is not part of the circuit
    working = (1 << num_bits) * 4**num_sites * 16
    tracemalloc.start()
    try:
        circuit = run_qpe(prepared, ham.eig, num_bits, 0.05)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= DIAGONAL_HEAP_EXCEPTIONS.get(num_sites, 1.13) * working
    reference = exact_outcome_distribution(transition_weights(ham.eig, obs, ensemble), num_bits, 0.05)
    assert distribution_distance(circuit, reference, "total_variation") <= 1e-10


def test_frequency_symmetry_at_infinite_temperature():
    ham = random_real_symmetric(2, seed=7)
    obs = preset_observable("site_sz", 2, 0)
    dist = run_qpe(thermal_operator_state(obs, ham.eig, INFINITE_TEMPERATURE), ham.eig, 5, 0.31)
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
    prepared = thermal_operator_state(preset_observable("total_sz", num_sites), ham.eig, INFINITE_TEMPERATURE)
    copy_a, copy_b, phase = register_positions(num_sites, num_bits)
    state = tensor_product(prepared, plus_state(num_bits))
    eig = eig_hermitian(ham)
    forward = eig.propagator(delta)
    backward = forward.conj()  # exp(-1j*H^T*delta) on copy b
    for j in range(num_bits):
        control = phase[num_bits - 1 - j]
        for _ in range(1 << j):
            state = apply_controlled_unitary(state, control, forward, copy_a)
            state = apply_controlled_unitary(state, control, backward, copy_b)
    state = inverse_qft(state, phase)
    stepped = register_distribution(state, phase)
    powered = run_qpe(prepared, ham.eig, num_bits, delta)
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
        backward = forward.conj()  # exp(-1j*H^T*t) on copy b
        state = apply_controlled_unitary(state, control, forward, copy_a)
        state = apply_controlled_unitary(state, control, backward, copy_b)
    dim = 1 << num_bits
    fourier = np.exp(-2j * np.pi * np.outer(np.arange(dim), np.arange(dim)) / dim) / np.sqrt(dim)
    state = apply_unitary(state, fourier, phase)
    return register_distribution(state, phase)


@settings(max_examples=40, deadline=None)
@given(
    num_sites=st.integers(1, 3),
    num_bits=st.integers(1, 6),
    seed=st.integers(0, 10_000),
    real=st.booleans(),
    ensemble=st.sampled_from([INFINITE_TEMPERATURE, gibbs(0.8), GROUND_STATE]),
    delta=st.floats(0.05, 1.5),
)
def test_run_qpe_matches_gate_by_gate_circuit(num_sites, num_bits, seed, real, ensemble, delta):
    ham = (random_real_symmetric if real else random_hermitian)(num_sites, seed=seed)
    obs = random_hermitian(num_sites, seed=seed + 1)
    prepared = thermal_operator_state(obs, ham.eig, ensemble)
    reference = gate_by_gate_qpe(prepared, ham, num_bits, delta)
    dist = run_qpe(prepared, ham.eig, num_bits, delta)
    assert np.max(np.abs(dist.probabilities - reference)) <= 1e-12


@pytest.mark.parametrize("num_sites, num_bits", [(1, 1), (4, 1), (2, 5), (4, 5)])
def test_run_qpe_works_copy_a_major_with_one_left_product_per_step(monkeypatch, num_sites, num_bits):
    # psi[a, x, b] puts every branch of one copy-a row side by side, so U_j psi
    # over all new branches is one gemm, and the FFT runs in place along x.
    # (2, 5) and (4, 5) reach 2**j >= 2**N, where the right product goes by copy-a row.
    products, transforms = [], []
    matmul = np.matmul

    def matmul_spy(left, right, out=None):
        products.append((left, out))
        return matmul(left, right, out=out)

    def fourier_spy(amplitudes, out=None):
        transforms.append((amplitudes, out))
        return _fourier(amplitudes, out=out)

    monkeypatch.setattr(np, "matmul", matmul_spy)
    monkeypatch.setattr(qpe, "_fourier", fourier_spy)
    ham = random_hermitian(num_sites, seed=num_bits)
    prepared = thermal_operator_state(random_hermitian(num_sites, seed=7), ham.eig, gibbs(0.8))
    dist = run_qpe(prepared, ham.eig, num_bits, 0.4)
    [(amplitudes, out)] = transforms
    assert out is amplitudes
    sys_dim = 2**num_sites
    psi = amplitudes.swapaxes(0, 1)
    assert psi.shape == (sys_dim, 1 << num_bits, sys_dim) and psi.flags.c_contiguous
    # A left product writes into the working array from an operand that is not its output.
    left = [out.shape for operand, out in products if out is not operand and np.shares_memory(out, psi)]
    assert left == [(sys_dim, sys_dim << j) for j in range(num_bits)]
    reference = gate_by_gate_qpe(prepared, ham, num_bits, 0.4)
    assert np.max(np.abs(dist.probabilities - reference)) <= 1e-12


def test_run_qpe_rejects_bad_inputs():
    prepared = thermal_operator_state(PAULI_X, PAULI_Z.eig, INFINITE_TEMPERATURE)
    with pytest.raises(ValueError):
        run_qpe(prepared, PAULI_Z.eig, 3, 0.0)
    with pytest.raises(DimensionMismatchError):
        run_qpe(prepared, HermitianOperator(np.eye(4)).eig, 3, 0.5)
    with pytest.raises(ResourceCapError):
        run_qpe(prepared, PAULI_Z.eig, 21, 0.5)


@pytest.mark.parametrize("delta", [-0.5, float("inf"), float("nan")])
def test_run_qpe_rejects_a_nonpositive_or_nonfinite_delta(delta):
    prepared = thermal_operator_state(PAULI_X, PAULI_Z.eig, INFINITE_TEMPERATURE)
    with pytest.raises(ValueError, match="delta must be positive"):
        run_qpe(prepared, PAULI_Z.eig, 3, delta)


def test_run_qpe_rejects_a_non_finite_register_state():
    # Phases of 1e310 overflow, so every propagator entry and the norm are NaN.
    prepared = thermal_operator_state(*at_infinite_temperature(PAULI_X))
    huge = HermitianOperator(np.diag([1e300, -1e300]))
    with np.errstate(over="ignore", invalid="ignore"), pytest.raises(NormalizationError):
        run_qpe(prepared, huge.eig, 3, 1e10)


def test_run_qpe_rejects_a_register_total_past_the_tolerance():
    # An amplitude of 1 + 0.9e-10 passes the state's own norm check, but its
    # probabilities sum to 1 + 1.8e-10; PhaseDistribution used to reject that
    # total with a bare ValueError, after run_qpe had checked only its root.
    prepared = StateVector(2, np.array([1 + 0.9e-10, 0.0, 0.0, 0.0]))
    with pytest.raises(NormalizationError, match="by 1.800e-10"):
        run_qpe(prepared, PAULI_Z.eig, 3, 0.3)


def test_run_qpe_heap_peak_is_one_working_array():
    # The branches are filled in doubling order, multiplied and transformed in
    # place: the peak is the working array, one block of the right product and
    # one propagator (measured: 1 MiB and 17 KiB beside the working array).
    num_sites, num_bits = 5, 8
    ham = random_hermitian(num_sites, seed=5)
    prepared = thermal_operator_state(random_hermitian(num_sites, seed=6), ham.eig, INFINITE_TEMPERATURE)
    ham.eig  # the memoised decomposition is not part of the circuit
    working = (1 << num_bits) * 4**num_sites * 16
    tracemalloc.start()
    try:
        run_qpe(prepared, ham.eig, num_bits, 0.3)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    propagator = 4**num_sites * 16
    assert peak <= working + qpe._BLOCK_BYTES + 2 * propagator


@pytest.mark.parametrize("num_sites, num_bits", [(2, 10), (3, 8), (5, 6), (6, 9)])
def test_transform_and_marginal_allocate_only_the_probabilities(monkeypatch, num_sites, num_bits):
    # From the inverse QFT on, the heap grows by the 2**l probabilities and
    # iterator scraps (measured at most 1.6 KiB): the FFT runs in place and the
    # marginal reads the working array's float view without a gather buffer.
    ham = random_hermitian(num_sites, seed=5)
    prepared = thermal_operator_state(random_hermitian(num_sites, seed=6), ham.eig, INFINITE_TEMPERATURE)
    ham.eig  # the memoised decomposition is not part of the circuit
    fourier, entry = qpe._fourier, []

    def traced(amplitudes, out):
        entry.append(tracemalloc.get_traced_memory()[0])
        tracemalloc.reset_peak()
        return fourier(amplitudes, out=out)

    monkeypatch.setattr(qpe, "_fourier", traced)
    tracemalloc.start()
    try:
        run_qpe(prepared, ham.eig, num_bits, 0.3)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak - entry[0] <= 8 * (1 << num_bits) + 4096


def test_run_qpe_bytes_do_not_depend_on_the_block_size(monkeypatch):
    # Right-product blocks of one branch matrix (2**N x 2**N complex doubles),
    # of three (which does not divide the branch count) and the default (a
    # quarter of this working array).  A block of matrix rows is cut to a
    # blocked product's block: a one-byte block gives the fewest allowed,
    # eight, so two per branch while 2**j < 2**N and many per copy-a row
    # after.  The marginal has no block.
    num_sites, num_bits = 4, 10
    ham = random_hermitian(num_sites, seed=8)
    prepared = thermal_operator_state(random_hermitian(num_sites, seed=9), ham.eig, INFINITE_TEMPERATURE)
    default = run_qpe(prepared, ham.eig, num_bits, 0.2).probabilities
    assert qpe._BLOCK_BYTES == (1 << num_bits) * 4**num_sites * 16 // 4
    for matrices in (1, 3):
        monkeypatch.setattr(qpe, "_BLOCK_BYTES", matrices * 4**num_sites * 16)
        np.testing.assert_array_equal(run_qpe(prepared, ham.eig, num_bits, 0.2).probabilities, default)
    assert simcore._MIN_BLOCK_ROWS == 8 == 2**num_sites // 2
    monkeypatch.setattr(qpe, "_BLOCK_BYTES", 1)
    monkeypatch.setattr(simcore, "_BLOCK_BYTES", 1)
    np.testing.assert_array_equal(run_qpe(prepared, ham.eig, num_bits, 0.2).probabilities, default)


def test_run_qpe_is_deterministic():
    ham = random_real_symmetric(2, seed=13)
    prepared = thermal_operator_state(preset_observable("total_sz", 2), ham.eig, INFINITE_TEMPERATURE)
    first = run_qpe(prepared, ham.eig, 4, 0.6)
    second = run_qpe(prepared, ham.eig, 4, 0.6)
    np.testing.assert_array_equal(first.probabilities, second.probabilities)


# --- sampling -------------------------------------------------------------------


def test_sampling_point_mass_puts_all_shots_there():
    prepared = thermal_operator_state(*at_infinite_temperature(PAULI_X))
    dist = run_qpe(prepared, HermitianOperator(np.zeros((2, 2))).eig, 3, 0.5)
    empirical = sample_outcomes(dist, shots=1000, seed=4)
    assert empirical.probabilities[0] == 1.0
    assert empirical.shots == 1000


def test_sampling_is_seed_reproducible():
    prepared = thermal_operator_state(*at_infinite_temperature(preset_observable("total_sz", 2)))
    dist = run_qpe(prepared, random_real_symmetric(2, seed=17).eig, 5, 0.4)
    first = sample_outcomes(dist, shots=5000, seed=99)
    second = sample_outcomes(dist, shots=5000, seed=99)
    np.testing.assert_array_equal(first.probabilities, second.probabilities)
    third = sample_outcomes(dist, shots=5000, seed=100)
    assert not np.array_equal(first.probabilities, third.probabilities)


def test_sampling_concentrates_l6_preset():
    ham = build_operator(tilted_ising(2))
    prepared = thermal_operator_state(preset_observable("total_sz", 2), ham.eig, INFINITE_TEMPERATURE)
    dist = run_qpe(prepared, ham.eig, 6, np.pi / 16)
    for seed in range(20):
        empirical = sample_outcomes(dist, shots=100_000, seed=seed)
        assert distribution_distance(empirical, dist) <= 0.02


def test_sampling_requires_exact_distribution():
    dist = run_qpe(thermal_operator_state(PAULI_X, PAULI_Z.eig, INFINITE_TEMPERATURE), PAULI_Z.eig, 3, np.pi / 4)
    empirical = sample_outcomes(dist, shots=10, seed=0)
    with pytest.raises(ValueError, match="sampling requires an exact distribution"):
        sample_outcomes(empirical, shots=10, seed=0)
    with pytest.raises(ValueError):
        sample_outcomes(dist, shots=0, seed=0)


# --- outcome frequencies ------------------------------------------------------------


def test_outcome_frequency_zero():
    assert outcome_frequency(0, 3, np.pi / 4) == 0.0


def test_outcome_frequency_positive_and_wrapped():
    assert abs(outcome_frequency(2, 3, np.pi / 4) - 2.0) <= 1e-14
    assert abs(outcome_frequency(6, 3, np.pi / 4) + 2.0) <= 1e-14
    # The middle outcome 2**(l-1) is the first to wrap.
    assert abs(outcome_frequency(3, 3, np.pi / 4) - 3.0) <= 1e-14
    assert abs(outcome_frequency(4, 3, np.pi / 4) + 4.0) <= 1e-14


def test_outcome_frequency_range_check():
    with pytest.raises(ValueError):
        outcome_frequency(8, 3, np.pi / 4)
    with pytest.raises(ValueError):
        outcome_frequency(-1, 3, np.pi / 4)
    with pytest.raises(ValueError):
        outcome_frequency(np.array([0, 8]), 3, np.pi / 4)


@pytest.mark.parametrize("num_bits", [1, 2, 7, 12])
@pytest.mark.parametrize("delta", [0.05, 0.3, np.pi / 4, 7.123456789])
def test_frequencies_are_each_outcome_frequency_byte_for_byte(num_bits, delta):
    dim = 1 << num_bits
    dist = PhaseDistribution(num_bits, delta, np.full(dim, 1.0 / dim))
    freqs = dist.frequencies
    expected = np.array([outcome_frequency(f, num_bits, delta) for f in range(dim)])
    assert freqs.dtype == np.float64
    assert freqs.tobytes() == expected.tobytes()
    # Computed once: the report's omega column and the spectrum grid share one array.
    assert dist.frequencies is freqs and not freqs.flags.writeable


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
        PhaseDistribution(1, 0.5, np.array([0.5, 0.5]), shots=0)


@pytest.mark.parametrize("bad", [float("nan"), float("inf")])
def test_phase_distribution_rejects_non_finite_probabilities(bad):
    with pytest.raises(ValueError, match="probabilities must be finite"):
        PhaseDistribution(1, 0.1, np.array([bad, bad]))
    with pytest.raises(ValueError, match="probabilities must be finite"):
        PhaseDistribution(1, 0.1, np.array([1.0, bad]))


def test_phase_distribution_csv_and_json_round_trip(tmp_path):
    # A distribution goes to disk through the package's one CSV and one JSON writer.
    dist = run_qpe(thermal_operator_state(PAULI_X, PAULI_Z.eig, INFINITE_TEMPERATURE), PAULI_Z.eig, 3, np.pi / 4)
    csv_path = tmp_path / "dist.csv"
    write_csv(csv_path, {"f": range(8), "omega": dist.frequencies, "probability": dist.probabilities})
    rows = csv_path.read_text().strip().splitlines()
    assert rows[0] == "f,omega,probability"
    parsed = [row.split(",") for row in rows[1:]]
    assert [row[0] for row in parsed] == [str(f) for f in range(8)]
    np.testing.assert_array_equal(np.array([float(row[1]) for row in parsed]), dist.frequencies)
    np.testing.assert_array_equal(np.array([float(row[2]) for row in parsed]), dist.probabilities)

    json_path = tmp_path / "dist.json"
    write_json(json_path, {"num_bits": dist.num_bits, "probabilities": dist.probabilities.tolist()})
    payload = json.loads(json_path.read_text())
    assert json_path.read_text().endswith("}\n")
    np.testing.assert_array_equal(np.array(payload["probabilities"]), dist.probabilities)
    assert payload["num_bits"] == 3
