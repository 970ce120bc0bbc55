"""Exact-diagonalization references: correlations, spectra, weights, kernel."""

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from helpers import (
    complex_copy,
    preset_observable,
    random_hermitian,
    random_real_symmetric,
    real_pauli_sums,
)
from qspec import (
    GROUND_STATE,
    INFINITE_TEMPERATURE,
    HermitianOperator,
    build_operator,
    correlation_function,
    correlation_series,
    distribution_distance,
    eig_hermitian,
    exact_outcome_distribution,
    gibbs,
    golden_rule_weights,
    ground_state_degeneracy,
    heisenberg,
    purify_operator,
    qpe_kernel,
    run_qpe,
    spectral_function,
    thermal_operator_state,
    tilted_ising,
    transition_weights,
)
from qspec.errors import DimensionMismatchError, ZeroNormError, ZeroOperatorError
from qspec.oracle import _kernel

PAULI_X = HermitianOperator(np.array([[0, 1], [1, 0]], dtype=complex))
PAULI_Z = HermitianOperator(np.diag([1.0, -1.0]))


# --- correlation functions ------------------------------------------------------


def test_equal_time_correlation_is_second_moment():
    op = random_hermitian(2, seed=3)
    ham = random_hermitian(2, seed=4)
    value = correlation_function(ham, op, 0.0)
    m2 = np.trace(op.matrix @ op.matrix).real / 4
    assert abs(value - m2) <= 1e-12


def test_two_level_correlation_is_cosine():
    for t in np.linspace(-4, 4, 17):
        value = correlation_function(PAULI_Z, PAULI_X, float(t))
        assert abs(value - np.cos(2 * t)) <= 1e-12


def test_correlation_conjugate_symmetry():
    ham = random_real_symmetric(2, seed=5)
    op = random_real_symmetric(2, seed=6)
    for t in (0.3, 1.7):
        forward = correlation_function(ham, op, t)
        backward = correlation_function(ham, op, -t)
        assert abs(forward - np.conj(backward)) <= 1e-12


def test_correlation_dimension_mismatch():
    with pytest.raises(DimensionMismatchError):
        correlation_function(PAULI_Z, HermitianOperator(np.eye(4)), 0.1)


def test_ground_state_correlation_matches_direct_expectation():
    ham = random_real_symmetric(2, seed=8)
    op = random_real_symmetric(2, seed=9)
    eig = eig_hermitian(ham)
    psi0 = eig.eigenvectors[:, 0]
    t = 0.9
    propagator = eig.propagator(t, +1)
    direct = psi0.conj() @ propagator @ op.matrix @ propagator.conj().T @ op.matrix @ psi0
    assert abs(correlation_function(ham, op, t, GROUND_STATE) - direct) <= 1e-12


def test_gibbs_correlation_matches_density_matrix_trace():
    from qspec import gibbs

    ham = random_real_symmetric(2, seed=10)
    op = random_real_symmetric(2, seed=11)
    beta = 0.9
    eig = eig_hermitian(ham)
    rho = eig.apply_function(lambda lam: np.exp(-beta * (lam - lam[0])))
    rho /= np.trace(rho)
    t = 1.4
    propagator = eig.propagator(t, +1)
    heisenberg_op = propagator @ op.matrix @ propagator.conj().T
    direct = np.trace(rho @ heisenberg_op @ op.matrix)
    assert abs(correlation_function(ham, op, t, gibbs(beta)) - direct) <= 1e-12


# --- spectral functions ------------------------------------------------------------


def test_two_level_spectrum_closed_form():
    gamma = 0.2
    omega = np.linspace(-4, 4, 201)
    table = spectral_function(PAULI_Z, PAULI_X, omega, gamma)
    expected = 0.5 * (gamma / (gamma**2 + (omega - 2) ** 2) + gamma / (gamma**2 + (omega + 2) ** 2))
    np.testing.assert_allclose(table.values, expected, atol=1e-12)


def test_commuting_observable_gives_single_lorentzian_at_zero():
    ham = HermitianOperator(np.diag([0.3, 1.1, 2.0, 2.9]))
    op = HermitianOperator(np.diag([1.0, -1.0, 2.0, -2.0]))
    gamma = 0.15
    omega = np.linspace(-3, 3, 101)
    table = spectral_function(ham, op, omega, gamma)
    m2 = np.trace(op.matrix @ op.matrix).real / 4
    np.testing.assert_allclose(table.values, m2 * gamma / (gamma**2 + omega**2), atol=1e-12)


def test_spectrum_matches_time_domain_quadrature():
    # Independent route: trapezoid integration of exp(1j*w*t - gamma*t) S(t).
    ham = random_real_symmetric(2, seed=12)
    op = random_real_symmetric(2, seed=13)
    gamma = 1.0
    times = np.linspace(0.0, 40.0 / gamma, 200_001)
    series = correlation_series(ham, op, times)
    for omega in (-2.3, 0.0, 0.7, 3.1):
        integrand = np.exp((1j * omega - gamma) * times) * series
        direct = np.trapezoid(integrand, times).real
        closed = spectral_function(ham, op, np.array([omega]), gamma).values[0]
        assert abs(closed - direct) <= 1e-6


def test_spectral_function_rejects_nonpositive_gamma():
    with pytest.raises(ValueError):
        spectral_function(PAULI_Z, PAULI_X, np.array([0.0]), 0.0)


def test_spectrum_table_exports_round_trip(tmp_path):
    import json

    table = spectral_function(PAULI_Z, PAULI_X, np.linspace(-3, 3, 11), 0.4)
    table.to_csv(tmp_path / "spectrum.csv")
    rows = (tmp_path / "spectrum.csv").read_text().strip().splitlines()
    assert rows[0] == "omega,sigma"
    parsed = np.array([[float(v) for v in row.split(",")] for row in rows[1:]])
    np.testing.assert_array_equal(parsed[:, 0], table.frequencies)
    np.testing.assert_array_equal(parsed[:, 1], table.values)

    table.to_json(tmp_path / "spectrum.json")
    payload = json.loads((tmp_path / "spectrum.json").read_text())
    np.testing.assert_array_equal(np.array(payload["sigma"]), table.values)
    assert payload["gamma"] == 0.4


# --- transition weights ----------------------------------------------------------------


def test_two_level_golden_rule_weights():
    weights = golden_rule_weights(PAULI_Z, PAULI_X)
    np.testing.assert_allclose(weights.weights, [[0.0, 0.5], [0.5, 0.0]], atol=1e-12)
    assert weights.matrix_element_weights is None


def test_commuting_observable_weights_are_diagonal():
    ham = HermitianOperator(np.diag([0.1, 0.9, 1.7, 3.0]))
    op = HermitianOperator(np.diag([1.0, 2.0, -1.0, 0.5]))
    weights = golden_rule_weights(ham, op)
    diag = np.array([1.0, 4.0, 1.0, 0.25])
    np.testing.assert_allclose(weights.weights, np.diag(diag / diag.sum()), atol=1e-12)


def test_weights_symmetric_for_real_symmetric_inputs():
    ham = random_real_symmetric(3, seed=14)
    op = random_real_symmetric(3, seed=15)
    weights = golden_rule_weights(ham, op).weights
    assert np.max(np.abs(weights - weights.T)) <= 1e-12
    assert abs(weights.sum() - 1.0) <= 1e-10


def test_purification_route_equals_matrix_elements_route():
    # Dual route: weights from the actual purified state against direct
    # squared matrix elements of the observable.
    ham = random_real_symmetric(3, seed=16)
    op = random_real_symmetric(3, seed=17)
    eig = eig_hermitian(ham)
    state = purify_operator(op)
    matrix = state.amplitudes.reshape(8, 8)
    coeffs = eig.eigenvectors.conj().T @ matrix @ eig.eigenvectors.conj()
    from_state = np.abs(coeffs) ** 2
    elements = eig.eigenvectors.conj().T @ op.matrix @ eig.eigenvectors
    from_elements = np.abs(elements) ** 2 / np.trace(op.matrix @ op.matrix).real
    assert np.max(np.abs(from_state - from_elements)) <= 1e-10
    np.testing.assert_allclose(golden_rule_weights(ham, op).weights, from_state, atol=1e-12)


def test_ground_state_weights_select_ground_column():
    ham = random_real_symmetric(2, seed=18)
    op = random_real_symmetric(2, seed=19)
    weights = transition_weights(ham, op, GROUND_STATE).weights
    assert np.max(np.abs(weights[:, 1:])) <= 1e-12  # only transitions out of the ground state
    assert abs(weights.sum() - 1.0) <= 1e-10


def test_weights_reject_zero_operator():
    with pytest.raises(ZeroOperatorError):
        golden_rule_weights(PAULI_Z, HermitianOperator(np.zeros((2, 2))))


def test_complex_inputs_report_both_weight_routes():
    # Without time-reversal symmetry the purification route and the squared
    # matrix elements genuinely differ; the circuit follows the former.
    ham = random_hermitian(2, seed=201)
    obs = random_hermitian(2, seed=202)
    gw = golden_rule_weights(ham, obs)
    assert gw.matrix_element_weights is not None
    assert np.max(np.abs(gw.weights - gw.matrix_element_weights)) > 1e-3
    circuit = run_qpe(purify_operator(obs), ham, 5, 0.4)
    reference = exact_outcome_distribution(ham, obs, 5, 0.4)
    assert distribution_distance(circuit, reference, "max_abs") <= 1e-10


# --- leakage kernel ---------------------------------------------------------------------


def test_kernel_exact_hit_gives_one():
    assert qpe_kernel(0.0, 0, 4, 0.7) == 1.0
    # Gap that lands exactly on bin 5: delta_energy = 2*pi*5 / (delta * 2**l).
    delta = 0.7
    gap = 2 * np.pi * 5 / (delta * 16)
    assert abs(qpe_kernel(gap, 5, 4, delta) - 1.0) <= 1e-12


def test_kernel_vanishes_on_other_integer_offsets():
    delta = 0.9
    gap = 2 * np.pi * 3 / (delta * 16)  # sits on bin 3
    for f in (0, 1, 2, 4, 9, 15):
        assert abs(qpe_kernel(gap, f, 4, delta)) <= 1e-25


def test_kernel_half_offset_single_bit():
    # l = 1, offset 0.5: (1/4) sin^2(pi/2) / sin^2(pi/4) = 1/2.
    delta = 1.0
    gap = 2 * np.pi * 0.5 / (delta * 2)
    assert abs(qpe_kernel(gap, 0, 1, delta) - 0.5) <= 1e-12


def test_kernel_bounded_below_by_sinc_squared():
    for num_bits in range(1, 9):
        dim = 1 << num_bits
        offsets = np.arange(-dim, dim + 1e-9, 0.01)
        delta = 1.0
        gaps = 2 * np.pi * offsets / (delta * dim)
        kernel = np.array([qpe_kernel(g, 0, num_bits, delta) for g in gaps])
        assert np.min(kernel - np.sinc(offsets) ** 2) >= -1e-12


def test_kernel_row_is_normalized():
    # Summed over all bins, the leakage of any fixed gap is exactly 1.
    for gap in (0.0, 0.37, 1.9, -2.4):
        total = sum(qpe_kernel(gap, f, 5, 0.8) for f in range(32))
        assert abs(total - 1.0) <= 1e-10


def test_kernel_range_check():
    with pytest.raises(ValueError):
        qpe_kernel(0.1, 16, 4, 0.5)


# --- closed-form outcome distribution ------------------------------------------------------


def test_outcome_distribution_zero_hamiltonian():
    dist = exact_outcome_distribution(HermitianOperator(np.zeros((2, 2))), PAULI_X, 3, 0.4)
    expected = np.zeros(8)
    expected[0] = 1.0
    np.testing.assert_allclose(dist.probabilities, expected, atol=1e-12)


def test_outcome_distribution_two_level_lines():
    dist = exact_outcome_distribution(PAULI_Z, PAULI_X, 3, np.pi / 4)
    np.testing.assert_allclose(dist.probabilities[[2, 6]], [0.5, 0.5], atol=1e-12)
    assert abs(dist.probabilities.sum() - 1.0) <= 1e-10


def test_outcome_distribution_matches_circuit_on_random_instance():
    ham = random_real_symmetric(3, seed=20)
    obs = preset_observable("total_sz", 3)
    circuit = run_qpe(purify_operator(obs), ham, 5, 0.23)
    reference = exact_outcome_distribution(ham, obs, 5, 0.23)
    assert distribution_distance(circuit, reference, "max_abs") <= 1e-10


def test_consistency_triangle_concentration():
    # Every aggregated gap keeps at least 80% of its weight within two bins
    # of its mapped location once the register has six bits.
    ham = build_operator(tilted_ising(2))
    obs = preset_observable("total_sz", 2)
    num_bits, dim = 6, 64
    eig = eig_hermitian(ham)
    span = float(eig.eigenvalues[-1] - eig.eigenvalues[0])
    delta = 2 * np.pi * (dim // 2 - 1) / (dim * span)
    dist = exact_outcome_distribution(ham, obs, num_bits, delta)
    weights = transition_weights(ham, obs)
    gaps = weights.energies[:, None] - weights.energies[None, :]
    flat_gaps = gaps.reshape(-1)
    flat_weights = weights.weights.reshape(-1)
    # Aggregate degenerate gaps before checking concentration.
    order = np.argsort(flat_gaps)
    grouped: list[tuple[float, float]] = []
    for gap, weight in zip(flat_gaps[order], flat_weights[order]):
        if grouped and abs(gap - grouped[-1][0]) < 1e-9:
            grouped[-1] = (grouped[-1][0], grouped[-1][1] + weight)
        else:
            grouped.append((gap, weight))
    scale = delta * dim / (2 * np.pi)
    for gap, weight in grouped:
        if weight < 1e-6:
            continue
        center = int(np.round(scale * gap)) % dim
        window = [(center + off) % dim for off in range(-2, 3)]
        assert dist.probabilities[window].sum() >= 0.8 * weight


def test_spectrum_and_outcome_peaks_coincide():
    # With gamma set to one bin width, Lorentzian maxima and the discrete
    # distribution maxima sit within one bin of each other.
    ham = build_operator(tilted_ising(3))
    obs = preset_observable("total_sz", 3)
    num_bits, dim = 8, 256
    eig = eig_hermitian(ham)
    span = float(eig.eigenvalues[-1] - eig.eigenvalues[0])
    delta = 2 * np.pi * (dim // 2 - 1) / (dim * span)
    gamma = 2 * np.pi / (delta * dim)
    dist = exact_outcome_distribution(ham, obs, num_bits, delta)
    freqs = dist.frequencies()
    table = spectral_function(ham, obs, np.sort(freqs), gamma)
    order = np.argsort(freqs)

    p = dist.probabilities
    local_max_bins = {
        f for f in range(dim) if p[f] >= p[(f - 1) % dim] and p[f] >= p[(f + 1) % dim]
    }
    sigma = table.values
    for k in range(1, dim - 1):
        if sigma[k] >= sigma[k - 1] and sigma[k] >= sigma[k + 1] and sigma[k] > 0.05 * sigma.max():
            bin_of_peak = int(order[k])
            assert any((bin_of_peak + off) % dim in local_max_bins for off in (-1, 0, 1))


@settings(max_examples=60, deadline=None)
@given(
    num_sites=st.integers(1, 4),
    num_bits=st.integers(1, 9),
    delta=st.floats(0.01, 3.0),
    scale=st.sampled_from([0.1, 1.0, 30.0, 1e9]),
    on_bins=st.booleans(),
    seed=st.integers(0, 10_000),
)
def test_outcome_distribution_matches_kernel_sum(num_sites, num_bits, delta, scale, on_bins, seed):
    # Reference: every transition weight times the leakage kernel at every bin offset.
    dim = 1 << num_bits
    energies = np.sort(np.random.default_rng(seed).normal(size=1 << num_sites)) * scale
    if on_bins:  # gaps on exact bin offsets, the zero offset included
        energies = np.round(energies) * 2 * np.pi / (delta * dim)
    ham = HermitianOperator(np.diag(energies))
    obs = random_real_symmetric(num_sites, seed)
    dist = exact_outcome_distribution(ham, obs, num_bits, delta)
    tw = transition_weights(ham, obs)
    gaps = (tw.energies[:, None] - tw.energies[None, :]).reshape(-1)
    offsets = (delta * dim * gaps / (2 * np.pi))[:, None] - np.arange(dim)
    reference = tw.weights.reshape(-1) @ _kernel(offsets, num_bits)
    assert np.max(np.abs(dist.probabilities - reference)) <= 1e-13
    assert abs(dist.probabilities.sum() - 1.0) <= 1e-14


# --- real and complex storage of the same operator ------------------------------------------


def _weight_moments(tw, order: int = 2) -> np.ndarray:
    """sum_nm w_nm e_n**p e_m**q for p, q <= order: invariant under a change of eigenbasis."""
    powers = np.vander(tw.energies, order + 1, increasing=True)
    return powers.T @ tw.weights @ powers


@settings(max_examples=40, deadline=None)
@given(
    data=st.data(),
    num_sites=st.integers(1, 4),
    num_bits=st.integers(1, 4),
    delta=st.floats(0.05, 1.5),
    ensemble=st.sampled_from([INFINITE_TEMPERATURE, gibbs(0.8), GROUND_STATE]),
)
def test_real_storage_matches_complex_storage(data, num_sites, num_bits, delta, ensemble):
    ham = build_operator(data.draw(real_pauli_sums(num_sites)))
    obs = build_operator(data.draw(real_pauli_sums(num_sites)))
    assert ham.matrix.dtype == obs.matrix.dtype == np.float64
    # A degenerate ground level has no unique ground vector to compare.
    assume(ensemble != GROUND_STATE or ground_state_degeneracy(ham, tol=1e-6) == 1)
    ham_c, obs_c = complex_copy(ham), complex_copy(obs)
    try:
        prepared = thermal_operator_state(obs, ham, ensemble)
    except (ZeroNormError, ZeroOperatorError):
        assume(False)
    prepared_c = thermal_operator_state(obs_c, ham_c, ensemble)
    assert prepared.amplitudes.dtype == np.float64
    assert prepared_c.amplitudes.dtype == np.complex128

    circuit = run_qpe(prepared, ham, num_bits, delta).probabilities
    circuit_c = run_qpe(prepared_c, ham_c, num_bits, delta).probabilities
    assert np.max(np.abs(circuit - circuit_c)) <= 1e-12
    exact = exact_outcome_distribution(ham, obs, num_bits, delta, ensemble).probabilities
    exact_c = exact_outcome_distribution(ham_c, obs_c, num_bits, delta, ensemble).probabilities
    assert np.max(np.abs(exact - exact_c)) <= 1e-12
    grid = np.linspace(-6.0, 6.0, 41)
    sigma = spectral_function(ham, obs, grid, 0.3, ensemble).values
    sigma_c = spectral_function(ham_c, obs_c, grid, 0.3, ensemble).values
    assert np.max(np.abs(sigma - sigma_c)) <= 1e-12

    tw, tw_c = transition_weights(ham, obs, ensemble), transition_weights(ham_c, obs_c, ensemble)
    assert np.max(np.abs(tw.energies - tw_c.energies)) <= 1e-12
    reach = max(1.0, float(np.max(np.abs(tw.energies))))
    tol = 1e-12 * reach ** np.add.outer(np.arange(3), np.arange(3))
    assert np.all(np.abs(_weight_moments(tw) - _weight_moments(tw_c)) <= tol)
    if np.min(np.diff(tw.energies), initial=1.0) > 1e-2:  # eigenbasis unique up to signs
        assert np.max(np.abs(tw.weights - tw_c.weights)) <= 1e-12


@pytest.mark.parametrize("ensemble", [INFINITE_TEMPERATURE, gibbs(0.7), GROUND_STATE])
def test_degenerate_heisenberg_keeps_circuit_oracle_agreement(ensemble):
    # Degenerate levels let the real eigenbasis differ from the complex one;
    # the outcome statistics must not depend on it.
    ham = build_operator(heisenberg(4))
    obs = preset_observable("staggered_sz", 4)
    assert ham.eig.eigenvectors.dtype == np.float64
    assert np.min(np.diff(ham.eig.eigenvalues)) <= 1e-12
    prepared = thermal_operator_state(obs, ham, ensemble)
    circuit = run_qpe(prepared, ham, 5, 0.37)
    reference = exact_outcome_distribution(ham, obs, 5, 0.37, ensemble)
    assert distribution_distance(circuit, reference, "max_abs") <= 1e-10
    twin = exact_outcome_distribution(complex_copy(ham), complex_copy(obs), 5, 0.37, ensemble)
    assert distribution_distance(reference, twin, "max_abs") <= 1e-12


# --- distances ---------------------------------------------------------------------------


def test_distance_trivial_cases():
    assert distribution_distance(np.array([1.0, 0.0]), np.array([1.0, 0.0])) == 0.0
    assert distribution_distance(np.array([1.0, 0.0]), np.array([0.0, 1.0])) == 1.0


def test_distance_length_mismatch():
    with pytest.raises(DimensionMismatchError):
        distribution_distance(np.array([1.0]), np.array([0.5, 0.5]))


def test_distance_unknown_metric():
    with pytest.raises(ValueError):
        distribution_distance(np.array([1.0, 0.0]), np.array([1.0, 0.0]), "hellinger")


@settings(max_examples=40, deadline=None)
@given(seed=st.integers(0, 1000))
def test_total_variation_metric_axioms(seed):
    rng = np.random.default_rng(seed)
    p = rng.random(8)
    q = rng.random(8)
    p /= p.sum()
    q /= q.sum()
    tv_pq = distribution_distance(p, q)
    tv_qp = distribution_distance(q, p)
    assert abs(tv_pq - tv_qp) <= 1e-14
    assert 0.0 <= tv_pq <= 1.0
    assert distribution_distance(p, p) <= 1e-15
    assert distribution_distance(p, q, "max_abs") <= 2 * tv_pq + 1e-15
