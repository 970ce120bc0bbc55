"""Exact-diagonalization references: correlations, spectra, weights, kernel."""

import warnings

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from helpers import (
    complex_copy,
    dense_phase_weights,
    preset_observable,
    purified_phase_weights,
    random_hermitian,
    random_real_symmetric,
    real_pauli_sums,
)
from qspec import (
    GROUND_STATE,
    INFINITE_TEMPERATURE,
    HermitianOperator,
    build_operator,
    correlation_series,
    distribution_distance,
    eig_hermitian,
    exact_outcome_distribution,
    gibbs,
    ground_state_degeneracy,
    heisenberg,
    oracle,
    qpe_kernel,
    run_qpe,
    spectral_function,
    thermal_operator_state,
    tilted_ising,
    transition_weights,
)
from qspec.errors import DimensionMismatchError, ZeroNormError, ZeroOperatorError
from qspec.experiment import write_csv, write_json
from qspec.oracle import PRUNE_SHARE, _kernel
from qspec.purify import ensemble_populations

PAULI_X = HermitianOperator(np.array([[0, 1], [1, 0]], dtype=complex))
PAULI_Z = HermitianOperator(np.diag([1.0, -1.0]))


# --- correlation functions ------------------------------------------------------


def test_equal_time_correlation_is_second_moment():
    op = random_hermitian(2, seed=3)
    ham = random_hermitian(2, seed=4)
    (value,) = correlation_series(transition_weights(ham, op), np.array([0.0]))
    m2 = np.trace(op.matrix @ op.matrix).real / 4
    assert abs(value - m2) <= 1e-12


def test_two_level_correlation_is_cosine():
    table = transition_weights(PAULI_Z, PAULI_X)
    times = np.linspace(-4, 4, 17)
    values = correlation_series(table, times)
    assert np.max(np.abs(values - np.cos(2 * times))) <= 1e-12


def test_correlation_conjugate_symmetry():
    ham = random_real_symmetric(2, seed=5)
    op = random_real_symmetric(2, seed=6)
    table = transition_weights(ham, op)
    times = np.array([0.3, 1.7])
    forward = correlation_series(table, times)
    backward = correlation_series(table, -times)
    assert np.max(np.abs(forward - np.conj(backward))) <= 1e-12


def test_correlation_dimension_mismatch():
    with pytest.raises(DimensionMismatchError):
        transition_weights(PAULI_Z, HermitianOperator(np.eye(4)))


def test_ground_state_correlation_matches_direct_expectation():
    ham = random_real_symmetric(2, seed=8)
    op = random_real_symmetric(2, seed=9)
    eig = eig_hermitian(ham)
    psi0 = eig.eigenvectors[:, 0]
    t = 0.9
    propagator = eig.propagator(t)
    direct = psi0.conj() @ propagator @ op.matrix @ propagator.conj().T @ op.matrix @ psi0
    (value,) = correlation_series(transition_weights(ham, op, GROUND_STATE), np.array([t]))
    assert abs(value - direct) <= 1e-12


def test_gibbs_correlation_matches_density_matrix_trace():
    from qspec import gibbs

    ham = random_real_symmetric(2, seed=10)
    op = random_real_symmetric(2, seed=11)
    beta = 0.9
    eig = eig_hermitian(ham)
    rho = eig.apply_function(lambda lam: np.exp(-beta * (lam - lam[0])))
    rho /= np.trace(rho)
    t = 1.4
    propagator = eig.propagator(t)
    heisenberg_op = propagator @ op.matrix @ propagator.conj().T
    direct = np.trace(rho @ heisenberg_op @ op.matrix)
    (value,) = correlation_series(transition_weights(ham, op, gibbs(beta)), np.array([t]))
    assert abs(value - direct) <= 1e-12


# --- spectral functions ------------------------------------------------------------


def test_two_level_spectrum_closed_form():
    gamma = 0.2
    omega = np.linspace(-4, 4, 201)
    table = spectral_function(transition_weights(PAULI_Z, PAULI_X), omega, gamma)
    expected = 0.5 * (gamma / (gamma**2 + (omega - 2) ** 2) + gamma / (gamma**2 + (omega + 2) ** 2))
    np.testing.assert_allclose(table.values, expected, atol=1e-12)


def test_commuting_observable_gives_single_lorentzian_at_zero():
    ham = HermitianOperator(np.diag([0.3, 1.1, 2.0, 2.9]))
    op = HermitianOperator(np.diag([1.0, -1.0, 2.0, -2.0]))
    gamma = 0.15
    omega = np.linspace(-3, 3, 101)
    table = spectral_function(transition_weights(ham, op), omega, gamma)
    m2 = np.trace(op.matrix @ op.matrix).real / 4
    np.testing.assert_allclose(table.values, m2 * gamma / (gamma**2 + omega**2), atol=1e-12)


def test_spectrum_matches_time_domain_quadrature():
    # Independent route: trapezoid integration of exp(1j*w*t - gamma*t) S(t).
    ham = random_real_symmetric(2, seed=12)
    op = random_real_symmetric(2, seed=13)
    gamma = 1.0
    times = np.linspace(0.0, 40.0 / gamma, 200_001)
    table = transition_weights(ham, op)
    series = correlation_series(table, times)
    for omega in (-2.3, 0.0, 0.7, 3.1):
        integrand = np.exp((1j * omega - gamma) * times) * series
        direct = np.trapezoid(integrand, times).real
        closed = spectral_function(table, np.array([omega]), gamma).values[0]
        assert abs(closed - direct) <= 1e-6


def test_two_level_spectrum_near_the_linewidth_cap():
    # gamma**2 and the squared detunings are past the double range here; the
    # Lorentzian written as (1/gamma) / (1 + (x/gamma)**2) is not.
    scale, gamma = 1e154, 6.25e153
    omega = np.linspace(-3e154, 3e154, 13)
    table = spectral_function(transition_weights(HermitianOperator(np.array([[0.0, scale], [scale, 0.0]])),
                                                 PAULI_Z), omega, gamma)
    expected = 0.5 * sum((1 / gamma) / (1 + ((omega - line) / gamma) ** 2) for line in (2 * scale, -2 * scale))
    np.testing.assert_allclose(table.values, expected, rtol=1e-14, atol=0)


def test_overflowing_detunings_take_their_limit_silently():
    # Lines at +-2e300 with gamma = 1e-150: every detuning over gamma, even the
    # rounding of a line centre, passes the double range, and the true values
    # (gamma / x**2 or less) underflow.  Each term takes its exact limit 0.
    ham = HermitianOperator(np.diag([1e300, -1e300]))
    table = transition_weights(ham, PAULI_X)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        values = spectral_function(table, np.array([-2.4e300, -2e300, 0.0, 1e300, 2e300]), 1e-150).values
    np.testing.assert_array_equal(values, 0.0)


def test_spectral_function_rejects_nonpositive_gamma():
    with pytest.raises(ValueError):
        spectral_function(transition_weights(PAULI_Z, PAULI_X), np.array([0.0]), 0.0)


def test_spectrum_table_exports_round_trip(tmp_path):
    import json

    # A spectrum goes to disk through the package's one CSV and one JSON writer.
    table = spectral_function(transition_weights(PAULI_Z, PAULI_X), np.linspace(-3, 3, 11), 0.4)
    write_csv(tmp_path / "spectrum.csv", ("omega", "sigma"), zip(table.frequencies, table.values))
    rows = (tmp_path / "spectrum.csv").read_text().strip().splitlines()
    assert rows[0] == "omega,sigma"
    parsed = np.array([[float(v) for v in row.split(",")] for row in rows[1:]])
    np.testing.assert_array_equal(parsed[:, 0], table.frequencies)
    np.testing.assert_array_equal(parsed[:, 1], table.values)

    write_json(tmp_path / "spectrum.json", {"gamma": table.gamma, "sigma": table.values.tolist()})
    payload = json.loads((tmp_path / "spectrum.json").read_text())
    np.testing.assert_array_equal(np.array(payload["sigma"]), table.values)
    assert payload["gamma"] == 0.4


# --- transition weights ----------------------------------------------------------------


def matrix_element_weights(hamiltonian, operator):
    # The golden-rule reference: |<E_n|O|E_m>|^2 / tr O^2, from matrix elements alone.
    vecs = eig_hermitian(hamiltonian).eigenvectors
    elements = vecs.conj().T @ operator.matrix @ vecs
    return np.abs(elements) ** 2 / np.sum(np.abs(operator.matrix) ** 2)


def test_two_level_golden_rule_weights():
    weights = dense_phase_weights(transition_weights(PAULI_Z, PAULI_X), 2)
    np.testing.assert_allclose(weights, [[0.0, 0.5], [0.5, 0.0]], atol=1e-12)
    np.testing.assert_allclose(weights, matrix_element_weights(PAULI_Z, PAULI_X), atol=1e-12)


def test_commuting_observable_weights_are_diagonal():
    ham = HermitianOperator(np.diag([0.1, 0.9, 1.7, 3.0]))
    op = HermitianOperator(np.diag([1.0, 2.0, -1.0, 0.5]))
    weights = dense_phase_weights(transition_weights(ham, op), 4)
    diag = np.array([1.0, 4.0, 1.0, 0.25])
    np.testing.assert_allclose(weights, np.diag(diag / diag.sum()), atol=1e-12)


def test_weights_symmetric_for_real_symmetric_inputs():
    ham = random_real_symmetric(3, seed=14)
    op = random_real_symmetric(3, seed=15)
    weights = dense_phase_weights(transition_weights(ham, op), 8)
    assert np.max(np.abs(weights - weights.T)) <= 1e-12
    assert abs(weights.sum() - 1.0) <= 1e-10


def test_purification_route_equals_matrix_elements_route():
    # Dual route: weights from the actual purified state against direct
    # squared matrix elements of the observable.
    ham = random_real_symmetric(3, seed=16)
    op = random_real_symmetric(3, seed=17)
    eig = eig_hermitian(ham)
    state = thermal_operator_state(op, None, INFINITE_TEMPERATURE)
    matrix = state.amplitudes.reshape(8, 8)
    coeffs = eig.eigenvectors.conj().T @ matrix @ eig.eigenvectors.conj()
    from_state = np.abs(coeffs) ** 2
    elements = eig.eigenvectors.conj().T @ op.matrix @ eig.eigenvectors
    from_elements = np.abs(elements) ** 2 / np.trace(op.matrix @ op.matrix).real
    assert np.max(np.abs(from_state - from_elements)) <= 1e-10
    np.testing.assert_allclose(dense_phase_weights(transition_weights(ham, op), 8), from_state, atol=1e-12)


def test_ground_state_weights_select_ground_column():
    ham = random_real_symmetric(2, seed=18)
    op = random_real_symmetric(2, seed=19)
    table = transition_weights(ham, op, GROUND_STATE)
    weights = dense_phase_weights(table, 4)
    assert np.max(np.abs(weights[:, 1:])) <= 1e-12  # only transitions out of the ground state
    assert abs(weights.sum() - 1.0) <= 1e-10
    assert table.kept <= 4  # every transition out of an empty level is pruned


def test_weights_reject_zero_operator():
    with pytest.raises(ZeroNormError, match="annihilates the infinite_temperature base state"):
        transition_weights(PAULI_Z, HermitianOperator(np.zeros((2, 2))))


def test_complex_inputs_report_both_weight_routes():
    # Without time-reversal symmetry the purification route and the squared
    # matrix elements genuinely differ; the circuit follows the former.
    ham = random_hermitian(2, seed=201)
    obs = random_hermitian(2, seed=202)
    table = transition_weights(ham, obs)
    weights = dense_phase_weights(table, 4)
    assert np.max(np.abs(weights - matrix_element_weights(ham, obs))) > 1e-3
    circuit = run_qpe(thermal_operator_state(obs, None, INFINITE_TEMPERATURE), ham, 5, 0.4)
    reference = exact_outcome_distribution(table, 5, 0.4)
    assert distribution_distance(circuit, reference, "max_abs") <= 1e-10


@settings(max_examples=60, deadline=None)
@given(
    num_sites=st.integers(1, 3),
    seed=st.integers(0, 10_000),
    complex_h=st.booleans(),
    ensemble=st.sampled_from([INFINITE_TEMPERATURE, gibbs(0.3), gibbs(1.0), gibbs(3.0), GROUND_STATE]),
)
def test_table_matches_purified_state_reference(num_sites, seed, complex_h, ensemble):
    # The closed-form table against the purified-state route of the circuit,
    # with a complex eigenbasis (copy b conjugated) as well as a real one.
    make = random_hermitian if complex_h else random_real_symmetric
    ham, obs = make(num_sites, seed), make(num_sites, seed + 1)
    dim = ham.dim
    table = transition_weights(ham, obs, ensemble)
    reference = purified_phase_weights(ham, obs, ensemble)
    assert np.max(np.abs(dense_phase_weights(table, dim) - reference)) <= 1e-12
    levels = ham.eig.eigenvalues
    initial, final = np.divmod(table.index, dim)
    np.testing.assert_array_equal(table.energies, levels[final] - levels[initial])
    pops = ensemble_populations(ham.eig, ensemble)
    elements = ham.eig.eigenvectors.conj().T @ obs.matrix @ ham.eig.eigenvectors
    spectral = (pops[:, None] * np.abs(elements) ** 2).reshape(-1)
    assert np.max(np.abs(table.weights - spectral[table.index])) <= 1e-12 * spectral.sum()


def _unpruned(monkeypatch, *args):
    with monkeypatch.context() as patch:
        patch.setattr(oracle, "PRUNE_SHARE", 0.0)  # keeps every nonzero weight
        return transition_weights(*args)


@pytest.mark.parametrize(
    "ensemble", [INFINITE_TEMPERATURE, gibbs(1.0), GROUND_STATE], ids=["infinite", "gibbs", "ground"]
)
@pytest.mark.parametrize("complex_h", [False, True], ids=["real", "complex"])
def test_pruning_stays_within_its_mass_bound(monkeypatch, ensemble, complex_h):
    # tilted Ising and total_sz are reflection-symmetric: about half of the
    # transitions carry weight that is exactly zero up to rounding.
    ham = build_operator(tilted_ising(4))
    obs = preset_observable("total_sz", 4)
    if complex_h:
        ham, obs = complex_copy(ham), complex_copy(obs)
    pruned = transition_weights(ham, obs, ensemble)
    full = _unpruned(monkeypatch, ham, obs, ensemble)
    assert PRUNE_SHARE == 2.0**-60  # the stated bound
    assert pruned.total == full.total == 4**4
    assert pruned.kept < full.kept
    dropped = ~np.isin(full.index, pruned.index)
    assert full.weights[dropped].sum() <= PRUNE_SHARE * full.weights.sum()
    assert full.phase_weights[dropped].sum() <= PRUNE_SHARE * full.mass
    assert pruned.mass == full.mass

    gamma = 0.2
    grid = np.linspace(-12.0, 12.0, 301)
    sigma = spectral_function(pruned, grid, gamma).values
    sigma_full = spectral_function(full, grid, gamma).values
    bound = PRUNE_SHARE * full.weights.sum() / gamma
    assert np.max(np.abs(sigma - sigma_full)) <= bound + 1e-14 * sigma_full.max()
    p = exact_outcome_distribution(pruned, 6, 0.3).probabilities
    p_full = exact_outcome_distribution(full, 6, 0.3).probabilities
    assert np.max(np.abs(p - p_full)) <= PRUNE_SHARE + 1e-15


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
    dist = exact_outcome_distribution(transition_weights(HermitianOperator(np.zeros((2, 2))), PAULI_X), 3, 0.4)
    expected = np.zeros(8)
    expected[0] = 1.0
    np.testing.assert_allclose(dist.probabilities, expected, atol=1e-12)


def test_outcome_distribution_two_level_lines():
    dist = exact_outcome_distribution(transition_weights(PAULI_Z, PAULI_X), 3, np.pi / 4)
    np.testing.assert_allclose(dist.probabilities[[2, 6]], [0.5, 0.5], atol=1e-12)
    assert abs(dist.probabilities.sum() - 1.0) <= 1e-10


def test_outcome_distribution_matches_circuit_on_random_instance():
    ham = random_real_symmetric(3, seed=20)
    obs = preset_observable("total_sz", 3)
    circuit = run_qpe(thermal_operator_state(obs, None, INFINITE_TEMPERATURE), ham, 5, 0.23)
    reference = exact_outcome_distribution(transition_weights(ham, obs), 5, 0.23)
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
    table = transition_weights(ham, obs)
    dist = exact_outcome_distribution(table, num_bits, delta)
    flat_gaps = table.energies
    flat_weights = table.phase_weights / table.mass
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
    transitions = transition_weights(ham, obs)
    dist = exact_outcome_distribution(transitions, num_bits, delta)
    freqs = dist.frequencies()
    table = spectral_function(transitions, np.sort(freqs), gamma)
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
    table = transition_weights(ham, obs)
    dist = exact_outcome_distribution(table, num_bits, delta)
    offsets = (delta * dim * table.energies / (2 * np.pi))[:, None] - np.arange(dim)
    reference = table.phase_weights / table.mass @ _kernel(offsets, num_bits)
    assert np.max(np.abs(dist.probabilities - reference)) <= 1e-13
    assert abs(dist.probabilities.sum() - 1.0) <= 1e-14


# --- real and complex storage of the same operator ------------------------------------------


def _weight_moments(table, levels: np.ndarray, order: int = 2) -> np.ndarray:
    """sum_nm w_nm e_n**p e_m**q for p, q <= order: invariant under a change of eigenbasis."""
    powers = np.vander(levels, order + 1, increasing=True)
    return powers.T @ dense_phase_weights(table, levels.size) @ powers


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
    tw, tw_c = transition_weights(ham, obs, ensemble), transition_weights(ham_c, obs_c, ensemble)
    exact = exact_outcome_distribution(tw, num_bits, delta).probabilities
    exact_c = exact_outcome_distribution(tw_c, num_bits, delta).probabilities
    assert np.max(np.abs(exact - exact_c)) <= 1e-12
    grid = np.linspace(-6.0, 6.0, 41)
    sigma = spectral_function(tw, grid, 0.3).values
    sigma_c = spectral_function(tw_c, grid, 0.3).values
    assert np.max(np.abs(sigma - sigma_c)) <= 1e-12

    levels, levels_c = ham.eig.eigenvalues, ham_c.eig.eigenvalues
    assert np.max(np.abs(levels - levels_c)) <= 1e-12
    reach = max(1.0, float(np.max(np.abs(levels))))
    tol = 1e-12 * reach ** np.add.outer(np.arange(3), np.arange(3))
    assert np.all(np.abs(_weight_moments(tw, levels) - _weight_moments(tw_c, levels_c)) <= tol)
    if np.min(np.diff(levels), initial=1.0) > 1e-2:  # eigenbasis unique up to signs
        dim = levels.size
        assert np.max(np.abs(dense_phase_weights(tw, dim) - dense_phase_weights(tw_c, dim))) <= 1e-12


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
    reference = exact_outcome_distribution(transition_weights(ham, obs, ensemble), 5, 0.37)
    assert distribution_distance(circuit, reference, "max_abs") <= 1e-10
    twin = exact_outcome_distribution(transition_weights(complex_copy(ham), complex_copy(obs), ensemble), 5, 0.37)
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
