"""Exact-diagonalization references: correlations, spectra, weights, kernel."""

import itertools
import sys
import threading
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from helpers import (
    GROUND_STATE,
    INFINITE_TEMPERATURE,
    complex_copy,
    dense_phase_weights,
    direct_transition_sum,
    directed_transitions,
    gibbs,
    leakage_kernel,
    leakage_row,
    preset_observable,
    purified_phase_weights,
    random_hermitian,
    random_real_symmetric,
    real_pauli_sums,
)
from qspec import oracle
from qspec.errors import DimensionMismatchError, ZeroNormError, ZeroOperatorError
from qspec.experiment import write_csv, write_json
from qspec.models import ModelSpec, PauliTerm, build_operator, heisenberg, tilted_ising
from qspec.oracle import (
    PRUNE_SHARE,
    TransitionTable,
    distribution_distance,
    exact_outcome_distribution,
    spectral_function,
    transition_weights,
)
from qspec.purify import ensemble_populations, ground_state_degeneracy, thermal_operator_state
from qspec.qpe import PhaseDistribution, run_qpe
from qspec.simcore import HermitianOperator, eig_hermitian

PAULI_X = HermitianOperator(np.array([[0, 1], [1, 0]], dtype=complex))
PAULI_Z = HermitianOperator(np.diag([1.0, -1.0]))


# --- correlation functions ------------------------------------------------------


def correlation_series(table, times):
    # <O(t) O(0)>: every directed transition's weight times exp(-i t gap).
    return direct_transition_sum(table, np.asarray(times, dtype=float), lambda t, gap: np.exp(-1j * t * gap))


def test_equal_time_correlation_is_second_moment():
    op = random_hermitian(2, seed=3)
    ham = random_hermitian(2, seed=4)
    (value,) = correlation_series(transition_weights(ham.eig, op, INFINITE_TEMPERATURE), np.array([0.0]))
    m2 = np.trace(op.matrix @ op.matrix).real / 4
    assert abs(value - m2) <= 1e-12


def test_two_level_correlation_is_cosine():
    table = transition_weights(PAULI_Z.eig, PAULI_X, INFINITE_TEMPERATURE)
    times = np.linspace(-4, 4, 17)
    values = correlation_series(table, times)
    assert np.max(np.abs(values - np.cos(2 * times))) <= 1e-12


def test_correlation_conjugate_symmetry():
    ham = random_real_symmetric(2, seed=5)
    op = random_real_symmetric(2, seed=6)
    table = transition_weights(ham.eig, op, INFINITE_TEMPERATURE)
    times = np.array([0.3, 1.7])
    forward = correlation_series(table, times)
    backward = correlation_series(table, -times)
    assert np.max(np.abs(forward - np.conj(backward))) <= 1e-12


def test_correlation_dimension_mismatch():
    with pytest.raises(DimensionMismatchError):
        transition_weights(PAULI_Z.eig, HermitianOperator(np.eye(4)), INFINITE_TEMPERATURE)


def test_ground_state_correlation_matches_direct_expectation():
    ham = random_real_symmetric(2, seed=8)
    op = random_real_symmetric(2, seed=9)
    eig = eig_hermitian(ham)
    psi0 = eig.eigenvectors[:, 0]
    t = 0.9
    propagator = eig.propagator(t)
    direct = psi0.conj() @ propagator @ op.matrix @ propagator.conj().T @ op.matrix @ psi0
    (value,) = correlation_series(transition_weights(ham.eig, op, GROUND_STATE), np.array([t]))
    assert abs(value - direct) <= 1e-12


def test_gibbs_correlation_matches_density_matrix_trace():
    ham = random_real_symmetric(2, seed=10)
    op = random_real_symmetric(2, seed=11)
    beta = 0.9
    eig = eig_hermitian(ham)
    rho = eig.apply(np.exp(-beta * (eig.eigenvalues - eig.eigenvalues[0])))
    rho /= np.trace(rho)
    t = 1.4
    propagator = eig.propagator(t)
    heisenberg_op = propagator @ op.matrix @ propagator.conj().T
    direct = np.trace(rho @ heisenberg_op @ op.matrix)
    (value,) = correlation_series(transition_weights(ham.eig, op, gibbs(beta)), np.array([t]))
    assert abs(value - direct) <= 1e-12


# --- spectral functions ------------------------------------------------------------


def test_two_level_spectrum_closed_form():
    gamma = 0.2
    omega = np.linspace(-4, 4, 201)
    table = spectral_function(transition_weights(PAULI_Z.eig, PAULI_X, INFINITE_TEMPERATURE), omega, gamma)
    expected = 0.5 * (gamma / (gamma**2 + (omega - 2) ** 2) + gamma / (gamma**2 + (omega + 2) ** 2))
    np.testing.assert_allclose(table.values, expected, atol=1e-12)


def test_commuting_observable_gives_single_lorentzian_at_zero():
    ham = HermitianOperator(np.diag([0.3, 1.1, 2.0, 2.9]))
    op = HermitianOperator(np.diag([1.0, -1.0, 2.0, -2.0]))
    gamma = 0.15
    omega = np.linspace(-3, 3, 101)
    table = spectral_function(transition_weights(ham.eig, op, INFINITE_TEMPERATURE), omega, gamma)
    m2 = np.trace(op.matrix @ op.matrix).real / 4
    np.testing.assert_allclose(table.values, m2 * gamma / (gamma**2 + omega**2), atol=1e-12)


def test_spectrum_matches_time_domain_quadrature():
    # Independent route: trapezoid integration of exp(1j*w*t - gamma*t) S(t).
    ham = random_real_symmetric(2, seed=12)
    op = random_real_symmetric(2, seed=13)
    gamma = 1.0
    times = np.linspace(0.0, 40.0 / gamma, 200_001)
    table = transition_weights(ham.eig, op, INFINITE_TEMPERATURE)
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
    ham = HermitianOperator(np.array([[0.0, scale], [scale, 0.0]]))
    table = spectral_function(transition_weights(ham.eig, PAULI_Z, INFINITE_TEMPERATURE), omega, gamma)
    expected = 0.5 * sum((1 / gamma) / (1 + ((omega - line) / gamma) ** 2) for line in (2 * scale, -2 * scale))
    np.testing.assert_allclose(table.values, expected, rtol=1e-14, atol=0)


def test_overflowing_detunings_take_their_limit_silently():
    # Lines at +-2e300 with gamma = 1e-150: every detuning over gamma, even the
    # rounding of a line centre, passes the double range, and the true values
    # (gamma / x**2 or less) underflow.  Each term takes its exact limit 0.
    ham = HermitianOperator(np.diag([1e300, -1e300]))
    table = transition_weights(ham.eig, PAULI_X, INFINITE_TEMPERATURE)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        values = spectral_function(table, np.array([-2.4e300, -2e300, 0.0, 1e300, 2e300]), 1e-150).values
    np.testing.assert_array_equal(values, 0.0)


@pytest.mark.parametrize("workers", [2, 3])
def test_overflowing_detunings_take_their_limit_silently_on_every_worker(monkeypatch, workers):
    # One point per block, so the helpers sum most of the grid; the kernel sets
    # its own numpy error state there, or the overflow escapes as an error.
    monkeypatch.setattr(oracle, "TILE", (1, 1))
    monkeypatch.setattr(oracle, "_usable_cpus", lambda: workers)
    test_overflowing_detunings_take_their_limit_silently()


def test_an_error_in_a_helper_is_raised_by_the_call(monkeypatch):
    monkeypatch.setattr(oracle, "TILE", (1, 1))
    monkeypatch.setattr(oracle, "_usable_cpus", lambda: 2)
    table = transition_weights(HermitianOperator(np.diag([1.0, -1.0])).eig, PAULI_X, INFINITE_TEMPERATURE)
    points = np.arange(4.0)
    raised_in = []

    def kernel(block, pairs, out):
        if block[-1] == points[-1]:  # the last block, on a pool worker
            raised_in.append(threading.current_thread())
            raise RuntimeError("kernel failed")
        np.subtract(block[:, None], table.gaps[pairs][None, :], out=out)

    with pytest.raises(RuntimeError, match="kernel failed"):
        oracle._transition_sum(table, oracle._mirror(points)[0], kernel)
    assert raised_in and raised_in[0] is not threading.current_thread()


def test_a_stalled_worker_does_not_hold_up_the_grid(monkeypatch):
    # One point and one pair per block.  The first kernel call stalls its
    # worker until every tile outside its block of points is summed, which
    # the other worker can do only if blocks are dealt out as workers ask.
    monkeypatch.setattr(oracle, "TILE", (1, 1))
    monkeypatch.setattr(oracle, "_usable_cpus", lambda: 2)
    table = transition_weights(random_hermitian(2, 5).eig, random_real_symmetric(2, 6), INFINITE_TEMPERATURE)
    points = np.arange(1.0, 6.0)
    others = (2 * points.size - 1) * table.gaps.size
    calls = itertools.count()
    released = threading.Event()
    waited = []

    def kernel(block, pairs, out):
        call = next(calls)
        if call == 0:
            waited.append(released.wait(timeout=5))
        elif call == others:
            released.set()
        np.subtract(block[:, None], table.gaps[pairs][None, :], out=out)

    oracle._transition_sum(table, oracle._mirror(points)[0], kernel)
    assert waited == [True]


def test_every_tile_is_summed_once_under_frequent_thread_switches(monkeypatch):
    # More workers than cores share one counter of point blocks; a block
    # handed out twice or not at all shows up as a repeated or missing tile.
    monkeypatch.setattr(oracle, "TILE", (1, 1))
    monkeypatch.setattr(oracle, "_usable_cpus", lambda: 8)
    table = transition_weights(random_hermitian(2, 5).eig, random_real_symmetric(2, 6), INFINITE_TEMPERATURE)
    points = np.arange(1.0, 21.0)
    tiles = []

    def kernel(block, pairs, out):
        tiles.append((block[0], table.gaps[pairs][0]))
        np.subtract(block[:, None], table.gaps[pairs][None, :], out=out)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        oracle._transition_sum(table, oracle._mirror(points)[0], kernel)
    finally:
        sys.setswitchinterval(interval)
    grid = np.concatenate((-points[::-1], points))
    assert sorted(tiles) == sorted((x, gap) for x in grid for gap in table.gaps)


@pytest.mark.parametrize("tile", [oracle.TILE, (3, 5)])
def test_every_tile_starts_on_a_cache_line(monkeypatch, tile):
    # A (3, 5) tile holds 15 doubles, so unaligned rows of the buffer would
    # start the second and third workers' tiles off a 64-byte line.
    monkeypatch.setattr(oracle, "TILE", tile)
    monkeypatch.setattr(oracle, "_usable_cpus", lambda: 3)
    table = transition_weights(random_hermitian(3, 41).eig, random_real_symmetric(3, 42), gibbs(0.8))
    offsets = []

    def kernel(block, pairs, out):
        offsets.append(out.ctypes.data % 64)
        np.subtract(block[:, None], table.gaps[pairs][None, :], out=out)

    oracle._transition_sum(table, np.linspace(-2.0, 2.0, 41), kernel)
    assert offsets and set(offsets) == {0}


def test_usable_cpus_counts_the_affinity_mask(monkeypatch):
    monkeypatch.setattr(oracle.os, "sched_getaffinity", lambda pid: {0, 2, 5}, raising=False)
    assert oracle._usable_cpus() == 3


@pytest.mark.parametrize(("count", "expected"), [(6, 6), (None, 1)])
def test_usable_cpus_without_affinity_takes_the_cpu_count(monkeypatch, count, expected):
    monkeypatch.delattr(oracle.os, "sched_getaffinity", raising=False)
    monkeypatch.setattr(oracle.os, "cpu_count", lambda: count)
    assert oracle._usable_cpus() == expected


def _test_grid(kind: str, reach: float, rng) -> np.ndarray:
    if kind == "asymmetric":
        return rng.uniform(-reach, reach, 41)
    if kind == "symmetric":
        side = np.sort(rng.uniform(0.0, reach, 20))
        return np.concatenate((-side[::-1], [0.0], side))
    if kind == "signed_zeros":
        return rng.permutation(np.concatenate((rng.uniform(-reach, reach, 20), [0.0, -0.0])))
    if kind == "edges":
        # Both zeros, a repeated point, both infinities and a point without its negative.
        x, y = rng.uniform(0.0, reach, 2)
        return np.array([0.0, x, -0.0, np.inf, x, -np.inf, -y])
    # The register grid of a run: exact negatives but for the unpaired -half bin.
    grid = np.sort(PhaseDistribution(5, np.pi / reach, np.full(32, 1 / 32)).frequencies)
    assert -grid[0] not in grid and np.all(grid[1:] == -grid[:0:-1])
    return grid


@settings(max_examples=60, deadline=None)
@given(
    num_sites=st.integers(1, 3),
    seed=st.integers(0, 10_000),
    complex_h=st.booleans(),
    ensemble=st.sampled_from([INFINITE_TEMPERATURE, gibbs(0.8), GROUND_STATE]),
    kind=st.sampled_from(["asymmetric", "symmetric", "signed_zeros", "edges", "register"]),
    gamma=st.floats(0.05, 2.0),
)
@example(num_sites=2, seed=3, complex_h=True, ensemble=gibbs(0.8), kind="edges", gamma=0.3)
def test_folded_sums_match_the_direct_sum(num_sites, seed, complex_h, ensemble, kind, gamma):
    # Each pair's kernel is evaluated once and its reverse read at the mirrored
    # point of a grid closed under negation; the reference sums every directed
    # transition at its own signed gap.
    make = random_hermitian if complex_h else random_real_symmetric
    ham, obs = make(num_sites, seed), make(num_sites, seed + 1)
    table = transition_weights(ham.eig, obs, ensemble)
    points = _test_grid(kind, 1.2 * ham.eig.span + 0.1, np.random.default_rng(seed))
    sigma = spectral_function(table, points, gamma).values
    reference = direct_transition_sum(table, points, lambda x, gap: gamma / (gamma**2 + (x - gap) ** 2)).real
    assert np.max(np.abs(sigma - reference)) <= 1e-13 * np.max(reference)


@pytest.mark.parametrize("tile", [(1, 1), (2, 3), (3, 5)])
def test_folded_sums_accumulate_across_tile_blocks(monkeypatch, tile):
    # The default tile holds every pair of a small table in one block.  Tiny
    # tiles split the pairs and the mirrored points into many blocks each.
    monkeypatch.setattr(oracle, "TILE", tile)
    ham = random_hermitian(3, 41)
    table = transition_weights(ham.eig, random_real_symmetric(3, 42), gibbs(0.8))
    assert table.gaps.size >= 20
    points = _test_grid("asymmetric", 1.2 * ham.eig.span + 0.1, np.random.default_rng(43))
    gamma = 0.3
    sigma = spectral_function(table, points, gamma).values
    reference = direct_transition_sum(table, points, lambda x, gap: gamma / (gamma**2 + (x - gap) ** 2)).real
    assert np.max(np.abs(sigma - reference)) <= 1e-13 * np.max(reference)


@pytest.mark.parametrize("tile", [(1, 1), (2, 3), (3, 5)])
def test_folded_sums_are_the_same_bytes_at_any_worker_count(monkeypatch, tile):
    # Each run of point blocks sums its rows with the same calls as one run
    # would.  The two-point grid has at most four blocks, fewer than 8 workers.
    monkeypatch.setattr(oracle, "TILE", tile)
    ham = random_hermitian(3, 41)
    table = transition_weights(ham.eig, random_real_symmetric(3, 42), gibbs(0.8))
    grid = _test_grid("asymmetric", 1.2 * ham.eig.span + 0.1, np.random.default_rng(43))
    for points in (grid, grid[:2], np.array([])):
        results = []
        for workers in (1, 2, 3, 8):
            monkeypatch.setattr(oracle, "_usable_cpus", lambda workers=workers: workers)
            results.append(spectral_function(table, points, 0.3).values)
        for sigma in results:
            assert sigma.shape == points.shape
            np.testing.assert_array_equal(sigma, results[0])
    # The leakage kernel, on the signed bins of a one-bit and a four-bit register.
    for num_bits in (1, 4):
        results = []
        for workers in (1, 2, 3, 8):
            monkeypatch.setattr(oracle, "_usable_cpus", lambda workers=workers: workers)
            results.append(exact_outcome_distribution(table, num_bits, 0.37).probabilities)
        for probs in results:
            assert probs.shape == (1 << num_bits,)
            np.testing.assert_array_equal(probs, results[0])


def test_spectral_function_rejects_nonpositive_gamma():
    # NaN fails every comparison, so it is caught at the guard, not by the
    # non-finite check on the finished spectrum.
    table = transition_weights(PAULI_Z.eig, PAULI_X, INFINITE_TEMPERATURE)
    for gamma in (0.0, -1.0, np.nan):
        with pytest.raises(ValueError, match="gamma must be positive"):
            spectral_function(table, np.array([0.0]), gamma)


def test_spectrum_table_exports_round_trip(tmp_path):
    import hashlib
    import json

    # A spectrum's table goes to disk once, through the package's one CSV writer, which
    # returns the sha256 that the JSON writer records beside gamma.
    table = spectral_function(
        transition_weights(PAULI_Z.eig, PAULI_X, INFINITE_TEMPERATURE), np.linspace(-3, 3, 11), 0.4
    )
    digest = write_csv(tmp_path / "spectrum.csv", {"omega": table.frequencies, "sigma": table.values})
    assert digest == hashlib.sha256((tmp_path / "spectrum.csv").read_bytes()).hexdigest()
    rows = (tmp_path / "spectrum.csv").read_text().strip().splitlines()
    assert rows[0] == "omega,sigma"
    parsed = np.array([[float(v) for v in row.split(",")] for row in rows[1:]])
    np.testing.assert_array_equal(parsed[:, 0], table.frequencies)
    np.testing.assert_array_equal(parsed[:, 1], table.values)
    # Lists of Python floats and numpy arrays print to the same bytes.
    columns = {"omega": table.frequencies.tolist(), "sigma": table.values.tolist()}
    assert write_csv(tmp_path / "floats.csv", columns) == digest

    write_json(tmp_path / "spectrum.json", {"gamma": table.gamma, "artifacts": {"spectrum.csv": digest}})
    payload = json.loads((tmp_path / "spectrum.json").read_text())
    assert payload == {"gamma": 0.4, "artifacts": {"spectrum.csv": digest}}


# --- transition weights ----------------------------------------------------------------


def matrix_element_weights(hamiltonian, operator):
    # The golden-rule reference: |<E_n|O|E_m>|^2 / tr O^2, from matrix elements alone.
    vecs = eig_hermitian(hamiltonian).eigenvectors
    elements = vecs.conj().T @ operator.matrix @ vecs
    return np.abs(elements) ** 2 / np.sum(np.abs(operator.matrix) ** 2)


def test_two_level_golden_rule_weights():
    weights = dense_phase_weights(transition_weights(PAULI_Z.eig, PAULI_X, INFINITE_TEMPERATURE), 2)
    np.testing.assert_allclose(weights, [[0.0, 0.5], [0.5, 0.0]], atol=1e-12)
    np.testing.assert_allclose(weights, matrix_element_weights(PAULI_Z, PAULI_X), atol=1e-12)


def test_commuting_observable_weights_are_diagonal():
    ham = HermitianOperator(np.diag([0.1, 0.9, 1.7, 3.0]))
    op = HermitianOperator(np.diag([1.0, 2.0, -1.0, 0.5]))
    weights = dense_phase_weights(transition_weights(ham.eig, op, INFINITE_TEMPERATURE), 4)
    diag = np.array([1.0, 4.0, 1.0, 0.25])
    np.testing.assert_allclose(weights, np.diag(diag / diag.sum()), atol=1e-12)


def test_weights_symmetric_for_real_symmetric_inputs():
    ham = random_real_symmetric(3, seed=14)
    op = random_real_symmetric(3, seed=15)
    weights = dense_phase_weights(transition_weights(ham.eig, op, INFINITE_TEMPERATURE), 8)
    assert np.max(np.abs(weights - weights.T)) <= 1e-12
    assert abs(weights.sum() - 1.0) <= 1e-10


def test_purification_route_equals_matrix_elements_route():
    # Dual route: weights from the actual purified state against direct
    # squared matrix elements of the observable.
    ham = random_real_symmetric(3, seed=16)
    op = random_real_symmetric(3, seed=17)
    eig = eig_hermitian(ham)
    state = thermal_operator_state(op, ham.eig, INFINITE_TEMPERATURE)
    matrix = state.amplitudes.reshape(8, 8)
    coeffs = eig.eigenvectors.conj().T @ matrix @ eig.eigenvectors
    from_state = np.abs(coeffs) ** 2
    elements = eig.eigenvectors.conj().T @ op.matrix @ eig.eigenvectors
    from_elements = np.abs(elements) ** 2 / np.trace(op.matrix @ op.matrix).real
    assert np.max(np.abs(from_state - from_elements)) <= 1e-10
    table = transition_weights(ham.eig, op, INFINITE_TEMPERATURE)
    np.testing.assert_allclose(dense_phase_weights(table, 8), from_state, atol=1e-12)


def test_ground_state_weights_select_ground_column():
    ham = random_real_symmetric(2, seed=18)
    op = random_real_symmetric(2, seed=19)
    table = transition_weights(ham.eig, op, GROUND_STATE)
    weights = dense_phase_weights(table, 4)
    assert np.max(np.abs(weights[:, 1:])) <= 1e-12  # only transitions out of the ground state
    assert abs(weights.sum() - 1.0) <= 1e-10
    assert table.kept <= 4  # every transition out of an empty level is pruned


def test_weights_reject_zero_operator():
    with pytest.raises(ZeroNormError, match="annihilates the infinite_temperature base state"):
        transition_weights(PAULI_Z.eig, HermitianOperator(np.zeros((2, 2))), INFINITE_TEMPERATURE)


@settings(max_examples=60, deadline=None)
@given(
    num_sites=st.integers(1, 3),
    num_bits=st.integers(1, 5),
    seed=st.integers(0, 10_000),
    complex_h=st.booleans(),
    ensemble=st.sampled_from([INFINITE_TEMPERATURE, gibbs(0.8), GROUND_STATE]),
    delta=st.floats(0.05, 1.5),
)
def test_circuit_samples_the_golden_rule_weights(num_sites, num_bits, seed, complex_h, ensemble, delta):
    # The circuit's histogram is the spectrum's own weights p_n |<m|O|n>|^2 under
    # the leakage kernel, for a complex eigenbasis as for a real one.  The
    # weights are formed here from the eigenvectors, not read from the table.
    make = random_hermitian if complex_h else random_real_symmetric
    ham, obs = make(num_sites, seed), make(num_sites, seed + 1)
    vecs, levels = ham.eig.eigenvectors, ham.eig.eigenvalues
    elements = vecs.conj().T @ obs.matrix @ vecs  # <m|O|n> at [m, n]
    golden = ensemble_populations(ham.eig, ensemble) * np.abs(elements) ** 2
    gaps = np.subtract.outer(levels, levels)  # e_m - e_n at [m, n]
    dim = 1 << num_bits
    offsets = (delta * dim * gaps.reshape(-1) / (2 * np.pi))[:, None] - np.arange(dim)
    reference = golden.reshape(-1) / golden.sum() @ leakage_kernel(offsets, num_bits)
    circuit = run_qpe(thermal_operator_state(obs, ham.eig, ensemble), ham.eig, num_bits, delta)
    assert distribution_distance(circuit, reference) <= 1e-10


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
    table = transition_weights(ham.eig, obs, ensemble)
    reference = purified_phase_weights(ham.eig, obs, ensemble)
    assert np.max(np.abs(dense_phase_weights(table, dim) - reference)) <= 1e-12
    levels = ham.eig.eigenvalues
    initial, final = np.divmod(table.index, dim)
    assert np.all(initial <= final) and np.all(np.diff(table.index) > 0)  # one row per pair n <= m
    np.testing.assert_array_equal(table.gaps, levels[final] - levels[initial])
    assert np.all(table.gaps >= 0)
    assert table.weights.shape == (table.index.size, 2)
    pops = ensemble_populations(ham.eig, ensemble)
    elements = ham.eig.eigenvectors.conj().T @ obs.matrix @ ham.eig.eigenvectors
    spectral = pops[:, None] * np.abs(elements) ** 2  # n -> m at [n, m]
    scale = 1e-12 * spectral.sum()
    assert np.max(np.abs(table.weights[:, 0] - spectral[initial, final])) <= scale
    off = initial != final
    assert np.max(np.abs(table.weights[off, 1] - spectral[final, initial][off]), initial=0.0) <= scale
    np.testing.assert_array_equal(table.weights[~off, 1], 0.0)  # the diagonal has no reverse
    assert np.all(table.weights.max(axis=1) > 0)  # a row is kept while one direction is


def _unpruned(monkeypatch, *args):
    with monkeypatch.context() as patch:
        patch.setattr(oracle, "PRUNE_SHARE", 0.0)  # keeps every nonzero weight
        return transition_weights(*args)


def _assert_pruning_within_bound(monkeypatch, eig, obs, ensemble):
    pruned = transition_weights(eig, obs, ensemble)
    full = _unpruned(monkeypatch, eig, obs, ensemble)
    assert PRUNE_SHARE == 2.0**-60  # the stated bound
    assert pruned.total == full.total == eig.dim**2
    assert pruned.kept < full.kept
    # Directed weights: every kept one unchanged, the dropped ones within the bound.
    dense, dense_full = (dense_phase_weights(t, eig.dim) * t.mass for t in (pruned, full))
    assert pruned.kept == np.count_nonzero(dense) and full.kept == np.count_nonzero(dense_full)
    kept = dense != 0
    np.testing.assert_array_equal(dense[kept], dense_full[kept])
    assert dense_full[~kept].sum() <= PRUNE_SHARE * dense_full.sum()
    assert pruned.mass == full.mass

    gamma = 0.2
    grid = np.linspace(-12.0, 12.0, 301)
    sigma = spectral_function(pruned, grid, gamma).values
    sigma_full = spectral_function(full, grid, gamma).values
    bound = PRUNE_SHARE * dense_full.sum() / gamma
    assert np.max(np.abs(sigma - sigma_full)) <= bound + 1e-14 * sigma_full.max()
    p = exact_outcome_distribution(pruned, 6, 0.3).probabilities
    p_full = exact_outcome_distribution(full, 6, 0.3).probabilities
    assert np.max(np.abs(p - p_full)) <= PRUNE_SHARE + 1e-15
    return pruned


@pytest.mark.parametrize(
    "ensemble", [INFINITE_TEMPERATURE, gibbs(1.0), GROUND_STATE], ids=["infinite", "gibbs", "ground"]
)
@pytest.mark.parametrize("complex_h", [False, True], ids=["real", "complex"])
def test_pruning_stays_within_its_mass_bound(monkeypatch, ensemble, complex_h):
    # tilted Ising and total_sz are reflection-symmetric.  Decomposed whole by one
    # eigh, about half of the transitions carry weight that the symmetry makes
    # zero up to rounding, and pruning drops them.  Decomposed by sector, the
    # table skips the cross blocks, so those weights are exact zeros: the
    # unpruned sector table keeps the pairs the whole one keeps once pruned.
    ham = build_operator(tilted_ising(4))
    obs = preset_observable("total_sz", 4)
    if complex_h:
        ham, obs = complex_copy(ham), complex_copy(obs)
    whole = _assert_pruning_within_bound(monkeypatch, eig_hermitian(ham), obs, ensemble)
    assert len(ham.eig.sectors) == 2
    by_sector = _unpruned(monkeypatch, ham.eig, obs, ensemble)
    np.testing.assert_array_equal(by_sector.index, whole.index)
    assert by_sector.kept == whole.kept

    # A Gibbs pair whose reverse weight is cut while its forward weight is kept:
    # at beta = 1 across a gap of 50 the upper level's population is e**-50 of
    # the lower's, below 2**-60 of the mean weight.
    pair = HermitianOperator(np.diag([0.0, 50.0]))
    one_sided = _assert_pruning_within_bound(monkeypatch, pair.eig, PAULI_X, gibbs(1.0))
    np.testing.assert_array_equal(one_sided.index, [1])
    assert one_sided.weights[0, 0] > 0 and one_sided.weights[0, 1] == 0
    assert one_sided.kept == 1


# --- leakage kernel ---------------------------------------------------------------------


def test_kernel_exact_hit_gives_one():
    assert leakage_row(0.0, 4, 0.7)[0] == 1.0
    # Gap that lands exactly on bin 5: delta_energy = 2*pi*5 / (delta * 2**l).
    delta = 0.7
    gap = 2 * np.pi * 5 / (delta * 16)
    assert abs(leakage_row(gap, 4, delta)[5] - 1.0) <= 1e-12


def test_kernel_vanishes_on_other_integer_offsets():
    delta = 0.9
    gap = 2 * np.pi * 3 / (delta * 16)  # sits on bin 3
    row = leakage_row(gap, 4, delta)
    for f in (0, 1, 2, 4, 9, 15):
        assert abs(row[f]) <= 1e-25


def test_kernel_half_offset_single_bit():
    # l = 1, offset 0.5: (1/4) sin^2(pi/2) / sin^2(pi/4) = 1/2.
    delta = 1.0
    gap = 2 * np.pi * 0.5 / (delta * 2)
    assert abs(leakage_row(gap, 1, delta)[0] - 0.5) <= 1e-12


def test_kernel_bounded_below_by_sinc_squared():
    # The reference kernel on a dense offset grid; acceptance criterion 4 checks
    # the same bound on the package's kernel.
    for num_bits in range(1, 9):
        dim = 1 << num_bits
        offsets = np.arange(-dim, dim + 1e-9, 0.01)
        kernel = leakage_kernel(offsets, num_bits)
        assert np.min(kernel - np.sinc(offsets) ** 2) >= -1e-12


def test_kernel_row_is_normalized():
    # Summed over all bins, the leakage of any fixed gap is exactly 1.
    for gap in (0.0, 0.37, 1.9, -2.4):
        assert abs(leakage_row(gap, 5, 0.8).sum() - 1.0) <= 1e-10


# --- closed-form outcome distribution ------------------------------------------------------


@pytest.mark.parametrize("num_bits", [0, -1])
def test_outcome_distribution_needs_a_phase_bit(num_bits):
    table = transition_weights(PAULI_Z.eig, PAULI_X, INFINITE_TEMPERATURE)
    with pytest.raises(ValueError, match="need at least one phase bit"):
        exact_outcome_distribution(table, num_bits, 0.3)


@pytest.mark.parametrize("delta", [0.0, -0.5, np.inf, np.nan], ids=["zero", "negative", "inf", "nan"])
def test_outcome_distribution_rejects_a_nonpositive_or_nonfinite_delta(delta):
    # inf and NaN used to reach the bin index and fail there with an IndexError.
    table = transition_weights(PAULI_Z.eig, PAULI_X, INFINITE_TEMPERATURE)
    with pytest.raises(ValueError, match="delta must be positive and finite"):
        exact_outcome_distribution(table, 3, delta)


@pytest.mark.parametrize("num_bits", range(1, 7))
def test_outcome_distribution_reads_edge_phases_through_the_mirror(num_bits):
    # One pair row at a time, both directions weighted: a phase at +-half (its
    # reverse lands on the same, unpaired bin), half-integer phases beside it,
    # and phases within 2**-26 of an integer, where the j = 0 entry takes the
    # unsplit sinc ratio and the reverse reads it at the mirrored bin.
    dim, half = 1 << num_bits, 1 << (num_bits - 1)
    delta = 2 * np.pi / dim  # the phase is then the gap, exactly at 0 and at half
    near = [3 + 2.0**-30, 3 - 2.0**-30, 3 + 2.0**-27, 3.0]
    for gap in [0.0, half, half - 0.5, half + 0.5, half + 0.25] + near:
        phase = delta * dim * gap / (2 * np.pi)
        assert phase == gap if gap in (0.0, half) else abs(phase - gap) <= 1e-14
        table = TransitionTable(np.array([gap]), np.array([[0.625, 0.375]]), 1.0, np.array([1]), 4)
        dist = exact_outcome_distribution(table, num_bits, delta).probabilities
        offsets = np.fmod([[phase], [-phase]], dim) - np.arange(dim)
        reference = np.array([0.625, 0.375]) @ leakage_kernel(offsets, num_bits)
        assert np.max(np.abs(dist - reference)) <= 1e-14
        assert abs(dist.sum() - 1.0) <= 1e-14


def test_transition_table_build_holds_under_three_matrices():
    # |O_nm|^2 is squared and weighted in place in one array, so the build holds
    # that matrix beside the pruned table: 2.89 real 2**N x 2**N matrices at N=9
    # and N=10.  Separate squares and weights arrays break the bound.
    ham, obs = build_operator(tilted_ising(9)), preset_observable("total_sz", 9)
    ham.eig  # the memoised decomposition is not part of the build
    tracemalloc.start()
    try:
        transition_weights(ham.eig, obs, gibbs(1.0))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 3 * 4**9 * 8


def test_outcome_distribution_holds_a_tile_per_worker_not_a_row_per_pair(monkeypatch):
    # N=6, l=9: a dense (pairs, 2**l) kernel buffer alone would take 4.2 MiB.  The
    # sum holds one tile per worker beside arrays of one entry per pair or per bin.
    monkeypatch.setattr(oracle, "_usable_cpus", lambda: 2)
    table = transition_weights(
        build_operator(tilted_ising(6)).eig, preset_observable("total_sz", 6), INFINITE_TEMPERATURE
    )
    assert table.gaps.size * 8 * 2**9 > 4 * 2**20
    exact_outcome_distribution(table, 9, 0.05)
    tracemalloc.start()
    try:
        exact_outcome_distribution(table, 9, 0.05)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 2 * 8 * oracle.TILE[0] * oracle.TILE[1] + 2**19


def test_a_short_grid_allocates_only_its_rows_of_the_tile():
    # The prep_circuit workload's leakage sum: tilted Ising N=6, total_sz, Gibbs,
    # l=5, 1072 pairs on the 33-point lattice.  A whole tile of 1072-pair rows
    # would hold 122 of them (1.0 MiB); the buffer holds the lattice's 33 rows
    # (276 KiB), and the stage peaks at 425 KiB beside the per-pair arrays.
    table = transition_weights(build_operator(tilted_ising(6)).eig, preset_observable("total_sz", 6), gibbs(1.0))
    assert table.gaps.size == 1072
    exact_outcome_distribution(table, 5, 0.05)
    tracemalloc.start()
    try:
        exact_outcome_distribution(table, 5, 0.05)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 8 * 33 * table.gaps.size + 2**18


def test_outcome_distribution_at_n10_holds_four_arrays_per_pair():
    # The eigh_dense table: tilted Ising N=10, total_sz, Gibbs, l=1.  The phase
    # array becomes the offsets in place, the nearest integers go once the bins
    # are formed, and only the 1024 zero-offset pairs keep an unsplit ratio, so
    # the stage peaks at 4.13 doubles per pair, when the numerators are formed
    # beside the offsets and bins.  A full-length array of unsplit ratios (4.39)
    # or a separate phase array and nearest integers (6.4) break it.
    ham = build_operator(tilted_ising(10))
    table = transition_weights(ham.eig, preset_observable("total_sz", 10), gibbs(1.0))
    tracemalloc.start()
    try:
        exact_outcome_distribution(table, 1, 0.05)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 4.25 * 8 * table.gaps.size


def test_outcome_distribution_zero_hamiltonian():
    table = transition_weights(HermitianOperator(np.zeros((2, 2))).eig, PAULI_X, INFINITE_TEMPERATURE)
    dist = exact_outcome_distribution(table, 3, 0.4)
    expected = np.zeros(8)
    expected[0] = 1.0
    np.testing.assert_allclose(dist.probabilities, expected, atol=1e-12)


def test_outcome_distribution_two_level_lines():
    dist = exact_outcome_distribution(transition_weights(PAULI_Z.eig, PAULI_X, INFINITE_TEMPERATURE), 3, np.pi / 4)
    np.testing.assert_allclose(dist.probabilities[[2, 6]], [0.5, 0.5], atol=1e-12)
    assert abs(dist.probabilities.sum() - 1.0) <= 1e-10


def test_outcome_distribution_matches_circuit_on_random_instance():
    ham = random_real_symmetric(3, seed=20)
    obs = preset_observable("total_sz", 3)
    circuit = run_qpe(thermal_operator_state(obs, ham.eig, INFINITE_TEMPERATURE), ham.eig, 5, 0.23)
    reference = exact_outcome_distribution(transition_weights(ham.eig, obs, INFINITE_TEMPERATURE), 5, 0.23)
    assert distribution_distance(circuit, reference, "max_abs") <= 1e-10


def test_consistency_triangle_concentration():
    # Every aggregated gap keeps at least 80% of its weight within two bins
    # of its mapped location once the register has six bits.
    ham = build_operator(tilted_ising(2))
    obs = preset_observable("total_sz", 2)
    num_bits, dim = 6, 64
    eig = eig_hermitian(ham)
    delta = 2 * np.pi * (dim // 2 - 1) / (dim * eig.span)
    table = transition_weights(ham.eig, obs, INFINITE_TEMPERATURE)
    dist = exact_outcome_distribution(table, num_bits, delta)
    flat_gaps, flat_weights = directed_transitions(table)
    flat_weights = flat_weights / table.mass
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
    delta = 2 * np.pi * (dim // 2 - 1) / (dim * eig.span)
    gamma = 2 * np.pi / (delta * dim)
    transitions = transition_weights(ham.eig, obs, INFINITE_TEMPERATURE)
    dist = exact_outcome_distribution(transitions, num_bits, delta)
    freqs = dist.frequencies
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
    table = transition_weights(ham.eig, obs, INFINITE_TEMPERATURE)
    dist = exact_outcome_distribution(table, num_bits, delta)
    # The kernel has period 2**l, so the phase is first reduced modulo 2**l, which fmod does
    # exactly.  Subtracting the bins from the full phase instead rounds it once more when the
    # offset crosses a power of two: 4.5e-13 at phase -4094.5, a 2.3e-13 error in the reference.
    gaps, weights = directed_transitions(table)
    phases = np.fmod(delta * dim * gaps / (2 * np.pi), dim)
    reference = weights / table.mass @ leakage_kernel(phases[:, None] - np.arange(dim), num_bits)
    assert np.max(np.abs(dist.probabilities - reference)) <= 1e-13
    assert abs(dist.probabilities.sum() - 1.0) <= 1e-14


# --- real and complex storage of the same operator ------------------------------------------


def _weight_moments(table, levels: np.ndarray, order: int = 2) -> np.ndarray:
    """sum_nm w_nm e_n**p e_m**q for p, q <= order: invariant under a change of eigenbasis."""
    powers = np.vander(levels, order + 1, increasing=True)
    return powers.T @ dense_phase_weights(table, levels.size) @ powers


def _ground_level_rotation(ham: HermitianOperator, ensemble) -> float:
    """How far LAPACK may turn the populated subspace: eps * ||H|| / gap_1 in the ground state, else 0.

    The ground-state ensemble populates only the ground level, so its outputs
    depend on which subspace eigh returns for that level.  A backward-stable
    eigh turns it toward the next level by up to this angle (Davis-Kahan),
    gap_1 being the first gap above the level.  The infinite-temperature and
    Gibbs ensembles weight nearby levels almost alike and need no such term.
    """
    levels = ham.eig.eigenvalues
    level = ground_state_degeneracy(ham.eig)
    if ensemble.kind != "ground_state" or level == levels.size:
        return 0.0
    return np.finfo(float).eps * float(np.max(np.abs(levels))) / float(levels[level] - levels[level - 1])


def _check_real_storage_matches_complex(ham, obs, num_bits, delta, ensemble):
    """Every output of real-stored H and O equals that of the same operators stored complex.

    Besides 1e-12 of rounding, the bounds carry the ground level's turn
    (``_ground_level_rotation``).  Real and complex storage turn it
    independently, so their vectors differ by up to 2 theta, and each level
    sum of weights |<m|O|n>|^2 / g moves by at most 2 ||O||^2 times that:
    ``drift``.  A normalized distribution moves by at most 2 drift / mass (its
    sum and the mass both move), the spectral function by drift / (pi gamma)
    and a weight moment by drift reach**(p+q).
    """
    assert ham.matrix.dtype == obs.matrix.dtype == np.float64
    ham_c, obs_c = complex_copy(ham), complex_copy(obs)
    try:
        prepared = thermal_operator_state(obs, ham.eig, ensemble)
    except (ZeroNormError, ZeroOperatorError):
        assume(False)
    prepared_c = thermal_operator_state(obs_c, ham_c.eig, ensemble)
    assert prepared.amplitudes.dtype == np.float64
    assert prepared_c.amplitudes.dtype == np.complex128
    tw, tw_c = transition_weights(ham.eig, obs, ensemble), transition_weights(ham_c.eig, obs_c, ensemble)
    drift = 4 * _ground_level_rotation(ham, ensemble) * float(np.max(np.abs(obs.eig.eigenvalues))) ** 2

    circuit = run_qpe(prepared, ham.eig, num_bits, delta).probabilities
    circuit_c = run_qpe(prepared_c, ham_c.eig, num_bits, delta).probabilities
    assert np.max(np.abs(circuit - circuit_c)) <= 1e-12 + 2 * drift / tw.mass
    exact = exact_outcome_distribution(tw, num_bits, delta).probabilities
    exact_c = exact_outcome_distribution(tw_c, num_bits, delta).probabilities
    assert np.max(np.abs(exact - exact_c)) <= 1e-12 + 2 * drift / tw.mass
    grid, gamma = np.linspace(-6.0, 6.0, 41), 0.3
    sigma = spectral_function(tw, grid, gamma).values
    sigma_c = spectral_function(tw_c, grid, gamma).values
    assert np.max(np.abs(sigma - sigma_c)) <= 1e-12 + drift / (np.pi * gamma)

    levels, levels_c = ham.eig.eigenvalues, ham_c.eig.eigenvalues
    assert np.max(np.abs(levels - levels_c)) <= 1e-12
    reach = max(1.0, float(np.max(np.abs(levels))))
    tol = (1e-12 + drift) * reach ** np.add.outer(np.arange(3), np.arange(3))
    assert np.all(np.abs(_weight_moments(tw, levels) - _weight_moments(tw_c, levels_c)) <= tol)
    if np.min(np.diff(levels), initial=1.0) > 1e-2:  # eigenbasis unique up to signs
        dim = levels.size
        assert np.max(np.abs(dense_phase_weights(tw, dim) - dense_phase_weights(tw_c, dim))) <= 1e-12


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
    _check_real_storage_matches_complex(ham, obs, num_bits, delta, ensemble)


@pytest.mark.parametrize(
    "ham_terms, obs_terms",
    [
        (((1.0, "IXX"), (1.0, "IXZ"), (2.0**-24, "IIX")), ((1.0, "III"), (1.0, "IZX"))),
        (((1.0, "III"), (1.0, "IXX"), (2.0**-24, "IIX")), ((1.0, "III"), (1.0, "IYY"))),
    ],
)
def test_real_storage_matches_complex_storage_on_a_barely_split_ground_level(ham_terms, obs_terms):
    # The property's two counterexamples at --hypothesis-seed=33: the 2**-24 term
    # splits the ground level by about 1e-7, just above DEGENERACY_RTOL, so its
    # vectors are ill-conditioned.  Against the old flat 1e-12 the circuit
    # moved by 5.9e-10 and sigma by 6.2e-9 between real and complex storage;
    # the ground level's turn theta is 3.7e-9 here.
    def compile_terms(terms):
        return build_operator(ModelSpec(3, tuple(PauliTerm(c, f) for c, f in terms)))

    ham, obs = compile_terms(ham_terms), compile_terms(obs_terms)
    assert ground_state_degeneracy(ham.eig) == 2
    assert 1e-8 < ham.eig.eigenvalues[2] - ham.eig.eigenvalues[1] < 1e-6
    _check_real_storage_matches_complex(ham, obs, 1, 1.0, GROUND_STATE)


@pytest.mark.parametrize("ensemble", [INFINITE_TEMPERATURE, gibbs(0.7), GROUND_STATE])
def test_degenerate_heisenberg_keeps_circuit_oracle_agreement(ensemble):
    # Degenerate levels let the real eigenbasis differ from the complex one;
    # the outcome statistics must not depend on it.
    ham = build_operator(heisenberg(4))
    obs = preset_observable("staggered_sz", 4)
    assert ham.eig.eigenvectors.dtype == np.float64
    assert np.min(np.diff(ham.eig.eigenvalues)) <= 1e-12
    prepared = thermal_operator_state(obs, ham.eig, ensemble)
    circuit = run_qpe(prepared, ham.eig, 5, 0.37)
    reference = exact_outcome_distribution(transition_weights(ham.eig, obs, ensemble), 5, 0.37)
    assert distribution_distance(circuit, reference, "max_abs") <= 1e-10
    twin = exact_outcome_distribution(transition_weights(complex_copy(ham).eig, complex_copy(obs), ensemble), 5, 0.37)
    assert distribution_distance(reference, twin, "max_abs") <= 1e-12


# --- distances ---------------------------------------------------------------------------


def test_distance_trivial_cases():
    assert distribution_distance(np.array([1.0, 0.0]), np.array([1.0, 0.0])) == 0.0
    assert distribution_distance(np.array([1.0, 0.0]), np.array([0.0, 1.0])) == 1.0


def test_distance_length_mismatch():
    with pytest.raises(DimensionMismatchError):
        distribution_distance(np.array([1.0]), np.array([0.5, 0.5]))


def test_distance_rejects_a_nan_probability():
    with pytest.raises(ValueError, match="not normalized"):
        distribution_distance(np.array([np.nan, 1.0]), np.array([0.0, 1.0]))


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
