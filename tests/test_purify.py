"""Base states, operator states and their purifications on the doubled register."""

import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from helpers import (
    GROUND_STATE,
    INFINITE_TEMPERATURE,
    at_infinite_temperature,
    complex_copy,
    gibbs,
    gibbs_purification,
    ground_pair,
    overlap,
    preset_observable,
    random_hermitian,
    random_real_symmetric,
    real_pauli_sums,
)
from qspec.errors import DimensionMismatchError, ResourceCapError, ZeroNormError, ZeroOperatorError
from qspec.models import ModelSpec, PauliTerm, build_operator, tilted_ising
from qspec.oracle import distribution_distance, exact_outcome_distribution, transition_weights
from qspec.purify import base_state, ensemble_populations, ground_state_degeneracy, thermal_operator_state
from qspec.qpe import run_qpe
from qspec.simcore import EigenDecomposition, HermitianOperator, register_distribution
from qspec.stateprep import spectral_weights

PAULI_X = np.array([[0, 1], [1, 0]], dtype=complex)
PAULI_Z = np.diag([1.0, -1.0]).astype(complex)


def pair_state(num_sites: int):
    """The infinite-temperature base state, the entangled pair state: it reads only H's size."""
    dim = 1 << num_sites
    return base_state(EigenDecomposition(np.zeros(dim), np.eye(dim)), INFINITE_TEMPERATURE)


def test_entangled_pair_single_site_is_bell_pair():
    state = pair_state(1)
    np.testing.assert_allclose(state.amplitudes, np.array([1, 0, 0, 1]) / np.sqrt(2), atol=1e-15)


def test_entangled_pair_two_sites_diagonal_support():
    state = pair_state(2)
    expected = np.zeros(16)
    expected[[0, 5, 10, 15]] = 0.5
    np.testing.assert_allclose(state.amplitudes, expected, atol=1e-15)


def test_entangled_pair_copy_marginal_is_uniform():
    state = pair_state(3)
    np.testing.assert_allclose(
        register_distribution(state, range(3)), np.full(8, 1 / 8), atol=1e-14
    )


def test_entangled_pair_respects_cap():
    with pytest.raises(ResourceCapError):
        pair_state(12)


def test_purify_pauli_z():
    state = thermal_operator_state(*at_infinite_temperature(HermitianOperator(PAULI_Z)))
    np.testing.assert_allclose(state.amplitudes, np.array([1, 0, 0, -1]) / np.sqrt(2), atol=1e-15)


def test_purify_pauli_x_matches_direct_application():
    # Independent route: apply X to the first copy of the Bell pair by hand.
    bell = np.array([1, 0, 0, 1]) / np.sqrt(2)
    direct = np.kron(PAULI_X, np.eye(2)) @ bell
    state = thermal_operator_state(*at_infinite_temperature(HermitianOperator(PAULI_X)))
    np.testing.assert_allclose(state.amplitudes, direct, atol=1e-15)


def test_purify_matches_eigenbasis_sum():
    op = random_real_symmetric(2, seed=17)
    vals, vecs = np.linalg.eigh(op.matrix)
    target = np.zeros(16, dtype=complex)
    for k in range(4):
        target += vals[k] * np.kron(vecs[:, k], vecs[:, k])
    target /= np.sqrt(np.sum(vals**2))
    state = thermal_operator_state(*at_infinite_temperature(op))
    assert abs(abs(np.vdot(target, state.amplitudes)) - 1.0) <= 1e-10


def test_purify_rejects_zero_operator():
    with pytest.raises(ZeroNormError):
        thermal_operator_state(*at_infinite_temperature(HermitianOperator(np.zeros((2, 2)))))


@pytest.mark.parametrize("ensemble", [INFINITE_TEMPERATURE, gibbs(0.8), GROUND_STATE])
def test_observable_with_subnormal_squares_is_a_zero_operator(ensemble):
    # The squares of 1e-160 ZI are subnormal: the operator state's norm came
    # out wrong by up to 3e-4 (a NormalizationError) and the oracle built a
    # table from them.  Every route rejects it as a zero operator, not as one
    # that annihilates the base state.
    ham = random_real_symmetric(2, seed=46)
    obs = HermitianOperator(1e-160 * np.kron(PAULI_Z.real, np.eye(2)))
    routes = (
        lambda: thermal_operator_state(obs, ham.eig, ensemble),
        lambda: spectral_weights(obs, ham.eig, ensemble),
        lambda: transition_weights(ham.eig, obs, ensemble),
    )
    for route in routes:
        with pytest.raises(ZeroOperatorError) as caught:
            route()
        assert not isinstance(caught.value, ZeroNormError)


def test_subnormal_second_moment_in_the_base_state_is_zero_norm():
    # H = -0.5 Z and O = 1e-150 |1><1|: tr(O^2)/dim = 5e-301 is normal, but at beta = 46
    # the excited level holds e^-46 of the ensemble, so <O^2> = 1.05e-320 is subnormal.
    # Exact prep used to fail its norm check, the oracle to write a spectrum from it.
    ham = HermitianOperator(-0.5 * PAULI_Z.real)
    obs = HermitianOperator(np.diag([0.0, 1e-150]))
    ensemble = gibbs(46.0)
    routes = (
        lambda: thermal_operator_state(obs, ham.eig, ensemble),
        lambda: spectral_weights(obs, ham.eig, ensemble),
        lambda: transition_weights(ham.eig, obs, ensemble),
    )
    for route in routes:
        with pytest.raises(ZeroNormError, match=r"<O\^2> = 1\.05e-320 in the gibbs base state"):
            route()


@pytest.mark.parametrize(
    "reader",
    [thermal_operator_state, spectral_weights, lambda obs, eig_h, ensemble: transition_weights(eig_h, obs, ensemble)],
    ids=["thermal_operator_state", "spectral_weights", "transition_weights"],
)
def test_every_reader_rejects_a_size_mismatch_and_an_annihilation_with_one_line(reader):
    # Each rule has one owner in purify, so every reader of (O, H's
    # decomposition, ensemble) raises the same line.
    with pytest.raises(DimensionMismatchError) as caught:
        reader(HermitianOperator(PAULI_Z), random_real_symmetric(2, seed=80).eig, INFINITE_TEMPERATURE)
    assert str(caught.value) == "operator dim 2 vs Hamiltonian dim 4"
    # The ground state of Z is |1>, which |0><0| annihilates.
    with pytest.raises(ZeroNormError) as caught:
        reader(HermitianOperator(np.diag([1.0, 0.0])), HermitianOperator(PAULI_Z).eig, GROUND_STATE)
    assert str(caught.value) == "annihilates the ground_state base state"


@settings(max_examples=25, deadline=None)
@given(scale=st.floats(-20.0, 20.0), seed=st.integers(0, 500))
def test_purify_is_scale_invariant(scale, seed):
    if abs(scale) < 1e-6:
        scale = 1.0
    op = random_real_symmetric(2, seed=seed)
    base = thermal_operator_state(*at_infinite_temperature(op))
    scaled_op = HermitianOperator(scale * op.matrix)
    scaled = thermal_operator_state(*at_infinite_temperature(scaled_op))
    sign = 1.0 if scale > 0 else -1.0
    assert np.max(np.abs(scaled.amplitudes - sign * base.amplitudes)) <= 1e-12


def test_purify_schmidt_coefficients_are_normalized_eigenvalues():
    op = random_real_symmetric(2, seed=23)
    vals = np.linalg.eigvalsh(op.matrix)
    state = thermal_operator_state(*at_infinite_temperature(op))
    schmidt = np.linalg.svd(state.amplitudes.reshape(4, 4), compute_uv=False)
    expected = np.sort(np.abs(vals))[::-1] / np.sqrt(np.sum(vals**2))
    np.testing.assert_allclose(schmidt, expected, atol=1e-10)


# --- Gibbs and ground-state base states --------------------------------------


def test_gibbs_at_zero_beta_is_entangled_pair():
    ham = random_real_symmetric(2, seed=31)
    state = base_state(ham.eig, gibbs(0.0))
    assert np.max(np.abs(state.amplitudes - pair_state(2).amplitudes)) <= 1e-12


def test_gibbs_two_level_closed_form():
    state = base_state(HermitianOperator(PAULI_Z).eig, gibbs(2.0))
    norm = math.sqrt(2.0 * math.cosh(2.0))
    expected = np.array([math.exp(-1.0), 0.0, 0.0, math.exp(1.0)]) / norm
    np.testing.assert_allclose(state.amplitudes, expected, atol=1e-14)


def test_gibbs_large_beta_reaches_ground_pair():
    ham = HermitianOperator(np.diag([0.0, 1.0, 2.0, 3.0]))
    state = base_state(ham.eig, gibbs(50.0))
    assert abs(np.vdot(ground_pair(ham), state.amplitudes)) ** 2 >= 1.0 - 1e-10


def test_gibbs_fidelity_with_pair_state_decreases_in_beta():
    ham = HermitianOperator(np.diag([0.0, 0.7, 1.9, 3.1]))
    pair = pair_state(2)
    fidelities = [
        abs(overlap(pair, base_state(ham.eig, gibbs(beta)))) ** 2 for beta in (0.0, 0.5, 1.0, 2.0, 4.0)
    ]
    assert all(a > b for a, b in zip(fidelities, fidelities[1:]))


def test_gibbs_rejects_bad_beta():
    # The ensemble is the one place beta is checked: no bad beta reaches base_state.
    for beta in (-1.0, float("inf"), float("nan")):
        with pytest.raises(ValueError):
            gibbs(beta)


def test_ground_state_is_the_ground_projector():
    ham = random_real_symmetric(2, seed=33)
    state = base_state(ham.eig, GROUND_STATE)
    psi0 = ham.eig.eigenvectors[:, 0]
    # Every other population is exactly zero, so a real psi_0 psi_0^T is kron(psi0, psi0) bit for bit.
    np.testing.assert_array_equal(state.amplitudes, np.kron(psi0, psi0))


def test_a_degenerate_ground_level_is_the_zero_temperature_limit():
    # H = -IZ - ZX + 0.5 II has two doubly degenerate levels.  Putting the whole
    # ground population on one of LAPACK's vectors put 0.941 at omega = 0, 0.44 TV
    # from Gibbs at beta = 1000; the even population is that limit.
    def pauli_sum(*terms):
        return build_operator(ModelSpec(2, tuple(PauliTerm(c, f) for c, f in terms)))

    ham = pauli_sum((-1.0, "IZ"), (-1.0, "ZX"), (0.5, "II"))
    obs = pauli_sum((1.0, "IX"), (0.6, "IZ"))
    assert ground_state_degeneracy(ham.eig) == 2
    circuit, oracle = {}, {}
    for ensemble in (GROUND_STATE, gibbs(1000.0)):
        circuit[ensemble] = run_qpe(thermal_operator_state(obs, ham.eig, ensemble), ham.eig, 5, 0.3)
        oracle[ensemble] = exact_outcome_distribution(transition_weights(ham.eig, obs, ensemble), 5, 0.3)
    assert distribution_distance(circuit[GROUND_STATE], circuit[gibbs(1000.0)]) <= 1e-10
    assert distribution_distance(oracle[GROUND_STATE], oracle[gibbs(1000.0)]) <= 1e-10


@settings(max_examples=40, deadline=None)
@given(spec=st.integers(1, 3).flatmap(real_pauli_sums), scale=st.floats(40.0, 400.0))
# IIX + 1e-10 IXI splits its fourfold ground level by 2e-10, below the degeneracy
# tolerance; gibbs(20) resolves the split and lands 5e-10 off 1/4.
@example(spec=ModelSpec(3, (PauliTerm(1.0, "IIX"), PauliTerm(1e-10, "IXI"))), scale=40.0)
def test_ground_state_populations_are_gibbs_far_below_the_first_gap(spec, scale):
    # beta times the first gap above the ground level is at least 40, so every
    # level above it holds below exp(-40) of the Gibbs weight.  Within the ground
    # level, of width w, Gibbs weights differ by at most a factor exp(beta*w), so
    # each lies within expm1(beta*w)/g of their mean 1/g.  beta stays at or below 1e3.
    eig = build_operator(spec).eig
    level = ground_state_degeneracy(eig)
    gap = eig.eigenvalues[level] - eig.eigenvalues[0] if level < eig.dim else math.inf
    beta = scale / gap
    assume(beta <= 1e3)
    width = eig.eigenvalues[level - 1] - eig.eigenvalues[0]
    ground = ensemble_populations(eig, GROUND_STATE)
    bound = 1e-10 + math.expm1(beta * width) / level
    assert np.max(np.abs(ground - ensemble_populations(eig, gibbs(beta)))) <= bound


@settings(max_examples=40, deadline=None)
@given(
    num_sites=st.integers(1, 3),
    seed=st.integers(0, 10_000),
    is_complex=st.booleans(),
    beta=st.one_of(st.none(), st.floats(0.0, 50.0)),
)
def test_base_state_matches_the_direct_purification(num_sites, seed, is_complex, beta):
    # The circuit and the oracle both read ensemble_populations, so criterion 2 cannot
    # catch a wrong population; the shifted exp(-beta*H/2) and psi_0 psi_0^dagger can.
    ham = (random_hermitian if is_complex else random_real_symmetric)(num_sites, seed)
    if beta is None:
        state, reference = base_state(ham.eig, GROUND_STATE), ground_pair(ham)
    else:
        state, reference = base_state(ham.eig, gibbs(beta)), gibbs_purification(ham, beta)
    assert np.max(np.abs(state.amplitudes - reference)) <= 1e-13


# --- thermal operator states ----------------------------------------------------


def test_thermal_state_infinite_temperature_equals_operator_state():
    op = random_real_symmetric(2, seed=41)
    via_ensemble = thermal_operator_state(*at_infinite_temperature(op))
    # The operator state by definition: sum_ij O_ij |i>|j> / sqrt(tr O^2).
    direct = op.matrix.reshape(-1) / np.sqrt(np.trace(op.matrix @ op.matrix))
    np.testing.assert_allclose(via_ensemble.amplitudes, direct, atol=1e-14)


def test_thermal_state_gibbs_beta_zero_equals_operator_state():
    op = random_real_symmetric(2, seed=42)
    ham = random_real_symmetric(2, seed=43)
    via_gibbs = thermal_operator_state(op, ham.eig, gibbs(0.0))
    direct = op.matrix.reshape(-1) / np.sqrt(np.trace(op.matrix @ op.matrix))
    assert np.max(np.abs(via_gibbs.amplitudes - direct)) <= 1e-12


def test_thermal_state_ground_two_level():
    # Ground state of sigma^z is |1>; sigma^x flips it, copy keeps the reference.
    out = thermal_operator_state(HermitianOperator(PAULI_X), HermitianOperator(PAULI_Z).eig, GROUND_STATE)
    np.testing.assert_allclose(np.abs(out.amplitudes), [0, 1, 0, 0], atol=1e-14)


def test_thermal_state_zero_norm_error():
    # O projects onto |0> but the ground state of sigma^z is |1>.
    projector = HermitianOperator(np.diag([1.0, 0.0]))
    with pytest.raises(ZeroNormError):
        thermal_operator_state(projector, HermitianOperator(PAULI_Z).eig, GROUND_STATE)


def test_all_purified_states_are_normalized():
    op = random_real_symmetric(3, seed=44)
    ham = random_real_symmetric(3, seed=45)
    for state in (
        pair_state(3),
        thermal_operator_state(*at_infinite_temperature(op)),
        base_state(ham.eig, gibbs(1.3)),
        base_state(ham.eig, GROUND_STATE),
        thermal_operator_state(op, ham.eig, gibbs(0.8)),
        thermal_operator_state(op, ham.eig, GROUND_STATE),
    ):
        assert abs(state.norm() - 1.0) <= 1e-10


@pytest.mark.parametrize("ensemble", [INFINITE_TEMPERATURE, gibbs(0.9), GROUND_STATE])
def test_real_operators_give_real_purified_states(ensemble):
    ham = random_real_symmetric(2, seed=31)
    obs = random_real_symmetric(2, seed=32)
    real = thermal_operator_state(obs, ham.eig, ensemble)
    assert real.amplitudes.dtype == np.float64
    infinite = thermal_operator_state(*at_infinite_temperature(obs))
    for state in (pair_state(2), infinite, base_state(ham.eig, gibbs(0.9)), base_state(ham.eig, GROUND_STATE)):
        assert state.amplitudes.dtype == np.float64
    # The complex route reaches the same state up to a global phase (its ground vector's).
    twin = thermal_operator_state(complex_copy(obs), complex_copy(ham).eig, ensemble)
    assert twin.amplitudes.dtype == np.complex128
    assert abs(abs(overlap(real, twin)) - 1.0) <= 1e-12


@pytest.fixture(scope="module")
def chain_at_the_cap():
    ham = build_operator(tilted_ising(10))
    ham.eig  # the memoised decomposition is not part of the state
    return ham, preset_observable("total_sz", 10)


@pytest.mark.parametrize("ensemble", [INFINITE_TEMPERATURE, gibbs(1.0), GROUND_STATE])
def test_operator_state_at_n10_holds_two_matrices(chain_at_the_cap, ensemble):
    # The base state and O times it, normalized in place: 16.0 MiB traced in
    # every ensemble.  A normalized copy beside them (24.0 MiB) breaks the bound.
    ham, obs = chain_at_the_cap
    tracemalloc.start()
    try:
        thermal_operator_state(obs, ham.eig, ensemble)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 2 * 4**10 * 8 + 2**20
