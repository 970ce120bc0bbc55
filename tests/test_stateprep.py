"""Closed forms and circuit simulation of the postselected preparation."""

import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import (
    GROUND_STATE,
    INFINITE_TEMPERATURE,
    at_infinite_temperature,
    gate_by_gate_prep,
    gibbs,
    moment_ratio_constant,
    overlap,
    preset_observable,
    random_hermitian,
    random_real_symmetric,
)
from qspec.errors import DegenerateAngleError, DimensionMismatchError, ZeroOperatorError
from qspec.models import EIGENVALUE_LAWS, build_operator, heisenberg, synthetic_eigenvalues, tilted_ising
from qspec.purify import thermal_operator_state
from qspec.simcore import HermitianOperator
from qspec.stateprep import (
    MomentSet,
    acceptance_probability,
    choose_phi,
    moments,
    preparation_fidelity,
    run_prep_circuit,
    simulate_prep_circuit,
    spectral_weights,
    success_probability_bound,
)

PAULI_Z = HermitianOperator(np.diag([1.0, -1.0]))
Z_SPECTRUM = spectral_weights(*at_infinite_temperature(PAULI_Z))

LAWS = ("semicircle", "uniform", "arcsine", "gaussian")
CONSTANTS = {"semicircle": 0.5, "uniform": 5 / 9, "arcsine": 2 / 3, "gaussian": 1 / 3}


def law_quadrature(kind: str):
    """Grid, weight and abscissa for expectations over the unit-scale law.

    The arcsine and semicircle laws are integrated through the substitution
    x = cos(angle), which removes their endpoint singularities.
    """
    n = 400_001
    if kind == "uniform":
        grid = np.linspace(-1.0, 1.0, n)
        return grid, np.full(n, 0.5), grid
    if kind == "gaussian":
        grid = np.linspace(-10.0, 10.0, n)
        return grid, np.exp(-grid**2 / 2) / np.sqrt(2 * np.pi), grid
    if kind == "semicircle":
        grid = np.linspace(0.0, np.pi, n)
        return grid, (2 / np.pi) * np.sin(grid) ** 2, np.cos(grid)
    grid = np.linspace(0.0, 1.0, n)  # arcsine
    return grid, np.ones(n), np.cos(np.pi * grid)


def synthetic_spectrum(kind: str, num_sites: int, seed: int) -> tuple[np.ndarray, np.ndarray]:
    """A unit-scale law's synthetic eigenvalues with uniform (infinite-temperature) weights."""
    vals = synthetic_eigenvalues(kind, num_sites, seed)
    return vals, np.full(vals.size, 1.0 / vals.size)


def law_expect(kind: str, fn) -> complex:
    grid, weight, x = law_quadrature(kind)
    return np.trapezoid(weight * fn(x), grid)


# --- two-level closed forms ----------------------------------------------------


# At 1e-13, P1 is about 2.5e-27: the closed form stays exact far below where the simulated branch cancels.
@pytest.mark.parametrize("phi", [1e-13, 0.2, 0.7, 1.5, np.pi / 2, 2.9])
def test_two_level_acceptance_and_fidelity(phi):
    assert abs(acceptance_probability(*Z_SPECTRUM, phi) - np.sin(phi / 2) ** 2) <= 1e-14
    assert abs(preparation_fidelity(*Z_SPECTRUM, phi) - np.cos(phi / 2) ** 2) <= 1e-14


def test_fidelity_at_right_angle_is_half():
    assert abs(preparation_fidelity(*Z_SPECTRUM, np.pi / 2) - 0.5) <= 1e-14


def test_zero_angle_is_degenerate():
    with pytest.raises(DegenerateAngleError):
        preparation_fidelity(*Z_SPECTRUM, 0.0)
    with pytest.raises(DegenerateAngleError):
        simulate_prep_circuit(*at_infinite_temperature(PAULI_Z), 0.0)


# --- circuit against closed forms ------------------------------------------------


def overlap_fidelity(operator, eig_h, ensemble, post) -> float:
    """|<target|post>|^2 against the target operator state, clipped at 1 as a run records it."""
    return min(abs(overlap(thermal_operator_state(operator, eig_h, ensemble), post)) ** 2, 1.0)


@pytest.mark.parametrize("ensemble", [INFINITE_TEMPERATURE, gibbs(0.7), GROUND_STATE])
def test_circuit_branch_norms_match_closed_forms(ensemble):
    op = random_real_symmetric(2, seed=71)
    ham = random_real_symmetric(2, seed=72)
    phi = 0.43
    p1, post = simulate_prep_circuit(op, ham.eig, ensemble, phi)
    spectrum = spectral_weights(op, ham.eig, ensemble)
    assert abs(p1 - acceptance_probability(*spectrum, phi)) <= 1e-12
    assert abs(overlap_fidelity(op, ham.eig, ensemble, post) - preparation_fidelity(*spectrum, phi)) <= 1e-10


@settings(max_examples=40, deadline=None)
@given(
    num_sites=st.integers(1, 3),
    seed=st.integers(0, 10_000),
    real_h=st.booleans(),
    real_o=st.booleans(),
    ensemble=st.sampled_from([INFINITE_TEMPERATURE, gibbs(0.8), GROUND_STATE]),
    # Below about 1e-2 the accepted branch is a cancellation whose rounding
    # both simulations divide by sqrt(P1), so the 1e-12 match would not hold.
    phi=st.floats(0.01, np.pi - 0.01),
)
def test_simulate_prep_circuit_matches_gate_by_gate_circuit(num_sites, seed, real_h, real_o, ensemble, phi):
    ham = (random_real_symmetric if real_h else random_hermitian)(num_sites, seed=seed)
    obs = (random_real_symmetric if real_o else random_hermitian)(num_sites, seed=seed + 1)
    p1, post = simulate_prep_circuit(obs, ham.eig, ensemble, phi)
    ref_p1, ref_post = gate_by_gate_prep(obs, ham.eig, ensemble, phi)
    assert abs(p1 - ref_p1) <= 1e-12
    assert np.max(np.abs(post.amplitudes - ref_post.amplitudes)) <= 1e-12
    ref_fidelity = overlap_fidelity(obs, ham.eig, ensemble, ref_post)
    assert abs(overlap_fidelity(obs, ham.eig, ensemble, post) - ref_fidelity) <= 1e-12
    # The closed form a run records, against the gate-level overlap.
    closed_form = min(preparation_fidelity(*spectral_weights(obs, ham.eig, ensemble), phi), 1.0)
    assert abs(closed_form - ref_fidelity) <= 1e-10


@pytest.mark.parametrize("ensemble", [INFINITE_TEMPERATURE, gibbs(1.0), GROUND_STATE])
def test_run_records_the_overlap_fidelity_at_a_tiny_epsilon(ensemble):
    # At epsilon = 1e-10 the angle is about 1e-5, where 2 - 2cos(phi*O) would
    # lose all but six digits of the branch norm and so of the infidelity.
    obs, ham = preset_observable("total_sz", 3), build_operator(tilted_ising(3))
    outcome = run_prep_circuit(obs, ham.eig, ensemble, 1e-10, seed=0, max_attempts=10**15)
    fidelity = outcome.stats["fidelity_with_target"]
    assert abs(fidelity - overlap_fidelity(obs, ham.eig, ensemble, outcome.post_state)) <= 1e-12
    ms = moments(*spectral_weights(obs, ham.eig, ensemble))
    leading = 1e-10 / 4 * (1 - ms.m3**2 / (ms.m2 * ms.m4))
    assert abs((1 - fidelity) / leading - 1) <= 1e-3


def test_branch_norms_sum_to_one():
    op = random_hermitian(2, seed=73)
    phi = 1.1
    p1 = acceptance_probability(*spectral_weights(*at_infinite_temperature(op)), phi)
    # The rejected branch carries <cos^2(phi O / 2)>; unitarity forces the sum to 1.
    eig = np.linalg.eigvalsh(op.matrix)
    p0 = float(np.mean(np.cos(phi * eig / 2) ** 2))
    assert abs(p0 + p1 - 1.0) <= 1e-12


def test_accepted_state_is_returned_only_on_acceptance():
    triple = at_infinite_temperature(PAULI_Z)
    # epsilon = 0.99 gives phi ~ 0.995 and P1 ~ 0.23: seed 0 accepts within 100 attempts.
    outcome = run_prep_circuit(*triple, 0.99, seed=0, max_attempts=100)
    assert outcome.accepted and outcome.post_state is not None
    # epsilon = 1e-8 gives P1 = sin^2(5e-5) ~ 2.5e-9: one attempt rejects, but the stats stay filled.
    outcome = run_prep_circuit(*triple, 1e-8, seed=0, max_attempts=1)
    assert not outcome.accepted and outcome.post_state is None
    assert outcome.stats["acceptance_probability"] > 0
    assert outcome.stats["fidelity_with_target"] > 0.99


def _accepting_attempt(seed: int, p1: float) -> int:
    """K by inversion of Geometric(P1) at the first double of spawn key (1,) of ``seed``."""
    u = np.random.default_rng(np.random.SeedSequence(seed, spawn_key=(1,))).random()
    return max(1, math.ceil(math.log1p(-u) / math.log1p(-p1)))


@pytest.mark.parametrize("seed", range(6))
def test_attempts_follow_the_closed_form_until_acceptance_or_budget(seed):
    # P1 ~ 0.079 with a budget of 8: seeds 1, 3 and 5 accept (attempts 8, 2 and 4), the rest exhaust.
    triple = at_infinite_temperature(random_real_symmetric(2, seed=75))
    epsilon, budget = 0.5, 8
    outcome = run_prep_circuit(*triple, epsilon, seed=seed, max_attempts=budget)
    spectrum = spectral_weights(*triple)
    phi = choose_phi(moments(*spectrum), epsilon)
    p1, post = simulate_prep_circuit(*triple, phi)
    first = _accepting_attempt(seed, p1)
    assert outcome.accepted == (first <= budget)
    assert outcome.stats["attempts"] == min(first, budget)
    if outcome.accepted:
        np.testing.assert_array_equal(outcome.post_state.amplitudes, post.amplitudes)
    else:
        assert outcome.post_state is None
    assert outcome.stats["acceptance_probability"] == p1
    assert outcome.stats["fidelity_with_target"] == min(preparation_fidelity(*spectrum, phi), 1.0)


def test_prep_draw_is_seed_deterministic():
    triple = at_infinite_temperature(random_real_symmetric(2, seed=74))
    first = run_prep_circuit(*triple, 0.3, seed=123, max_attempts=5)
    second = run_prep_circuit(*triple, 0.3, seed=123, max_attempts=5)
    assert first.accepted == second.accepted
    assert first.stats == second.stats


def test_prep_draw_rejects_a_negative_seed_as_numpy_does():
    with pytest.raises(ValueError, match="non-negative"):
        np.random.SeedSequence(-1, spawn_key=(1,))
    triple = at_infinite_temperature(random_real_symmetric(2, seed=75))
    with pytest.raises(ValueError, match="non-negative"):
        run_prep_circuit(*triple, 0.5, seed=-1, max_attempts=4)


def test_accepting_attempts_follow_the_geometric_law():
    # Kolmogorov-Smirnov distance of K over 3000 fixed seeds from Geometric(P1 ~ 0.079),
    # and the mean of K against 1/P1 within four standard errors.  The 1% critical
    # value 1.63/sqrt(n) is conservative for a discrete law; an off-by-one K moves
    # the CDF by up to P1, about three times that value.
    triple = at_infinite_temperature(random_real_symmetric(2, seed=75))
    count = 3000
    ks = np.array([run_prep_circuit(*triple, 0.5, seed=s, max_attempts=1 << 62).stats["attempts"]
                   for s in range(count)])
    p1 = run_prep_circuit(*triple, 0.5, seed=0, max_attempts=1).stats["acceptance_probability"]
    support = np.arange(1, ks.max() + 1)
    empirical = np.searchsorted(np.sort(ks), support, side="right") / count
    law = 1.0 - (1.0 - p1) ** support
    assert np.max(np.abs(empirical - law)) <= 1.63 / math.sqrt(count)
    assert abs(ks.mean() * p1 - 1.0) <= 4 * math.sqrt(1.0 - p1) / math.sqrt(count)


@pytest.mark.parametrize("seed", range(6))
def test_a_budget_of_k_accepts_and_one_less_exhausts(seed):
    triple = at_infinite_temperature(random_real_symmetric(2, seed=75))
    epsilon = 0.01  # P1 ~ 1.6e-3: K runs from 65 to 2309 over these seeds
    first = run_prep_circuit(*triple, epsilon, seed=seed, max_attempts=1 << 62).stats["attempts"]
    at_k = run_prep_circuit(*triple, epsilon, seed=seed, max_attempts=first)
    assert at_k.accepted and at_k.stats["attempts"] == first
    short = run_prep_circuit(*triple, epsilon, seed=seed, max_attempts=first - 1)
    assert not short.accepted and short.post_state is None
    assert short.stats["attempts"] == first - 1


@settings(max_examples=40, deadline=None)
@given(
    seed=st.integers(0, (1 << 64) - 1),
    epsilon=st.floats(1e-4, 0.9),
    spare=st.one_of(st.integers(0, 1000), st.integers(0, (1 << 62) - 1)),
)
def test_accepting_attempt_is_the_same_at_any_budget_from_k(seed, epsilon, spare):
    triple = at_infinite_temperature(random_real_symmetric(2, seed=75))
    outcome = run_prep_circuit(*triple, epsilon, seed=seed, max_attempts=1 << 62)
    first = outcome.stats["attempts"]
    assert outcome.accepted and first == _accepting_attempt(seed, outcome.stats["acceptance_probability"])
    again = run_prep_circuit(*triple, epsilon, seed=seed, max_attempts=first + spare)
    assert again.accepted and again.stats == outcome.stats
    np.testing.assert_array_equal(again.post_state.amplitudes, outcome.post_state.amplitudes)


# --- small-angle expansions --------------------------------------------------------


def test_small_angle_acceptance_remainder_bound():
    spectrum = spectral_weights(*at_infinite_temperature(random_hermitian(3, seed=75)))
    ms = moments(*spectrum)
    for phi in (0.05, 0.2, 0.5):
        p1 = acceptance_probability(*spectrum, phi)
        assert abs(p1 - phi**2 * ms.m2 / 4) <= phi**4 * ms.m4 / 48 + 1e-15


def test_small_angle_fidelity_coefficient():
    spectrum = spectral_weights(*at_infinite_temperature(random_real_symmetric(3, seed=76)))
    ms = moments(*spectrum)
    phi = 1e-3
    expansion = 1 - (phi**2 / 4) * (ms.m4 / ms.m2 - ms.m3**2 / ms.m2**2)
    assert abs(preparation_fidelity(*spectrum, phi) - expansion) <= 1e-8


@settings(max_examples=30, deadline=None)
@given(phi=st.floats(-3.0, 3.0), seed=st.integers(0, 300))
def test_acceptance_probability_is_even_and_bounded(phi, seed):
    spectrum = spectral_weights(*at_infinite_temperature(random_hermitian(2, seed=seed)))
    p1 = acceptance_probability(*spectrum, phi)
    assert 0.0 <= p1 <= 1.0
    assert abs(p1 - acceptance_probability(*spectrum, -phi)) <= 1e-14


# --- angle selection -----------------------------------------------------------------


def test_choose_phi_for_uniform_law():
    m2, m4, _ = EIGENVALUE_LAWS["uniform"]
    phi = choose_phi(MomentSet(m2, 0.0, m4), 0.01)
    assert abs(phi - np.sqrt(0.01 * (1 / 3) / (1 / 5))) <= 1e-15
    assert abs(phi - 0.1290994448735806) <= 1e-12


def test_choose_phi_quarter_epsilon_scaling():
    ms = moments(*spectral_weights(*at_infinite_temperature(random_real_symmetric(3, seed=77))))
    assert abs(choose_phi(ms, 0.04) / choose_phi(ms, 0.01) - 2.0) <= 1e-12


def test_choose_phi_hits_fidelity_target_for_gaussian_synthetic():
    spectrum = synthetic_spectrum("gaussian", 8, seed=21)
    epsilon = 0.01
    phi = choose_phi(moments(*spectrum), epsilon)
    assert preparation_fidelity(*spectrum, phi) >= 1 - 1.1 * epsilon


def test_choose_phi_meets_target_for_presets():
    presets = (
        preset_observable("total_sz", 4),
        preset_observable("site_sz", 4, 2),
        preset_observable("staggered_sz", 4),
        PAULI_Z,
    )
    for epsilon in (0.1, 0.01):
        for op in presets:
            spectrum = spectral_weights(*at_infinite_temperature(op))
            phi = choose_phi(moments(*spectrum), epsilon)
            assert preparation_fidelity(*spectrum, phi) >= 1 - 1.2 * epsilon


def test_choose_phi_epsilon_range():
    with pytest.raises(ValueError):
        choose_phi(moments(*Z_SPECTRUM), 0.0)
    with pytest.raises(ValueError):
        choose_phi(moments(*Z_SPECTRUM), 1.0)


def test_success_bound_chain_is_ordered():
    for seed in range(4):
        vals, q = synthetic_spectrum("uniform", 6, seed=seed)
        ms = moments(vals, q)
        bound = success_probability_bound(vals, ms, 0.01)
        assert bound.predicted_p1 >= bound.spectral_bound - 1e-15
        assert bound.spectral_bound >= bound.rank_bound - 1e-15
        assert 0 < bound.o_min <= bound.o_max
        assert bound.rank == 64
        # The realized acceptance at the chosen angle stays above every bound.
        phi = choose_phi(ms, 0.01)
        assert acceptance_probability(vals, q, phi) >= 0.9 * bound.rank_bound


@pytest.mark.parametrize("case", ["pauli_z", "gaussian", "uniform", "gibbs_ising"])
def test_predicted_p1_is_the_acceptance_at_the_chosen_angle(case):
    # sin^2 x lies within x^4/3 below x^2, so at phi the exact P1 is within
    # phi^4 m4 / 48 below phi^2 m2 / 4 = predicted_p1.
    if case == "pauli_z":
        vals, q = Z_SPECTRUM
    elif case == "gibbs_ising":
        vals, q = spectral_weights(preset_observable("total_sz", 3), build_operator(tilted_ising(3)).eig, gibbs(1.0))
    else:
        vals, q = synthetic_spectrum(case, 6, seed=2)
    ms = moments(vals, q)
    phi = choose_phi(ms, 0.01)
    gap = success_probability_bound(vals, ms, 0.01).predicted_p1 - acceptance_probability(vals, q, phi)
    assert 0.0 <= gap <= phi**4 * ms.m4 / 48


# --- moment machinery ------------------------------------------------------------


def test_spectral_weights_of_zero_operator_rejected():
    with pytest.raises(ZeroOperatorError):
        spectral_weights(*at_infinite_temperature(HermitianOperator(np.zeros((2, 2)))))


def test_spectral_weights_reject_rounding_scale_second_moment():
    # Total S^z annihilates the Heisenberg singlet ground state; the computed
    # m2 is rounding noise (about 1e-33), not a positive moment.
    ham = build_operator(heisenberg(4))
    obs = preset_observable("total_sz", 4)
    with pytest.raises(ZeroOperatorError):
        spectral_weights(obs, ham.eig, GROUND_STATE)


@pytest.mark.parametrize("ensemble", [INFINITE_TEMPERATURE, gibbs(1.0)])
def test_a_hamiltonian_of_another_size_is_rejected(ensemble):
    # Every reader of the (operator, H's decomposition, ensemble) triple checks
    # the sizes, also at infinite temperature, which reads only H's size.
    obs, ham = PAULI_Z, random_real_symmetric(2, seed=80)
    routes = (
        lambda: thermal_operator_state(obs, ham.eig, ensemble),
        lambda: spectral_weights(obs, ham.eig, ensemble),
        lambda: run_prep_circuit(obs, ham.eig, ensemble, 0.5, seed=0, max_attempts=10),
    )
    for route in routes:
        with pytest.raises(DimensionMismatchError, match="operator dim 2 vs Hamiltonian dim 4"):
            route()


def test_moments_accept_physically_small_second_moment():
    # At beta = 10 only the thermally excited triplets carry weight: m2 is
    # tiny (about 3e-11) but far above rounding scale.
    ham = build_operator(heisenberg(4))
    obs = preset_observable("total_sz", 4)
    ms = moments(*spectral_weights(obs, ham.eig, gibbs(10.0)))
    assert 1e-12 < ms.m2 < 1e-9
    assert ms.m4 >= ms.m2**2


def test_moment_set_validates_cauchy_schwarz():
    with pytest.raises(ValueError):
        MomentSet(m2=2.0, m3=0.0, m4=1.0)
    with pytest.raises(ZeroOperatorError):
        MomentSet(m2=0.0, m3=0.0, m4=1.0)


def test_traced_observable_closed_forms_are_silent_and_exact():
    # The closed forms keep the identity part, so a trace needs no warning:
    # both match the simulated circuit on an observable with one.
    triple = at_infinite_temperature(HermitianOperator(np.diag([2.0, 0.0])))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        spectrum = spectral_weights(*triple)
        p1 = acceptance_probability(*spectrum, 0.4)
        fidelity = preparation_fidelity(*spectrum, 0.4)
    simulated_p1, post = simulate_prep_circuit(*triple, 0.4)
    assert abs(p1 - simulated_p1) <= 1e-12
    assert abs(fidelity - overlap_fidelity(*triple, post)) <= 1e-12


def test_ensemble_moments_match_direct_traces():
    op = random_real_symmetric(2, seed=78)
    ham = random_real_symmetric(2, seed=79)
    beta = 1.3
    vals, vecs = np.linalg.eigh(ham.matrix)
    rho = (vecs * np.exp(-beta * (vals - vals[0]))) @ vecs.T
    rho /= np.trace(rho)
    ms = moments(*spectral_weights(op, ham.eig, gibbs(beta)))
    for k, got in ((2, ms.m2), (3, ms.m3), (4, ms.m4)):
        direct = np.trace(rho @ np.linalg.matrix_power(op.matrix, k)).real
        assert abs(got - direct) <= 1e-12


# --- the four laws -------------------------------------------------------------------


def test_moment_ratio_constants_are_exact():
    for kind in LAWS:
        c = moment_ratio_constant(kind)
        assert abs(c - CONSTANTS[kind]) <= 1e-12


def test_moment_ratio_monte_carlo_estimate():
    for kind, seed in (("semicircle", 1), ("uniform", 1), ("arcsine", 1), ("gaussian", 8)):
        ms = moments(*synthetic_spectrum(kind, 10, seed=seed))
        estimate = ms.m2**2 / ms.m4
        assert abs(estimate - CONSTANTS[kind]) <= 0.05 * CONSTANTS[kind]


def test_acceptance_rises_from_zero_to_one_half():
    # For a continuous symmetric spectrum the acceptance saturates at 1/2.
    for kind in LAWS:
        spectrum = synthetic_spectrum(kind, 8, seed=5)
        small_grid = [acceptance_probability(*spectrum, phi) for phi in (0.02, 0.1, 0.3, 0.6, 1.0)]
        assert small_grid[0] < 1e-3
        assert all(a < b for a, b in zip(small_grid, small_grid[1:]))
        assert abs(acceptance_probability(*spectrum, 200.0) - 0.5) <= 0.05


def test_small_angle_law_against_quadrature():
    # Quadrature over the law itself, fully independent of the package code.
    phi = 1e-2
    for kind in LAWS:
        norm = law_expect(kind, lambda x: np.ones_like(x))
        assert abs(norm - 1.0) <= 1e-8
        p1 = law_expect(kind, lambda x: np.sin(phi * x / 2) ** 2).real
        m2 = law_expect(kind, lambda x: x**2).real
        amplitude = law_expect(kind, lambda x: x * (1 - np.exp(1j * phi * x)))
        fidelity = abs(amplitude) ** 2 / (m2 * 4 * p1)
        ratio = p1 / (1 - fidelity)
        assert abs(ratio - moment_ratio_constant(kind)) <= 1e-3


def test_law_table_moments_match_quadrature():
    # The table's order is the prep study's spawn-key order.
    assert tuple(EIGENVALUE_LAWS) == LAWS
    for kind, (m2, m4, _) in EIGENVALUE_LAWS.items():
        assert abs(law_expect(kind, lambda x: x**2).real - m2) <= 1e-8
        assert abs(law_expect(kind, lambda x: x**4).real - m4) <= 1e-8
