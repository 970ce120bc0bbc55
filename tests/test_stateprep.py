"""Closed forms and circuit simulation of the postselected preparation."""

import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import gate_by_gate_prep, preset_observable, random_hermitian, random_real_symmetric
from qspec import stateprep
from qspec.errors import DegenerateAngleError, ZeroOperatorError
from qspec.models import (
    EigenvalueDistribution,
    build_operator,
    heisenberg,
    synthetic_diagonal_observable,
    tilted_ising,
)
from qspec.purify import GROUND_STATE, INFINITE_TEMPERATURE, gibbs
from qspec.simcore import HermitianOperator
from qspec.stateprep import (
    MomentSet,
    acceptance_probability,
    choose_phi,
    choose_phi_for_distribution,
    moment_ratio_constant,
    moments,
    preparation_fidelity,
    run_prep_circuit,
    simulate_prep_circuit,
    success_probability_bound,
)

PAULI_Z = HermitianOperator(np.diag([1.0, -1.0]))

LAWS = ("semicircle", "uniform", "arcsine", "gaussian")
CONSTANTS = {"semicircle": 0.5, "uniform": 5 / 9, "arcsine": 2 / 3, "gaussian": 1 / 3}


def law_quadrature(kind: str):
    """Grid, weight and abscissa for expectations over the unit-parameter law.

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


def law_expect(kind: str, fn) -> complex:
    grid, weight, x = law_quadrature(kind)
    return np.trapezoid(weight * fn(x), grid)


# --- two-level closed forms ----------------------------------------------------


@pytest.mark.parametrize("phi", [0.2, 0.7, 1.5, np.pi / 2, 2.9])
def test_two_level_acceptance_and_fidelity(phi):
    assert abs(acceptance_probability(PAULI_Z, phi) - np.sin(phi / 2) ** 2) <= 1e-14
    assert abs(preparation_fidelity(PAULI_Z, phi) - np.cos(phi / 2) ** 2) <= 1e-14


def test_fidelity_at_right_angle_is_half():
    assert abs(preparation_fidelity(PAULI_Z, np.pi / 2) - 0.5) <= 1e-14


def test_zero_angle_is_degenerate():
    with pytest.raises(DegenerateAngleError):
        preparation_fidelity(PAULI_Z, 0.0)
    with pytest.raises(DegenerateAngleError):
        simulate_prep_circuit(PAULI_Z, 0.0)


# --- circuit against closed forms ------------------------------------------------


@pytest.mark.parametrize(
    "ensemble,needs_ham",
    [(None, False), (gibbs(0.7), True), (GROUND_STATE, True)],
)
def test_circuit_branch_norms_match_closed_forms(ensemble, needs_ham):
    op = random_real_symmetric(2, seed=71)
    ham = random_real_symmetric(2, seed=72) if needs_ham else None
    kwargs = {} if ensemble is None else {"ensemble": ensemble, "hamiltonian": ham}
    phi = 0.43
    p1, _, fidelity = simulate_prep_circuit(op, phi, **kwargs)
    assert abs(p1 - acceptance_probability(op, phi, **kwargs)) <= 1e-12
    assert abs(fidelity - preparation_fidelity(op, phi, **kwargs)) <= 1e-10


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
    p1, post, fidelity = simulate_prep_circuit(obs, phi, ensemble, ham)
    ref_p1, ref_post, ref_fidelity = gate_by_gate_prep(obs, phi, ensemble, ham)
    assert abs(p1 - ref_p1) <= 1e-12
    assert np.max(np.abs(post.amplitudes - ref_post.amplitudes)) <= 1e-12
    assert abs(fidelity - ref_fidelity) <= 1e-12


def test_branch_norms_sum_to_one():
    op = random_hermitian(2, seed=73)
    phi = 1.1
    p1 = acceptance_probability(op, phi)
    # The rejected branch carries <cos^2(phi O / 2)>; unitarity forces the sum to 1.
    eig = np.linalg.eigvalsh(op.matrix)
    p0 = float(np.mean(np.cos(phi * eig / 2) ** 2))
    assert abs(p0 + p1 - 1.0) <= 1e-12


def test_accepted_state_is_returned_only_on_acceptance():
    op = PAULI_Z
    # epsilon = 0.99 gives phi ~ 0.995 and P1 ~ 0.23: seed 0 accepts within 100 attempts.
    outcome = run_prep_circuit(op, 0.99, seed=0, max_attempts=100)
    assert outcome.accepted and outcome.post_state is not None
    # epsilon = 1e-8 gives P1 = sin^2(5e-5) ~ 2.5e-9: one attempt rejects, but the stats stay filled.
    outcome = run_prep_circuit(op, 1e-8, seed=0, max_attempts=1)
    assert not outcome.accepted and outcome.post_state is None
    assert outcome.stats["acceptance_probability"] > 0
    assert outcome.stats["fidelity_with_target"] > 0.99


def _first_acceptance(seed: int, p1: float, max_attempts: int) -> int | None:
    """1 + the first attempt k whose draw from spawn key (1, k) falls below P1."""
    for k in range(max_attempts):
        if np.random.default_rng(np.random.SeedSequence(seed, spawn_key=(1, k))).random() < p1:
            return k + 1
    return None


@pytest.mark.parametrize("seed", range(6))
def test_attempts_follow_the_spawn_keys_until_acceptance_or_budget(seed):
    # P1 ~ 0.079 with a budget of 8: seeds 0 and 2 accept (attempts 3 and 1), the rest exhaust.
    op = random_real_symmetric(2, seed=75)
    epsilon, budget = 0.5, 8
    outcome = run_prep_circuit(op, epsilon, seed=seed, max_attempts=budget)
    p1, post, fidelity = simulate_prep_circuit(op, choose_phi(moments(op), epsilon))
    expected = _first_acceptance(seed, p1, budget)
    assert outcome.accepted == (expected is not None)
    if outcome.accepted:
        assert outcome.stats["attempts"] == expected
        np.testing.assert_array_equal(outcome.post_state.amplitudes, post.amplitudes)
    else:
        assert outcome.stats["attempts"] == budget and outcome.post_state is None
    assert outcome.stats["acceptance_probability"] == p1
    assert outcome.stats["fidelity_with_target"] == fidelity


def test_prep_draw_is_seed_deterministic():
    op = random_real_symmetric(2, seed=74)
    first = run_prep_circuit(op, 0.3, seed=123, max_attempts=5)
    second = run_prep_circuit(op, 0.3, seed=123, max_attempts=5)
    assert first.accepted == second.accepted
    assert first.stats == second.stats


def _numpy_draws(seed: int, start: int, stop: int) -> np.ndarray:
    """The first double of numpy's generator at spawn key (1, k), one generator per k."""
    return np.array([
        np.random.default_rng(np.random.SeedSequence(seed, spawn_key=(1, k))).random()
        for k in range(start, stop)
    ])


@pytest.mark.parametrize("seed", [0, 1, 1 << 32, (1 << 63) + 5, (1 << 64) - 1, (1 << 130) + 7])
@pytest.mark.parametrize("start, stop", [(0, 3000), ((1 << 32) - 8, (1 << 32) + 8)])
def test_block_draws_are_numpys_per_attempt_draws(seed, start, stop):
    # The second range crosses 2**32, where an attempt index gains a second 32-bit word.
    # A seed past 2**128 has more words than the 4-word pool; they are mixed in after it.
    draws = stateprep._ancilla_draws(seed, start, stop)
    assert draws.dtype == np.float64
    np.testing.assert_array_equal(draws, _numpy_draws(seed, start, stop))


@settings(max_examples=40, deadline=None)
@given(
    seed=st.one_of(st.integers(0, (1 << 64) - 1), st.integers(1 << 128, (1 << 160) - 1)),
    start=st.integers(0, (1 << 64) - 24),
    count=st.integers(0, 24),
)
def test_block_draws_match_numpy_at_any_seed_and_start(seed, start, count):
    np.testing.assert_array_equal(
        stateprep._ancilla_draws(seed, start, start + count), _numpy_draws(seed, start, start + count)
    )


def test_block_draws_reject_a_negative_seed_as_numpy_does():
    with pytest.raises(ValueError, match="non-negative"):
        np.random.SeedSequence(-1, spawn_key=(1, 0))
    with pytest.raises(ValueError, match="non-negative"):
        stateprep._ancilla_draws(-1, 0, 4)
    with pytest.raises(ValueError, match="non-negative"):
        run_prep_circuit(random_real_symmetric(2, seed=75), 0.5, seed=-1, max_attempts=4)


@pytest.mark.parametrize(
    "seed, budget, blocks",
    [
        (0, 5000, [(0, 1024), (1024, 2048)]),  # accepts at 1761, in the second block
        (0, 1761, [(0, 1024), (1024, 1761)]),  # accepts at the budget's last attempt
        (0, 1760, [(0, 1024), (1024, 1760)]),  # exhausts one attempt short
        (2, 1500, [(0, 1024), (1024, 1500)]),  # exhausts mid-block (accepts at 1620)
        (3, 5000, [(0, 1024)]),  # accepts at 73
    ],
)
def test_attempt_blocks_accept_past_the_first_and_stop_at_the_budget(monkeypatch, seed, budget, blocks):
    op = random_real_symmetric(2, seed=75)
    epsilon = 0.01  # P1 ~ 1.6e-3
    drawn = []
    draws = stateprep._ancilla_draws
    monkeypatch.setattr(stateprep, "_ancilla_draws", lambda s, a, b: drawn.append((a, b)) or draws(s, a, b))
    outcome = run_prep_circuit(op, epsilon, seed=seed, max_attempts=budget)
    assert drawn == blocks
    p1 = simulate_prep_circuit(op, choose_phi(moments(op), epsilon))[0]
    expected = _first_acceptance(seed, p1, budget)
    assert outcome.accepted == (expected is not None)
    assert outcome.stats["attempts"] == (budget if expected is None else expected)


# --- small-angle expansions --------------------------------------------------------


def test_small_angle_acceptance_remainder_bound():
    op = random_hermitian(3, seed=75)
    ms = moments(op)
    for phi in (0.05, 0.2, 0.5):
        p1 = acceptance_probability(op, phi)
        assert abs(p1 - phi**2 * ms.m2 / 4) <= phi**4 * ms.m4 / 48 + 1e-15


def test_small_angle_fidelity_coefficient():
    op = random_real_symmetric(3, seed=76)
    ms = moments(op)
    phi = 1e-3
    expansion = 1 - (phi**2 / 4) * (ms.m4 / ms.m2 - ms.m3**2 / ms.m2**2)
    assert abs(preparation_fidelity(op, phi) - expansion) <= 1e-8


@settings(max_examples=30, deadline=None)
@given(phi=st.floats(-3.0, 3.0), seed=st.integers(0, 300))
def test_acceptance_probability_is_even_and_bounded(phi, seed):
    op = random_hermitian(2, seed=seed)
    p1 = acceptance_probability(op, phi)
    assert 0.0 <= p1 <= 1.0
    assert abs(p1 - acceptance_probability(op, -phi)) <= 1e-14


# --- angle selection -----------------------------------------------------------------


def test_choose_phi_for_uniform_law():
    phi = choose_phi_for_distribution(EigenvalueDistribution("uniform", 1.0), 0.01)
    assert abs(phi - np.sqrt(0.01 * (1 / 3) / (1 / 5))) <= 1e-15
    assert abs(phi - 0.1290994448735806) <= 1e-12


def test_choose_phi_quarter_epsilon_scaling():
    op = random_real_symmetric(3, seed=77)
    ms = moments(op)
    assert abs(choose_phi(ms, 0.04) / choose_phi(ms, 0.01) - 2.0) <= 1e-12


def test_choose_phi_hits_fidelity_target_for_gaussian_synthetic():
    op = synthetic_diagonal_observable(EigenvalueDistribution("gaussian", 1.0), 8, seed=21)
    epsilon = 0.01
    phi = choose_phi(moments(op), epsilon)
    assert preparation_fidelity(op, phi) >= 1 - 1.1 * epsilon


def test_choose_phi_meets_target_for_presets():
    presets = (
        preset_observable("total_sz", 4),
        preset_observable("site_sz", 4, 2),
        preset_observable("staggered_sz", 4),
        PAULI_Z,
    )
    for epsilon in (0.1, 0.01):
        for op in presets:
            phi = choose_phi(moments(op), epsilon)
            assert preparation_fidelity(op, phi) >= 1 - 1.2 * epsilon


def test_choose_phi_epsilon_range():
    with pytest.raises(ValueError):
        choose_phi(moments(PAULI_Z), 0.0)
    with pytest.raises(ValueError):
        choose_phi(moments(PAULI_Z), 1.0)


def test_success_bound_chain_is_ordered():
    for seed in range(4):
        op = synthetic_diagonal_observable(EigenvalueDistribution("uniform", 1.0), 6, seed=seed)
        ms = moments(op)
        bound = success_probability_bound(op, ms, 0.01)
        assert bound.predicted_p1 >= bound.spectral_bound - 1e-15
        assert bound.spectral_bound >= bound.rank_bound - 1e-15
        assert 0 < bound.o_min <= bound.o_max
        assert bound.rank == 64
        # The realized acceptance at the chosen angle stays above every bound.
        phi = choose_phi(ms, 0.01)
        assert acceptance_probability(op, phi) >= 0.9 * bound.rank_bound


@pytest.mark.parametrize("case", ["pauli_z", "gaussian", "uniform", "gibbs_ising"])
def test_predicted_p1_is_the_acceptance_at_the_chosen_angle(case):
    # sin^2 x lies within x^4/3 below x^2, so at phi the exact P1 is within
    # phi^4 m4 / 48 below phi^2 m2 / 4 = predicted_p1.
    kwargs = {}
    if case == "pauli_z":
        op = PAULI_Z
    elif case == "gibbs_ising":
        op = preset_observable("total_sz", 3)
        kwargs = {"ensemble": gibbs(1.0), "hamiltonian": build_operator(tilted_ising(3))}
    else:
        op = synthetic_diagonal_observable(EigenvalueDistribution(case, 1.0), 6, seed=2)
    ms = moments(op, **kwargs)
    phi = choose_phi(ms, 0.01)
    gap = success_probability_bound(op, ms, 0.01).predicted_p1 - acceptance_probability(op, phi, **kwargs)
    assert 0.0 <= gap <= phi**4 * ms.m4 / 48


# --- moment machinery ------------------------------------------------------------


def test_moments_of_zero_operator_rejected():
    with pytest.raises(ZeroOperatorError):
        moments(HermitianOperator(np.zeros((2, 2))))


def test_moments_reject_rounding_scale_second_moment():
    # Total S^z annihilates the Heisenberg singlet ground state; the computed
    # m2 is rounding noise (about 1e-33), not a positive moment.
    ham = build_operator(heisenberg(4))
    obs = preset_observable("total_sz", 4)
    with pytest.raises(ZeroOperatorError):
        moments(obs, GROUND_STATE, ham)


def test_moments_accept_physically_small_second_moment():
    # At beta = 10 only the thermally excited triplets carry weight: m2 is
    # tiny (about 3e-11) but far above rounding scale.
    ham = build_operator(heisenberg(4))
    obs = preset_observable("total_sz", 4)
    ms = moments(obs, gibbs(10.0), ham)
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
    shifted = HermitianOperator(np.diag([2.0, 0.0]))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        p1 = acceptance_probability(shifted, 0.4)
        fidelity = preparation_fidelity(shifted, 0.4)
    simulated_p1, _, simulated_fidelity = simulate_prep_circuit(shifted, 0.4)
    assert abs(p1 - simulated_p1) <= 1e-12
    assert abs(fidelity - simulated_fidelity) <= 1e-12


def test_ensemble_moments_match_direct_traces():
    op = random_real_symmetric(2, seed=78)
    ham = random_real_symmetric(2, seed=79)
    beta = 1.3
    vals, vecs = np.linalg.eigh(ham.matrix)
    rho = (vecs * np.exp(-beta * (vals - vals[0]))) @ vecs.T
    rho /= np.trace(rho)
    ms = moments(op, gibbs(beta), hamiltonian=ham)
    for k, got in ((2, ms.m2), (3, ms.m3), (4, ms.m4)):
        direct = np.trace(rho @ np.linalg.matrix_power(op.matrix, k)).real
        assert abs(got - direct) <= 1e-12


# --- the four laws -------------------------------------------------------------------


def test_moment_ratio_constants_are_exact():
    for kind in LAWS:
        c = moment_ratio_constant(EigenvalueDistribution(kind, 1.7))
        assert abs(c - CONSTANTS[kind]) <= 1e-12


def test_moment_ratio_monte_carlo_estimate():
    for kind, seed in (("semicircle", 1), ("uniform", 1), ("arcsine", 1), ("gaussian", 8)):
        op = synthetic_diagonal_observable(EigenvalueDistribution(kind, 1.0), 10, seed=seed)
        ms = moments(op)
        estimate = ms.m2**2 / ms.m4
        assert abs(estimate - CONSTANTS[kind]) <= 0.05 * CONSTANTS[kind]


def test_acceptance_rises_from_zero_to_one_half():
    # For a continuous symmetric spectrum the acceptance saturates at 1/2.
    for kind in LAWS:
        op = synthetic_diagonal_observable(EigenvalueDistribution(kind, 1.0), 8, seed=5)
        small_grid = [acceptance_probability(op, phi) for phi in (0.02, 0.1, 0.3, 0.6, 1.0)]
        assert small_grid[0] < 1e-3
        assert all(a < b for a, b in zip(small_grid, small_grid[1:]))
        assert abs(acceptance_probability(op, 200.0) - 0.5) <= 0.05


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
        assert abs(ratio - moment_ratio_constant(EigenvalueDistribution(kind, 1.0))) <= 1e-3
