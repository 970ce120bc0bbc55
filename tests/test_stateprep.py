"""Closed forms and circuit simulation of the postselected preparation."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import preset_observable, random_hermitian, random_real_symmetric
from qspec import (
    GROUND_STATE,
    EigenvalueDistribution,
    HermitianOperator,
    MomentSet,
    NonTracelessWarning,
    acceptance_probability,
    build_operator,
    choose_phi,
    choose_phi_for_distribution,
    gibbs,
    heisenberg,
    moment_ratio_constant,
    moments,
    preparation_fidelity,
    run_prep_circuit,
    success_probability_bound,
    synthetic_diagonal_observable,
)
from qspec.errors import DegenerateAngleError, ZeroOperatorError

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
        run_prep_circuit(PAULI_Z, 0.0, seed=1)


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
    outcome = run_prep_circuit(op, phi, seed=5, **kwargs)
    assert abs(outcome.acceptance_probability - acceptance_probability(op, phi, **kwargs)) <= 1e-12
    assert abs(outcome.fidelity_with_target - preparation_fidelity(op, phi, **kwargs)) <= 1e-10


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
    # P1(2.9) = sin^2(1.45) ~ 0.985: seed 0 accepts.
    outcome = run_prep_circuit(op, 2.9, seed=0)
    assert outcome.accepted and outcome.post_state is not None
    # P1(0.02) ~ 1e-4: same seed rejects, but exact fields stay filled.
    outcome = run_prep_circuit(op, 0.02, seed=0)
    assert not outcome.accepted and outcome.post_state is None
    assert outcome.acceptance_probability > 0
    assert outcome.fidelity_with_target > 0.99


def test_prep_draw_is_seed_deterministic():
    op = random_real_symmetric(2, seed=74)
    first = run_prep_circuit(op, 0.8, seed=123)
    second = run_prep_circuit(op, 0.8, seed=123)
    assert first.accepted == second.accepted
    assert first.acceptance_probability == second.acceptance_probability


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


def test_non_traceless_observable_warns():
    shifted = HermitianOperator(np.diag([2.0, 0.0]))
    with pytest.warns(NonTracelessWarning):
        acceptance_probability(shifted, 0.4)
    # Traceless input stays silent.
    import warnings

    with warnings.catch_warnings():
        warnings.simplefilter("error")
        acceptance_probability(PAULI_Z, 0.4)


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
